"""Independent reference implementations shared across test modules.

These deliberately recompute results from first principles (breakpoint
integration, direct transform summation, forward-model synthesis, the
NLMS recursion one snapshot at a time, numpy's own Philox bit
generator, a linear staircase scan, the
survey sample check as a record object once made it, the KML reader as an
element tree once made it) so the code under test is checked against a
second route, not against itself.  The
near-miss survey field texts that the survey property tests draw from
are here too, so the parser and CLI properties probe the same inputs.
"""

import math
import random
import re
from itertools import chain

import numpy as np
from hypothesis import strategies as st

from wlansim.arrays import synthesize
from wlansim.channels import channel_by_id, channels_in
from wlansim.nlms import RELATIVE_EPS
from wlansim.survey import CSV_COLUMNS


def mask_overlap_oracle(a, b) -> float:
    """Brute-force integration of two rectangular spectral masks.

    Decomposes the frequency axis at the mask edges and sums the width of
    every piece where both indicator masks are 1.
    """
    edges = sorted(
        {
            a.center_hz - a.bandwidth_hz / 2,
            a.center_hz + a.bandwidth_hz / 2,
            b.center_hz - b.bandwidth_hz / 2,
            b.center_hz + b.bandwidth_hz / 2,
        }
    )
    width = 0.0
    for lo, hi in zip(edges, edges[1:]):
        mid = (lo + hi) / 2
        in_a = abs(mid - a.center_hz) < a.bandwidth_hz / 2
        in_b = abs(mid - b.center_hz) < b.bandwidth_hz / 2
        if in_a and in_b:
            width += hi - lo
    return width / a.bandwidth_hz


def interference_oracle(summaries, threshold_dbm) -> list[tuple]:
    """Pair by pair, from the summaries alone: (a, b, overlap, co_located, interferes).

    An AP's channel is the id of most of its groups, the smaller id on a
    tie; its coverage is the cells whose mean RSSI reaches the threshold.
    Overlap integrates the two channels' masks, so a pair across plans
    (2.4 vs 5 GHz) gets 0 from the spectrum itself.
    """

    def channel(bssid):
        ids = [s.channel for s in summaries if s.bssid == bssid]
        most = max(ids.count(c) for c in ids)
        return channel_by_id(min(c for c in ids if ids.count(c) == most))

    def coverage(bssid):
        return {(s.cell_x, s.cell_y) for s in summaries if s.bssid == bssid and s.mean_rssi_dbm >= threshold_dbm}

    aps = sorted({s.bssid for s in summaries})
    rows = []
    for i, a in enumerate(aps):
        for b in aps[i + 1 :]:
            overlap = mask_overlap_oracle(channel(a), channel(b))
            co_located = len(coverage(a) & coverage(b)) > 0
            rows.append((a, b, overlap, co_located, overlap > 0 and co_located))
    return rows


def dft_oracle(signal) -> np.ndarray:
    """Direct O(N^2) summation from the transform definition, no FFT:
    bin k is |sum_n x[n] exp(-2j pi k n / N)|, as the N x N matrix of those
    factors times the signal.  ``k n`` is reduced mod N, exactly, so every
    phase is in [0, 2 pi)."""
    x = np.asarray(signal, dtype=complex)
    size = len(x)
    kn = np.outer(np.arange(size), np.arange(size)) % size
    return np.abs(np.exp(-2j * np.pi * kn / size) @ x)


def philox_words_oracle(seed: int, stream: int, words: range) -> np.ndarray:
    """Words ``words`` of the ``(seed, stream)`` Philox4x64-10 sequence from
    numpy's bit generator: ``Philox(counter=c)`` returns word ``4c`` first."""
    bitgen = np.random.Philox(key=(stream << 64) | seed, counter=words.start // 4)
    return bitgen.random_raw(words.start % 4 + len(words))[words.start % 4 :]


def synth_fit_points(exponent, ref_loss=40.0, eirp=20.0, noise=None, seed=0, count=50):
    """Forward-model RSSI samples for the path-loss fit: 1 m .. 1 km."""
    rng = random.Random(seed)
    points = []
    for i in range(count):
        d = 10 ** (i / (count - 1) * 3)
        rssi = eirp - (ref_loss + 10.0 * exponent * math.log10(d))
        if noise:
            rssi += rng.gauss(0.0, noise)
        points.append((d, rssi))
    return points


def nlms_fold(scenario, stride) -> dict:
    """``nlms.run`` rebuilt from the NLMS equations, one snapshot at a
    time: y = w^H x, e = d - y, w <- w + mu/(||x||^2 + eps) * x * conj(e),
    with the update skipped when the denominator is zero and the weights
    kept as they are when e is zero; |e|^2 and the amplitudes are squared
    by product, as IEEE 754 rounds it, and the squares summed exactly by
    ``math.fsum``.  Counts the skipped updates."""
    n_iter = scenario.iterations
    expected_energy = scenario.num_elements * (
        math.fsum([s.amplitude * s.amplitude for s in scenario.sources]) + scenario.noise_power
    )
    mu, eps = scenario.step_size, RELATIVE_EPS * expected_energy
    w = np.zeros(scenario.num_elements, dtype=complex)
    err, out, snapshots, skipped = [], [], [], 0
    tail_start = max(0, n_iter - max(1, n_iter // 10))
    w_sum = np.zeros(scenario.num_elements, dtype=complex)
    for n in range(n_iter):
        X, d = synthesize(scenario, range(n, n + 1))
        x = X[0]
        y = complex(np.vdot(w, x))
        e = complex(d[0]) - y
        denom = float(np.vdot(x, x).real) + eps
        if denom == 0.0:
            skipped += 1
        elif e != 0:
            w = w + (mu / denom) * x * np.conj(e)
        err.append(e.real * e.real + e.imag * e.imag)
        out.append(y)
        if (n + 1) % stride == 0:
            snapshots.append((n, w.copy()))
        if n >= tail_start:
            w_sum += w
    if not snapshots or snapshots[-1][0] != n_iter - 1:
        snapshots.append((n_iter - 1, w.copy()))
    return {
        "error_power": np.array(err),
        "outputs": np.array(out, dtype=complex),
        "converged_weights": w_sum / (n_iter - tail_start),
        "final_error_power": float(np.array(err[tail_start:]).mean()),
        "weight_snapshots": snapshots,
        "skipped": skipped,
    }


def location_cell(latitude, longitude) -> tuple[int, int]:
    """The 1 m cell of a position: x = R lon cos(lat) and y = R lat, in
    radians on a sphere of radius R = 6371 km, floored to whole metres."""
    y = 6_371_000.0 * math.radians(latitude)
    x = 6_371_000.0 * math.radians(longitude) * math.cos(math.radians(latitude))
    return (math.floor(x), math.floor(y))


# Every id of the two plans, listed plan by plan.
KNOWN_CHANNEL_IDS = {c.id for plan in ("ism24", "unii") for c in channels_in(plan)}


def survey_record_oracle(t, bssid, ssid, channel, rssi_dbm, lat, lon) -> tuple:
    """One survey sample checked field by field, in the order and with the
    messages of the check when a sample was a record object holding a
    checked position: ``(t, bssid, ssid, channel_id, rssi_dbm, lat, lon)``,
    or a ValueError naming the first fault."""
    rssi_text = rssi_dbm.strip()
    if rssi_text.startswith("+"):
        raise ValueError(f"rssi {rssi_text!r} violates the [-120, 0] dBm range")
    bssid = bssid.strip()
    channel_id = int(channel)
    rssi = float(rssi_text)
    latitude, longitude = float(lat), float(lon)
    if not -90.0 <= latitude <= 90.0:
        raise ValueError(f"latitude {latitude} outside [-90, 90]")
    if not -180.0 <= longitude <= 180.0:
        raise ValueError(f"longitude {longitude} outside [-180, 180]")
    if not re.match(r"^[0-9A-Fa-f]{2}(:[0-9A-Fa-f]{2}){5}$", bssid):
        raise ValueError(f"invalid MAC address {bssid!r}")
    if not -120.0 <= rssi <= 0.0:
        raise ValueError(f"rssi {rssi} dBm outside [-120.0, 0.0]")
    if channel_id not in KNOWN_CHANNEL_IDS:
        raise ValueError(f"channel {channel_id} not in any known plan")
    return (t.strip(), bssid, ssid.strip(), channel_id, rssi, latitude, longitude)


def staircase_rate(snr_db, staircase) -> float:
    """Linear scan: the rate of the last rung whose threshold the SNR
    reaches, or 0 below the first; ``staircase`` ascends."""
    rate = 0.0
    for threshold, step_rate in staircase:
        if snr_db >= threshold:
            rate = step_rate
    return rate


def near_misses(*texts):
    """Any of the given texts, or short free text with no line break."""
    free = st.text(st.characters(blacklist_characters="\r\n\x00", blacklist_categories=("Cs",)), max_size=6)
    return st.one_of(st.sampled_from(texts), free)


# Near misses for each survey field, in CSV column order; a few are valid
# values, so that logs hold more than one AP, cell and distance.
FIELD_NEAR_MISSES = [
    near_misses("", "t,with,commas"),
    near_misses(
        "not-a-mac", "00:11:22:33:44", "00:11:22:33:44:GG", "00-11-22-33-44-55", "00:11:22:33:44:55:66",
        "00:11:22:33:44:66",
    ),
    near_misses("", "a,b", 'say "hi"'),
    near_misses("6", "14", "0", "15", "x", "6.0", "", " 11 ", "36", "165"),
    near_misses("+10", "+ -3", "nan", "-inf", "-120", "-120.5", "0", "-0", "0.5", "x", "", "1e308", "-1e308"),
    near_misses("90", "90.0001", "-91", "nan", "inf", "1e3", "x", "-90", "51.87761"),
    near_misses("-180", "180.5", "-181", "nan", "-inf", "x", "180", "0.94261"),
]


# The KML reader as an XMLPullParser over an element tree once made it,
# verbatim: each placemark walks its descendants, the last field by start
# tag winning.  It takes time quadratic in placemark nesting depth.
def _local_tag(elem: "ET.Element") -> str:
    return elem.tag.rsplit("}", 1)[-1]


def _placemark_fields(placemark: "ET.Element") -> dict[str, str]:
    fields: dict[str, str] = {}
    for elem in placemark.iter():
        tag = _local_tag(elem)
        if tag == "Data":
            name = elem.get("name", "")
            for child in elem:
                if _local_tag(child) == "value":  # <value/> holds "", as an empty CSV field does
                    fields[name] = child.text or ""
        elif tag == "when":  # so does <when/>
            fields["t"] = elem.text or ""
        elif tag == "coordinates" and elem.text is not None:
            parts = elem.text.strip().split(",")
            if len(parts) >= 2:
                fields["lon"] = parts[0]
                fields["lat"] = parts[1]
    return fields


def kml_rows_oracle(stream):
    """Placemarks, each at the line its start tag closes on (the document is
    fed a line at a time), which for a one-line tag is the line it starts on.
    So it numbers a placemark as ``survey._kml_rows`` does, by the line its
    start tag starts on, unless the tag spans lines, which the survey
    tests' ``kml_documents`` strategy never draws.  A top-level placemark
    is removed from its parent once its fields are read, so the parsed
    document is never held whole."""
    import xml.etree.ElementTree as ET  # here, so CSV runs do not load the XML parser

    parser = ET.XMLPullParser(("start", "end"))
    path: list[ET.Element] = []  # the elements open at the parser's position, outermost first
    starts: list[int] = []
    try:
        # The "" after the last line closes the document.
        for lineno, line in enumerate(chain(stream, [""]), start=1):
            if line:
                parser.feed(line)
            else:
                parser.close()
            for event, elem in parser.read_events():
                if event == "start":
                    path.append(elem)
                    if _local_tag(elem) == "Placemark":
                        starts.append(lineno)
                    continue
                path.pop()
                if _local_tag(elem) != "Placemark":
                    continue
                fields = _placemark_fields(elem)
                start = starts.pop()
                # Only a top-level placemark goes: an enclosing one would read
                # this one's fields too.  A root placemark has no parent.
                if not starts and path:
                    path[-1].remove(elem)
                missing = [k for k in CSV_COLUMNS if k not in fields]
                if missing:
                    yield start, f"placemark missing fields: {', '.join(missing)}"
                else:
                    yield start, [fields[k] for k in CSV_COLUMNS]
    except ET.ParseError as exc:
        raise ValueError(f"not a parseable KML document: {exc}") from exc
