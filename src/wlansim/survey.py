"""Survey-log ingestion, per-AP aggregation, pairwise interference, and
path-loss fitting.

Input logs carry one row per RSSI sample: timestamp, AP MAC, SSID,
channel, signal strength and GPS position.  Two formats are accepted:

* CSV with fixed column order ``t,bssid,ssid,channel,rssi_dbm,lat,lon``
  (a header row with exactly those names is skipped);
* KML documents whose Placemarks hold a Point plus the same fields as
  ExtendedData entries (``bssid``, ``ssid``, ``channel``, ``rssi_dbm``),
  with the timestamp in the Placemark's TimeStamp/when element.

A record is one checked sample as a plain tuple in ``CSV_COLUMNS`` order,
``(t, bssid, ssid, channel_id, rssi_dbm, lat, lon)``: text, text, text,
int, float, float, float, with surrounding whitespace stripped from the
texts.  Parsing is best effort: a malformed sample is reported with the
physical line its CSV record starts on, or its KML placemark's start tag
closes on, and never aborts the run.
"""

from __future__ import annotations

import csv
import math
import re
from itertools import chain
from typing import IO, Iterator, NamedTuple, Sequence

from .channels import CHANNEL_IDS, channel_by_id, overlap_fraction
from .propagation import EARTH_RADIUS_M, check_position, haversine_distance

CSV_COLUMNS = ["t", "bssid", "ssid", "channel", "rssi_dbm", "lat", "lon"]

_MAC_RE = re.compile(r"^[0-9A-Fa-f]{2}(:[0-9A-Fa-f]{2}){5}$")

RSSI_MIN_DBM = -120.0
RSSI_MAX_DBM = 0.0

LOW_CONFIDENCE_COUNT = 5
DEFAULT_COVERAGE_THRESHOLD_DBM = -80.0
GRID_M = 1.0


# (t, bssid, ssid, channel_id, rssi_dbm, lat, lon), as ``_record_from_fields`` builds it.
Record = tuple[str, str, str, int, float, float, float]


class ApSummary(NamedTuple):
    """RSSI statistics for one AP at one quantized survey location; the
    fields are the columns of ``summaries.csv``, in order, and a ``None``
    distance (no AP position given) is written as an empty field."""

    bssid: str
    ssid: str
    channel: int
    cell_x: int
    cell_y: int
    lat: float
    lon: float
    mean_rssi_dbm: float
    stddev_rssi_dbm: float
    count: int
    low_confidence: int  # 1 for fewer than LOW_CONFIDENCE_COUNT samples, else 0
    distance_m: float | None = None


class FitResult(NamedTuple):
    """Least-squares path-loss fit: loss = reference + 10*exponent*log10(d)."""

    exponent: float
    reference_loss_db: float
    residual_rms_db: float
    sample_count: int


class Verdict(NamedTuple):
    """Channel overlap and geographic co-location verdict for an AP pair;
    the fields are the last columns of ``interference.csv``, in order, with
    the flags as 0/1.  A pair interferes when it overlaps and is co-located."""

    overlap: float
    co_located: int
    interferes: int


# A format yields (line, fields) per sample: the physical line where the
# sample starts, and its seven field texts in ``CSV_COLUMNS`` order or,
# for a row that is bad at the format level, the message to report.
Rows = Iterator[tuple[int, Sequence[str] | str]]


def _record_from_fields(fields: Sequence[str]) -> Record:
    """Check one sample's seven field texts and build its record.

    The one place a sample is checked.  A sample with several faults is
    reported by the first check it fails, so the order below is output.
    """
    t, bssid, ssid, channel, rssi_text, lat_text, lon_text = fields
    rssi_text = rssi_text.strip()
    if rssi_text.startswith("+"):
        raise ValueError(f"rssi {rssi_text!r} violates the [-120, 0] dBm range")
    bssid = bssid.strip()
    channel_id = int(channel)
    rssi_dbm = float(rssi_text)
    lat = float(lat_text)
    lon = float(lon_text)
    check_position(lat, lon)
    if not _MAC_RE.match(bssid):
        raise ValueError(f"invalid MAC address {bssid!r}")
    if not RSSI_MIN_DBM <= rssi_dbm <= RSSI_MAX_DBM:
        raise ValueError(f"rssi {rssi_dbm} dBm outside [{RSSI_MIN_DBM}, {RSSI_MAX_DBM}]")
    if channel_id not in CHANNEL_IDS:
        raise ValueError(f"channel {channel_id} not in any known plan")
    return (t.strip(), bssid, ssid.strip(), channel_id, rssi_dbm, lat, lon)


def _csv_rows(stream: IO[str]) -> Rows:
    reader = csv.reader(stream)
    while True:
        # A quoted field may span lines, so records and lines can differ in number.
        lineno = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:  # e.g. an over-long field; the reader resumes on the next line
            yield lineno, str(exc)
            continue
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if lineno == 1 and [c.strip().lower() for c in row] == CSV_COLUMNS:
            continue
        if len(row) != len(CSV_COLUMNS):
            yield lineno, f"expected {len(CSV_COLUMNS)} columns, got {len(row)}"
        else:
            yield lineno, row


def _local_tag(elem: "ET.Element") -> str:
    return elem.tag.rsplit("}", 1)[-1]


def _placemark_fields(placemark: "ET.Element") -> dict[str, str]:
    fields: dict[str, str] = {"t": ""}
    for elem in placemark.iter():
        tag = _local_tag(elem)
        if tag == "Data":
            name = elem.get("name", "")
            for child in elem:
                if _local_tag(child) == "value" and child.text is not None:
                    fields[name] = child.text
        elif tag == "when" and elem.text is not None:
            fields["t"] = elem.text
        elif tag == "coordinates" and elem.text is not None:
            parts = elem.text.strip().split(",")
            if len(parts) >= 2:
                fields["lon"] = parts[0]
                fields["lat"] = parts[1]
    return fields


def _kml_rows(stream: IO[str]) -> Rows:
    """Placemarks, each at the line its start tag closes on (the document is
    fed a line at a time), which for a one-line tag is the line it starts on."""
    import xml.etree.ElementTree as ET  # here, so CSV runs do not load the XML parser

    parser = ET.XMLPullParser(("start", "end"))
    starts: list[int] = []
    try:
        # The "" after the last line closes the document.
        for lineno, line in enumerate(chain(stream, [""]), start=1):
            if line:
                parser.feed(line)
            else:
                parser.close()
            for event, elem in parser.read_events():
                if _local_tag(elem) != "Placemark":
                    continue
                if event == "start":
                    starts.append(lineno)
                    continue
                fields = _placemark_fields(elem)
                missing = [k for k in CSV_COLUMNS if k not in fields]
                if missing:
                    yield starts.pop(), f"placemark missing fields: {', '.join(missing)}"
                else:
                    yield starts.pop(), [fields[k] for k in CSV_COLUMNS]
    except ET.ParseError as exc:
        raise ValueError(f"not a parseable KML document: {exc}") from exc


# Log format name -> its row reader; the one list of accepted formats.
LOG_FORMATS = {"csv": _csv_rows, "kml": _kml_rows}


def parse_log(stream: IO[str], fmt: str) -> tuple[list[Record], list[tuple[int, str]]]:
    """Parse a survey log in the given format, a key of ``LOG_FORMATS``,
    into records and the ``(line, message)`` of each skipped sample.

    Raises:
        ValueError: for an unparseable KML document, or when no sample
            parses at all.
    """
    records: list[Record] = []
    errors: list[tuple[int, str]] = []
    for lineno, fields in LOG_FORMATS[fmt](stream):
        if isinstance(fields, str):
            errors.append((lineno, fields))
            continue
        try:
            records.append(_record_from_fields(fields))
        except ValueError as exc:
            errors.append((lineno, str(exc)))
    if not records:
        raise ValueError("no valid measurement records in input")
    return records, errors


def summarize(
    records: Sequence[Record],
    ap_position: tuple[float, float] | None = None,
) -> list[ApSummary]:
    """Aggregate records into per-(AP, location-cell) RSSI statistics.

    A record's cell is its position quantized to the local ``GRID_M``
    metric grid by an equirectangular projection, adequate for
    survey-scale extents.  A group's mean position, mean RSSI and RSSI
    variance divide ``math.fsum`` sums, which are exact up to their one
    final rounding, by the group's size.  Its SSID and channel are those
    of its earliest sample: the least record, by timestamp text and then
    by its other fields.  So the result does not depend on the order of
    ``records``, whatever the log.  Groups with fewer than
    ``LOW_CONFIDENCE_COUNT`` samples are flagged low-confidence.  When
    ``ap_position``, a checked ``(lat, lon)``, is given, each summary
    carries the great-circle distance from the AP to the group's mean
    position, which is in range as its members' positions are.
    ``records`` is nonempty, as ``parse_log`` returns them.
    """
    radians, cos, floor, fsum = math.radians, math.cos, math.floor, math.fsum
    # AP -> cell -> members: the groups then sort by AP and cell apart,
    # which is cheaper than sorting (AP, cell) keys.
    groups: dict[str, dict[tuple[int, int], list[Record]]] = {}
    for rec in records:
        _, bssid, _, _, _, lat, lon = rec
        y = EARTH_RADIUS_M * radians(lat)
        x = EARTH_RADIUS_M * radians(lon) * cos(radians(lat))
        cell = (floor(x / GRID_M), floor(y / GRID_M))
        cells = groups.get(bssid)
        if cells is None:
            cells = groups[bssid] = {}
        members = cells.get(cell)
        if members is None:
            cells[cell] = [rec]
        else:
            members.append(rec)

    summaries = []
    for bssid, cells in sorted(groups.items()):
        for cell, members in sorted(cells.items()):
            n = len(members)
            _, _, ssid, channel_id, *_ = min(members)
            _, _, _, _, rssis, lats, lons = zip(*members)
            mean_rssi = fsum(rssis) / n
            # A product, not ** 2, which calls libm pow.
            var = fsum([(r - mean_rssi) * (r - mean_rssi) for r in rssis]) / n
            lat = fsum(lats) / n
            lon = fsum(lons) / n
            distance = None
            if ap_position is not None:
                distance = haversine_distance(*ap_position, lat, lon)
            summaries.append(
                ApSummary(
                    bssid, ssid, channel_id, *cell, lat, lon, mean_rssi, math.sqrt(var), n,
                    int(n < LOW_CONFIDENCE_COUNT), distance,
                )
            )
    return summaries


def fit_path_loss(
    points: Sequence[tuple[float, float]], tx_eirp_dbm: float
) -> FitResult:
    """Fit a log-distance model to (distance_m, mean_rssi_dbm) points.

    Ordinary least squares of observed loss (EIRP minus RSSI) against
    ``10*log10(distance)`` via the closed-form normal equations.  Every
    distance is positive and ``tx_eirp_dbm`` is finite.  The losses are
    fitted as ``-rssi`` and the EIRP is added to the intercept at the end:
    the slope and residuals do not depend on that shift, and a huge EIRP
    cannot overflow the sums.

    Raises:
        ValueError: with fewer than two points, or when every distance is
            the same.
    """
    if len(points) < 2:
        raise ValueError("need at least two points to fit")
    xs = [10.0 * math.log10(d) for d, _ in points]
    ys = [-rssi for _, rssi in points]
    n = len(points)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("all distances equal; fit is degenerate")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    exponent = sxy / sxx
    reference = mean_y - exponent * mean_x
    residuals = [y - (reference + exponent * x) for x, y in zip(xs, ys)]
    rms = math.sqrt(sum(r * r for r in residuals) / n)
    return FitResult(
        exponent=exponent,
        reference_loss_db=reference + tx_eirp_dbm,
        residual_rms_db=rms,
        sample_count=n,
    )


def interference_report(
    summaries: Sequence[ApSummary], coverage_threshold_dbm: float
) -> Iterator[tuple[str, list[tuple[str, Verdict]]]]:
    """Pairwise channel overlap and co-location across the surveyed APs,
    as a lazy stream of one block per AP in bssid order: ``(bssid_a,
    [(bssid_b, verdict), ...])`` for every ``bssid_b`` after ``bssid_a``.
    Every per-AP and per-channel table is built before the stream is
    returned.

    An AP's coverage region is the set of cells where its mean RSSI meets
    the threshold, which is finite; two APs are co-located when those
    regions intersect.  Each AP's plan follows from its channel id; a pair
    of APs in different plans has overlap 0.

    A pair's verdict follows from the two channel ids and co-location
    alone, so the at most 2k² verdicts of k channels in use are built once
    and shared.  Co-location comes from a cell -> APs index whose sets of
    APs are the bits of an integer, one bit per AP.  The APs near
    ``bssid_a``, those sharing one of its covered cells, are the union of
    its cells' sets: one integer OR per cell, however many APs share it.
    That set is built when ``bssid_a``'s block is made and dropped with
    it, so memory stays O(APs) beside the index and the block being
    consumed.
    """
    cells: dict[str, set[tuple[int, int]]] = {}
    counts: dict[str, dict[int, int]] = {}
    for s in summaries:
        cells.setdefault(s.bssid, set())
        if s.mean_rssi_dbm >= coverage_threshold_dbm:
            cells[s.bssid].add((s.cell_x, s.cell_y))
        counts.setdefault(s.bssid, {}).setdefault(s.channel, 0)
        counts[s.bssid][s.channel] += 1
    # Channel per AP: the most common value across its groups, smallest id on ties.
    channels = {
        bssid: min(by_channel, key=lambda cid: (-by_channel[cid], cid))
        for bssid, by_channel in counts.items()
    }
    # verdicts[channel_a][channel_b][co_located], nested so that a pair's
    # lookup builds no key.
    verdicts: dict[int, dict[int, tuple[Verdict, Verdict]]] = {}
    in_use = [channel_by_id(cid) for cid in set(channels.values())]
    for a in in_use:
        verdicts[a.id] = {}
        for b in in_use:
            fraction = overlap_fraction(a, b) if a.plan == b.plan else 0.0
            verdicts[a.id][b.id] = (Verdict(fraction, 0, 0), Verdict(fraction, 1, int(fraction > 0.0)))
    bssids = sorted(cells)
    # cell -> the APs covering it, as a set of bits: bit j stands for bssids[j].
    covering: dict[tuple[int, int], int] = {}
    for j, bssid in enumerate(bssids):
        for cell in cells[bssid]:
            covering[cell] = covering.get(cell, 0) | 1 << j

    def blocks() -> Iterator[tuple[str, list[tuple[str, Verdict]]]]:
        for i, a in enumerate(bssids):
            near = 0
            for cell in cells[a]:
                near |= covering[cell]
            later = bssids[i + 1 :]
            # For each AP after a, in order, "1" when it is near a, else "0".
            flags = f"{near >> (i + 1):0{len(later)}b}"[::-1]
            row = verdicts[channels[a]]
            yield a, [(b, row[channels[b]][flag == "1"]) for b, flag in zip(later, flags)]

    return blocks()
