"""Seeded inputs for the benchmark workloads (stdlib only).

``make_inputs(workload, seed, work_dir)`` writes the files a workload
feeds to the CLI and returns a plain dict with the CLI arguments and the
facts the output checks compare against (generated record and malformed
counts, the path-loss exponent the RSSI was drawn from, ...).  The same
seed always gives the same bytes; the dict carries the SHA-256 of every
generated file so that can be confirmed.

Survey logs use ISM-24 channel ids only and draw RSSI from a log-distance
model: ``rssi = eirp - (pl0 + 10 * n * log10(d)) + N(0, shadowing^2)``.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

EARTH_RADIUS_M = 6_371_000.0
SITE = (51.8776, 0.9426)  # survey origin, latitude and longitude in degrees
ISM24_CHANNELS = tuple(range(1, 15))

# Free-space loss at 1 m, 2.4 GHz; shared by every generated AP.
REFERENCE_LOSS_DB = 40.05
TX_EIRP_DBM = 20.0
SHADOWING_DB = 4.0
GPS_JITTER_M = 0.2
COVERAGE_THRESHOLD_DBM = -80.0

# Every MALFORMED_EVERY-th data line is replaced by a malformed line; the
# kinds take turns.  Each kind is rejected by the parser for one reason.
MALFORMED_EVERY = 100
MALFORMED_KINDS = (
    "short_row",
    "bad_mac",
    "rssi_out_of_range",
    "rssi_plus_sign",
    "non_numeric_rssi",
    "unknown_channel",
    "latitude_out_of_range",
)

BEAMFORM_ITERATIONS = 12_000
BULK_ROWS = 40_000
BULK_APS = 40
DENSE_ROWS = 15_000
DENSE_APS = 450
DENSE_SIDE_M = 1000.0
DENSE_HEARING_M = 60.0
THROUGHPUT_POINTS = 150_000

# Peak client rates (Mbps) the throughput curve is capped at, by
# (standard, streams); an independent copy of the published table.
PEAK_RATE_MBPS = {("n", 1): 150.0, ("n", 3): 450.0, ("ac", 1): 450.0, ("ac", 3): 1300.0}
WIDTHS_MHZ = {"n": (20, 40), "ac": (20, 40, 80, 160)}

SURVEY_HEADER = "t,bssid,ssid,channel,rssi_dbm,lat,lon"


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash through SHA-512, so this is stable across runs and
    # Python versions, and workloads with one seed draw unrelated streams.
    return random.Random(f"{workload}:{seed}")


def _offset(east_m: float, north_m: float) -> tuple[float, float]:
    """Latitude and longitude of a point given in metres from SITE."""
    lat0, lon0 = SITE
    lat = lat0 + math.degrees(north_m / EARTH_RADIUS_M)
    lon = lon0 + math.degrees(east_m / (EARTH_RADIUS_M * math.cos(math.radians(lat0))))
    return lat, lon


def _bssid(k: int) -> str:
    return "02:00:00:%02x:%02x:%02x" % ((k >> 16) & 0xFF, (k >> 8) & 0xFF, k & 0xFF)


def _rssi(rng: random.Random, distance_m: float, exponent: float) -> float:
    mean = TX_EIRP_DBM - (REFERENCE_LOSS_DB + 10.0 * exponent * math.log10(distance_m))
    while True:
        value = round(mean + rng.gauss(0.0, SHADOWING_DB), 1)
        if -120.0 <= value <= 0.0:
            return value


def _malformed(kind: str, fields: list[str]) -> str:
    f = list(fields)
    if kind == "short_row":
        f = f[:-1]
    elif kind == "bad_mac":
        f[1] = "02:00:00:zz:00:01"
    elif kind == "rssi_out_of_range":
        f[4] = "-130.0"
    elif kind == "rssi_plus_sign":
        f[4] = "+3.0"
    elif kind == "non_numeric_rssi":
        f[4] = "strong"
    elif kind == "unknown_channel":
        f[3] = "15"
    elif kind == "latitude_out_of_range":
        f[5] = "95.0"
    return ",".join(f)


class _LogWriter:
    """Writes survey rows, swapping in the fixed share of malformed lines."""

    def __init__(self, f, limit: int):
        self.f = f
        self.limit = limit
        self.rows = 0
        self.records = 0
        self.malformed_lines: list[int] = []
        self.bssids: set[str] = set()
        f.write(SURVEY_HEADER + "\n")

    @property
    def full(self) -> bool:
        return self.rows >= self.limit

    def row(self, t: int, ap: int, ssid: str, channel: int, rssi: float, lat: float, lon: float) -> None:
        if self.full:
            return
        self.rows += 1
        bssid = _bssid(ap)
        fields = [
            f"2024-05-11T{t // 3600 % 24:02d}:{t // 60 % 60:02d}:{t % 60:02d}Z",
            bssid, ssid, str(channel), repr(rssi), repr(round(lat, 8)), repr(round(lon, 8)),
        ]
        if self.rows % MALFORMED_EVERY == 0:
            kind = MALFORMED_KINDS[(self.rows // MALFORMED_EVERY) % len(MALFORMED_KINDS)]
            self.malformed_lines.append(self.rows + 1)  # line 1 is the header
            self.f.write(_malformed(kind, fields) + "\n")
            return
        self.records += 1
        self.bssids.add(bssid)
        self.f.write(",".join(fields) + "\n")


def _survey_facts(writer: _LogWriter, path: Path, channels: dict[int, int]) -> dict:
    return {
        "rows": writer.rows,
        "records": writer.records,
        "malformed": len(writer.malformed_lines),
        "malformed_lines": writer.malformed_lines,
        "aps": len(writer.bssids),
        "channels": {_bssid(ap): ch for ap, ch in channels.items() if _bssid(ap) in writer.bssids},
        "coverage_threshold_dbm": COVERAGE_THRESHOLD_DBM,
        "inputs": {path.name: sha256_file(path)},
    }


def _coverage_bulk(seed: int, work_dir: Path) -> dict:
    """BULK_APS radios on one mast; the surveyor walks an annulus around it.

    Every stop hears every radio on one to eight scans, so groups hold
    one to eight samples and all RSSI follows one exponent from one
    position: ``--fit`` must recover that exponent.
    """
    rng = _rng("coverage_bulk", seed)
    exponent = round(2.0 + 1.5 * rng.random(), 2)
    channels = {ap: rng.choice(ISM24_CHANNELS) for ap in range(BULK_APS)}
    path = work_dir / "survey_bulk.csv"
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = _LogWriter(f, BULK_ROWS)
        t = 0
        while not w.full:
            r = math.sqrt(rng.uniform(5.0**2, 150.0**2))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            east, north = r * math.cos(theta), r * math.sin(theta)
            for _ in range(rng.randint(1, 8)):
                t += 2
                for ap in range(BULK_APS):
                    e = east + rng.uniform(-GPS_JITTER_M, GPS_JITTER_M)
                    n = north + rng.uniform(-GPS_JITTER_M, GPS_JITTER_M)
                    lat, lon = _offset(e, n)
                    rssi = _rssi(rng, math.hypot(e, n), exponent)
                    w.row(t, ap, f"mast-{ap % 8}", channels[ap], rssi, lat, lon)
    facts = _survey_facts(w, path, channels)
    facts.update(
        exponent=exponent,
        argv=[
            "coverage", str(path), "--fit",
            "--ap-lat", repr(SITE[0]), "--ap-lon", repr(SITE[1]),
            "--tx-eirp", repr(TX_EIRP_DBM),
        ],
        units=facts["rows"],
        unit_name="log rows",
    )
    return facts


def _coverage_dense(seed: int, work_dir: Path) -> dict:
    """DENSE_APS APs scattered over a square campus.

    Stop ``i`` lies near AP ``i mod DENSE_APS``, so every AP is heard, and
    hears every AP within DENSE_HEARING_M; APs heard at one stop share
    its cell and so are co-located when both clear the threshold.
    """
    rng = _rng("coverage_dense", seed)
    exponent = round(2.0 + 1.5 * rng.random(), 2)
    aps = [(rng.uniform(0.0, DENSE_SIDE_M), rng.uniform(0.0, DENSE_SIDE_M)) for _ in range(DENSE_APS)]
    channels = {ap: rng.choice(ISM24_CHANNELS) for ap in range(DENSE_APS)}
    path = work_dir / "survey_dense.csv"
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = _LogWriter(f, DENSE_ROWS)
        t = 0
        stop = 0
        while not w.full:
            ax, ay = aps[stop % DENSE_APS]
            stop += 1
            x = ax + rng.uniform(-20.0, 20.0)
            y = ay + rng.uniform(-20.0, 20.0)
            lat, lon = _offset(x, y)
            heard = [
                (ap, d)
                for ap, (px, py) in enumerate(aps)
                if (d := math.hypot(px - x, py - y)) <= DENSE_HEARING_M
            ]
            for _ in range(rng.randint(1, 6)):
                t += 2
                for ap, d in heard:
                    rssi = _rssi(rng, max(d, 1.0), exponent)
                    w.row(t, ap, f"campus-{ap % 16}", channels[ap], rssi, lat, lon)
    facts = _survey_facts(w, path, channels)
    facts.update(
        argv=["coverage", str(path)],
        units=facts["aps"] * (facts["aps"] - 1) // 2,
        unit_name="AP pairs",
    )
    return facts


def _throughput_sweep(seed: int, work_dir: Path) -> dict:
    """One seeded PHY and path-loss setting over THROUGHPUT_POINTS distances."""
    rng = _rng("throughput_sweep", seed)
    standard = rng.choice(("n", "ac"))
    streams = rng.choice((1, 3))
    width = rng.choice(WIDTHS_MHZ[standard])
    exponent = round(2.0 + 1.5 * rng.random(), 2)
    tx_eirp = round(rng.uniform(10.0, 23.0), 1)
    frequency = rng.choice((2.437e9, 5.18e9))
    step = round(rng.uniform(0.005, 0.02), 4)
    argv = [
        "throughput", "--standard", standard, "--streams", str(streams),
        "--width", str(width), "--tx-eirp", repr(tx_eirp),
        "--frequency", repr(frequency), "--exponent", repr(exponent),
        "--min-distance", "1.0", "--step", repr(step),
        "--points", str(THROUGHPUT_POINTS),
    ]
    return {
        "argv": argv,
        "points": THROUGHPUT_POINTS,
        "min_distance": 1.0,
        "peak_rate_mbps": PEAK_RATE_MBPS[(standard, streams)],
        "inputs": {},
        "units": THROUGHPUT_POINTS,
        "unit_name": "curve points",
    }


def _beamform_default(seed: int, work_dir: Path) -> dict:
    """The shipped default scenario, longer, with the noise keyed on the seed."""
    return {
        "argv": ["beamform", "--iterations", str(BEAMFORM_ITERATIONS), "--seed", str(seed)],
        "iterations": BEAMFORM_ITERATIONS,
        "inputs": {},
        "units": BEAMFORM_ITERATIONS,
        "unit_name": "NLMS iterations",
    }


GENERATORS = {
    "beamform_default": _beamform_default,
    "coverage_bulk": _coverage_bulk,
    "coverage_dense": _coverage_dense,
    "throughput_sweep": _throughput_sweep,
}


def make_inputs(workload: str, seed: int, work_dir: Path) -> dict:
    """Write the inputs of one workload under ``work_dir``; return its facts."""
    work_dir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](seed, work_dir)
