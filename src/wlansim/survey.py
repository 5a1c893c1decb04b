"""Survey-log ingestion, per-AP aggregation, and path-loss fitting.

Input logs carry one row per RSSI sample: timestamp, AP MAC, SSID,
channel, signal strength and GPS position.  Two formats are accepted:

* CSV with fixed column order ``t,bssid,ssid,channel,rssi_dbm,lat,lon``
  (a header row with exactly those names is skipped);
* KML documents whose Placemarks hold a Point plus the same fields as
  ExtendedData entries (``bssid``, ``ssid``, ``channel``, ``rssi_dbm``),
  with the timestamp in the Placemark's TimeStamp/when element.

Parsing is best effort: malformed lines are reported with their line
number and never abort the run.
"""

from __future__ import annotations

import csv
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .channels import Plan, channel_by_id, overlap_fraction, plan_channels
from .propagation import EARTH_RADIUS_M, GeoPoint, haversine_distance

CSV_COLUMNS = ["t", "bssid", "ssid", "channel", "rssi_dbm", "lat", "lon"]

_MAC_RE = re.compile(r"^[0-9A-Fa-f]{2}(:[0-9A-Fa-f]{2}){5}$")

_KNOWN_CHANNEL_IDS = {c.id for p in Plan for c in plan_channels(p)}

RSSI_MIN_DBM = -120.0
RSSI_MAX_DBM = 0.0

LOW_CONFIDENCE_COUNT = 5
DEFAULT_COVERAGE_THRESHOLD_DBM = -80.0
GRID_M = 1.0


@dataclass(frozen=True)
class MeasurementRecord:
    """One survey sample."""

    t: str
    bssid: str
    ssid: str
    channel_id: int
    rssi_dbm: float
    pos: GeoPoint

    def __post_init__(self) -> None:
        if not _MAC_RE.match(self.bssid):
            raise ValueError(f"invalid MAC address {self.bssid!r}")
        if not RSSI_MIN_DBM <= self.rssi_dbm <= RSSI_MAX_DBM:
            raise ValueError(
                f"rssi {self.rssi_dbm} dBm outside [{RSSI_MIN_DBM}, {RSSI_MAX_DBM}]"
            )
        if self.channel_id not in _KNOWN_CHANNEL_IDS:
            raise ValueError(f"channel {self.channel_id} not in any known plan")


@dataclass(frozen=True)
class ApSummary:
    """RSSI statistics for one AP at one quantized survey location."""

    bssid: str
    ssid: str
    channel_id: int
    cell: tuple[int, int]
    latitude: float
    longitude: float
    mean_rssi_dbm: float
    stddev_rssi_dbm: float
    count: int
    low_confidence: bool
    distance_m: float | None = None


@dataclass(frozen=True)
class FitResult:
    """Least-squares path-loss fit: loss = reference + 10*exponent*log10(d)."""

    exponent: float
    reference_loss_db: float
    residual_rms_db: float
    sample_count: int


@dataclass(frozen=True)
class InterferencePair:
    """Channel overlap and geographic co-location verdict for an AP pair."""

    bssid_a: str
    bssid_b: str
    overlap: float
    co_located: bool

    @property
    def interferes(self) -> bool:
        return self.overlap > 0.0 and self.co_located


def _record_from_fields(fields: dict[str, str]) -> MeasurementRecord:
    rssi_text = fields["rssi_dbm"].strip()
    if rssi_text.startswith("+"):
        raise ValueError(f"rssi {rssi_text!r} violates the [-120, 0] dBm range")
    return MeasurementRecord(
        t=fields["t"].strip(),
        bssid=fields["bssid"].strip(),
        ssid=fields["ssid"].strip(),
        channel_id=int(fields["channel"]),
        rssi_dbm=float(rssi_text),
        pos=GeoPoint(float(fields["lat"]), float(fields["lon"])),
    )


def parse_csv_log(stream: IO[str]) -> tuple[list[MeasurementRecord], list[tuple[int, str]]]:
    """Parse a CSV survey log; returns (records, per-line errors)."""
    records: list[MeasurementRecord] = []
    errors: list[tuple[int, str]] = []
    reader = csv.reader(stream)
    for lineno, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if lineno == 1 and [c.strip().lower() for c in row] == CSV_COLUMNS:
            continue
        if len(row) != len(CSV_COLUMNS):
            errors.append((lineno, f"expected {len(CSV_COLUMNS)} columns, got {len(row)}"))
            continue
        try:
            records.append(_record_from_fields(dict(zip(CSV_COLUMNS, row))))
        except (ValueError, KeyError) as exc:
            errors.append((lineno, str(exc)))
    return records, errors


def _local_tag(elem: ET.Element) -> str:
    return elem.tag.rsplit("}", 1)[-1]


def _placemark_fields(placemark: ET.Element) -> dict[str, str]:
    fields: dict[str, str] = {}
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


def parse_kml_log(stream: IO[str]) -> tuple[list[MeasurementRecord], list[tuple[int, str]]]:
    """Parse a KML survey log (Placemark points with ExtendedData fields)."""
    records: list[MeasurementRecord] = []
    errors: list[tuple[int, str]] = []
    try:
        root = ET.parse(stream).getroot()
    except ET.ParseError as exc:
        raise ValueError(f"not a parseable KML document: {exc}") from exc
    placemarks = [e for e in root.iter() if _local_tag(e) == "Placemark"]
    for idx, placemark in enumerate(placemarks, start=1):
        fields = _placemark_fields(placemark)
        fields.setdefault("t", "")
        missing = [k for k in ("bssid", "ssid", "channel", "rssi_dbm", "lat", "lon") if k not in fields]
        if missing:
            errors.append((idx, f"placemark missing fields: {', '.join(missing)}"))
            continue
        try:
            records.append(_record_from_fields(fields))
        except ValueError as exc:
            errors.append((idx, str(exc)))
    return records, errors


def parse_log(
    stream: IO[str], fmt: str
) -> tuple[list[MeasurementRecord], list[tuple[int, str]]]:
    """Parse a survey log in the given format ("csv" or "kml").

    Raises:
        ValueError: for an unknown format or when no line parses at all.
    """
    fmt = fmt.lower()
    if fmt == "csv":
        records, errors = parse_csv_log(stream)
    elif fmt == "kml":
        records, errors = parse_kml_log(stream)
    else:
        raise ValueError(f"unknown log format {fmt!r} (expected 'csv' or 'kml')")
    if not records:
        raise ValueError("no valid measurement records in input")
    return records, errors


def location_cell(pos: GeoPoint) -> tuple[int, int]:
    """Quantize a position to a cell of the local ``GRID_M`` metric grid.

    Equirectangular projection: adequate for survey-scale extents and
    independent of input order.
    """
    y = EARTH_RADIUS_M * math.radians(pos.latitude)
    x = EARTH_RADIUS_M * math.radians(pos.longitude) * math.cos(math.radians(pos.latitude))
    return (math.floor(x / GRID_M), math.floor(y / GRID_M))


def summarize(
    records: Sequence[MeasurementRecord],
    ap_position: GeoPoint | None = None,
) -> list[ApSummary]:
    """Aggregate records into per-(AP, location-cell) RSSI statistics.

    Groups with fewer than 5 samples are flagged low-confidence.  When
    ``ap_position`` is given, each summary carries the great-circle
    distance from the AP to the group's mean position.
    """
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple[str, tuple[int, int]], list[MeasurementRecord]] = {}
    for rec in records:
        groups.setdefault((rec.bssid, location_cell(rec.pos)), []).append(rec)

    summaries = []
    for (bssid, cell), members in sorted(groups.items()):
        # Canonical member order keeps float sums permutation-invariant.
        members.sort(key=lambda m: (m.t, m.rssi_dbm, m.pos.latitude, m.pos.longitude))
        n = len(members)
        mean_rssi = sum(m.rssi_dbm for m in members) / n
        var = sum((m.rssi_dbm - mean_rssi) ** 2 for m in members) / n
        lat = sum(m.pos.latitude for m in members) / n
        lon = sum(m.pos.longitude for m in members) / n
        distance = None
        if ap_position is not None:
            distance = haversine_distance(ap_position, GeoPoint(lat, lon))
        summaries.append(
            ApSummary(
                bssid=bssid,
                ssid=members[0].ssid,
                channel_id=members[0].channel_id,
                cell=cell,
                latitude=lat,
                longitude=lon,
                mean_rssi_dbm=mean_rssi,
                stddev_rssi_dbm=math.sqrt(var),
                count=n,
                low_confidence=n < LOW_CONFIDENCE_COUNT,
                distance_m=distance,
            )
        )
    return summaries


def fit_path_loss(
    points: Sequence[tuple[float, float]], tx_eirp_dbm: float
) -> FitResult:
    """Fit a log-distance model to (distance_m, mean_rssi_dbm) points.

    Ordinary least squares of observed loss (EIRP minus RSSI) against
    ``10*log10(distance)`` via the closed-form normal equations.

    Raises:
        ValueError: with fewer than two distinct positive distances, or a
            non-finite EIRP.
    """
    if not math.isfinite(tx_eirp_dbm):
        raise ValueError(f"tx_eirp_dbm must be finite, got {tx_eirp_dbm}")
    if len(points) < 2:
        raise ValueError("need at least two points to fit")
    if any(d <= 0 for d, _ in points):
        raise ValueError("distances must be positive")
    xs = [10.0 * math.log10(d) for d, _ in points]
    ys = [tx_eirp_dbm - rssi for _, rssi in points]
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
        reference_loss_db=reference,
        residual_rms_db=rms,
        sample_count=n,
    )


def interference_report(
    summaries: Sequence[ApSummary],
    coverage_threshold_dbm: float = DEFAULT_COVERAGE_THRESHOLD_DBM,
) -> list[InterferencePair]:
    """Pairwise channel overlap and co-location across the surveyed APs.

    An AP's coverage region is the set of cells where its mean RSSI meets
    the threshold; two APs are co-located when those regions intersect.
    Each AP's plan follows from its channel id; a pair of APs in different
    plans has overlap 0.

    Raises:
        ValueError: for a non-finite coverage threshold.
    """
    if not math.isfinite(coverage_threshold_dbm):
        raise ValueError(f"coverage_threshold_dbm must be finite, got {coverage_threshold_dbm}")
    cells: dict[str, set[tuple[int, int]]] = {}
    counts: dict[str, dict[int, int]] = {}
    for s in summaries:
        cells.setdefault(s.bssid, set())
        if s.mean_rssi_dbm >= coverage_threshold_dbm:
            cells[s.bssid].add(s.cell)
        counts.setdefault(s.bssid, {}).setdefault(s.channel_id, 0)
        counts[s.bssid][s.channel_id] += 1
    # Channel per AP: the most common value across its groups, smallest id on ties.
    channels = {
        bssid: channel_by_id(min(by_channel, key=lambda cid: (-by_channel[cid], cid)))
        for bssid, by_channel in counts.items()
    }

    pairs = []
    bssids = sorted(cells)
    for i, a in enumerate(bssids):
        ca = channels[a]
        for b in bssids[i + 1 :]:
            cb = channels[b]
            overlap = overlap_fraction(ca, cb) if ca.plan is cb.plan else 0.0
            pairs.append(
                InterferencePair(
                    bssid_a=a,
                    bssid_b=b,
                    overlap=overlap,
                    co_located=bool(cells[a] & cells[b]),
                )
            )
    return pairs


def summaries_to_csv(summaries: Iterable[ApSummary], out: IO[str]) -> None:
    """Write summaries as CSV, one row per (AP, location cell)."""
    writer = csv.writer(out)
    writer.writerow(
        [
            "bssid", "ssid", "channel", "cell_x", "cell_y", "lat", "lon",
            "mean_rssi_dbm", "stddev_rssi_dbm", "count", "low_confidence",
            "distance_m",
        ]
    )
    for s in summaries:
        writer.writerow(
            [
                s.bssid, s.ssid, s.channel_id, s.cell[0], s.cell[1],
                s.latitude, s.longitude, s.mean_rssi_dbm, s.stddev_rssi_dbm,
                s.count, int(s.low_confidence),
                "" if s.distance_m is None else s.distance_m,
            ]
        )


def interference_to_csv(pairs: Iterable[InterferencePair], out: IO[str]) -> None:
    """Write the pairwise interference report as CSV."""
    writer = csv.writer(out)
    writer.writerow(["bssid_a", "bssid_b", "overlap", "co_located", "interferes"])
    for p in pairs:
        writer.writerow([p.bssid_a, p.bssid_b, p.overlap, int(p.co_located), int(p.interferes)])
