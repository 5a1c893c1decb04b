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
texts.  A log is a text stream with ``read``, such as a file opened with
``newline=""``: CSV is read by line and KML in blocks.  Parsing is best
effort: a malformed sample is reported with the physical line where its
CSV record or KML placemark starts, and never aborts the run.
"""

from __future__ import annotations

import csv
import math
import re
from itertools import chain
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .channels import channel_by_id, overlap_fraction
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


def _record_from_fields(fields: Sequence[str], texts: dict[str, str], rssis: dict[str, float]) -> Record:
    """Check one sample's seven field texts and build its record.

    The one place a sample is checked.  A sample with several faults is
    reported by the first check it fails, so the order below is output.
    ``texts`` and ``rssis`` map a stripped text to the one ``str`` or
    ``float`` that the log's records share for it.
    """
    t, bssid, ssid, channel, rssi_text, lat_text, lon_text = fields
    rssi_text = rssi_text.strip()
    if rssi_text.startswith("+"):
        raise ValueError(f"rssi {rssi_text!r} violates the [{RSSI_MIN_DBM:g}, {RSSI_MAX_DBM:g}] dBm range")
    bssid = bssid.strip()
    channel_id = int(channel)
    rssi_dbm = rssis.setdefault(rssi_text, float(rssi_text))
    lat = float(lat_text)
    lon = float(lon_text)
    check_position(lat, lon)
    if not _MAC_RE.match(bssid):
        raise ValueError(f"invalid MAC address {bssid!r}")
    if not RSSI_MIN_DBM <= rssi_dbm <= RSSI_MAX_DBM:
        raise ValueError(f"rssi {rssi_dbm} dBm outside [{RSSI_MIN_DBM}, {RSSI_MAX_DBM}]")
    channel_by_id(channel_id)  # refuses an id in no known plan
    t = t.strip()
    ssid = ssid.strip()
    share = texts.setdefault
    return (share(t, t), share(bssid, bssid), share(ssid, ssid), channel_id, rssi_dbm, lat, lon)


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


def _kml_rows(stream: IO[str]) -> Rows:
    """Placemarks, each at the line where its start tag starts, as expat
    reports it.  Expat handlers read the text stream in one pass, fed in
    blocks from its ``read``.  A field is taken as its element closes (a
    ``value`` in a ``Data``, a ``when``, ``coordinates``) into the innermost
    open placemark, which gives its fields to the one enclosing it as it
    closes: the last field element to close wins.  Time is linear in the
    document, and memory in its nesting depth, its longest text and one block."""
    from xml.parsers.expat import ExpatError, ParserCreate  # here, so CSV runs do not load the XML parser

    parser = ParserCreate(namespace_separator="}")
    tags: dict[str, str] = {}  # expat name -> its local part, the tag after any namespace
    # Each stack's first entry is the document's own: it takes what lies outside any placemark, unread.
    placemarks: list[tuple[int, dict[str, str]]] = [(0, {})]  # (start line, fields) per open placemark
    data_names: list[str | None] = [None]  # per open element: its name attribute if it is a Data
    texts: list[str] = []  # the character data since the last tag
    rows: list[tuple[int, Sequence[str] | str]] = []  # those closed while the current block is fed

    def start(name: str, attrs: dict[str, str]) -> None:
        texts.clear()
        tag = tags.get(name) or tags.setdefault(name, name.rsplit("}", 1)[-1])
        data_names.append(attrs.get("name") if tag == "Data" else None)
        if tag == "Placemark":
            placemarks.append((parser.CurrentLineNumber, {}))

    def end(name: str) -> None:
        tag = tags[name]
        data_names.pop()
        text = "".join(texts)  # <value/> and <when/> hold "", as an empty CSV field does
        texts.clear()
        at, fields = placemarks[-1]
        if tag == "value" and data_names[-1] in CSV_COLUMNS:
            fields[data_names[-1]] = text
        elif tag == "when":
            fields["t"] = text
        elif tag == "coordinates" and len(parts := text.strip().split(",")) >= 2:
            fields["lon"], fields["lat"] = parts[:2]
        elif tag == "Placemark":
            placemarks.pop()
            placemarks[-1][1].update(fields)
            missing = ", ".join(k for k in CSV_COLUMNS if k not in fields)
            rows.append((at, f"placemark missing fields: {missing}" if missing else [fields[k] for k in CSV_COLUMNS]))

    def default(data: str) -> None:
        # An entity reference that expat leaves unexpanded (one under an external DTD subset,
        # or a declared external one), named by its first 100 bytes, as ElementTree names it.
        if data.startswith("&"):
            entity = data.encode()[:100].decode(errors="replace")
            position = f"line {parser.CurrentLineNumber}, column {parser.CurrentColumnNumber}"
            raise ExpatError(f"undefined entity {entity}: {position}")

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = texts.append
    parser.DefaultHandlerExpand = default
    try:
        # The "" after the last block closes the document.
        for block in chain(iter(lambda: stream.read(1 << 16), ""), [""]):
            try:
                parser.Parse(block, not block)
            finally:  # so a block's rows come before its error
                yield from rows
                rows.clear()
    except ExpatError as exc:
        raise ValueError(f"not a parseable KML document: {exc}") from exc


# Log format name -> its row reader; the one list of accepted formats.
LOG_FORMATS = {"csv": _csv_rows, "kml": _kml_rows}


def parse_log(stream: IO[str], fmt: str) -> tuple[Iterator[Record], list[tuple[int, str]]]:
    """Parse a survey log in the given format, a key of ``LOG_FORMATS``,
    into a lazy stream of records and a list of skipped samples.

    ``stream``, a text stream with ``read``, is read as the records are,
    and each skipped sample's ``(line, message)`` is appended to the list
    as the records pass it, so the list is complete once the records are
    exhausted.  The records of one log share one object per distinct
    text: every record with the same ``t``, ``bssid`` or ``ssid`` text
    holds the same ``str``, and the same RSSI text the same ``float``.

    Raises, from the record stream as it is read:
        ValueError: for an unparseable KML document, or the stream's own
            ``UnicodeDecodeError``.
    """
    rows = LOG_FORMATS[fmt](stream)
    errors: list[tuple[int, str]] = []

    def records() -> Iterator[Record]:
        # A t text can equal an RSSI text, so the floats have their own memo.
        texts: dict[str, str] = {}
        rssis: dict[str, float] = {}
        for lineno, fields in rows:
            if isinstance(fields, str):
                errors.append((lineno, fields))
                continue
            try:
                record = _record_from_fields(fields, texts, rssis)
            except ValueError as exc:
                errors.append((lineno, str(exc)))
                continue
            yield record

    return records(), errors


def summarize(
    records: Iterable[Record],
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

    ``records`` is read once, so it may be the stream ``parse_log``
    returns.  A group keeps only what its summary needs: its least
    record and each member's RSSI, latitude and longitude, not the
    member records.  Each group is freed as its summary is made.
    """
    radians, cos, floor, fsum = math.radians, math.cos, math.floor, math.fsum
    # AP -> cell -> [least record, rssi, lat, lon, rssi, lat, lon, ...]:
    # the groups then sort by AP and cell apart, which is cheaper than
    # sorting (AP, cell) keys.
    groups: dict[str, dict[tuple[int, int], list]] = {}
    for rec in records:
        _, bssid, _, _, rssi, lat, lon = rec
        phi = radians(lat)
        y = EARTH_RADIUS_M * phi
        x = EARTH_RADIUS_M * radians(lon) * cos(phi)
        cell = (floor(x / GRID_M), floor(y / GRID_M))
        cells = groups.get(bssid)
        if cells is None:
            cells = groups[bssid] = {}
        group = cells.get(cell)
        if group is None:
            cells[cell] = [rec, rssi, lat, lon]
        else:
            # Equal records differ in no field, so which of them is kept does not matter.
            if rec < group[0]:
                group[0] = rec
            group += (rssi, lat, lon)

    summaries = []
    for bssid in sorted(groups):
        cells = groups.pop(bssid)
        for cell in sorted(cells):
            group = cells.pop(cell)
            _, _, ssid, channel_id, *_ = group[0]
            rssis = group[1::3]
            n = len(rssis)
            mean_rssi = fsum(rssis) / n
            # A product, not ** 2, which calls libm pow.
            var = fsum([(r - mean_rssi) * (r - mean_rssi) for r in rssis]) / n
            lat = fsum(group[2::3]) / n
            lon = fsum(group[3::3]) / n
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
    cannot overflow the sums.  Each sum is a correctly rounded ``math.fsum``,
    so the fit depends on neither the points' order nor the Python version.

    Raises:
        ValueError: with fewer than two points, or when every distance is
            the same.
    """
    if len(points) < 2:
        raise ValueError("need at least two points to fit")
    xs = [10.0 * math.log10(d) for d, _ in points]
    ys = [-rssi for _, rssi in points]
    n = len(points)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    # A product, not ** 2, which calls libm pow.
    sxx = math.fsum([(x - mean_x) * (x - mean_x) for x in xs])
    if sxx == 0.0:
        raise ValueError("all distances equal; fit is degenerate")
    sxy = math.fsum([(x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)])
    exponent = sxy / sxx
    reference = mean_y - exponent * mean_x
    residuals = [y - (reference + exponent * x) for x, y in zip(xs, ys)]
    rms = math.sqrt(math.fsum([r * r for r in residuals]) / n)
    return FitResult(
        exponent=exponent,
        reference_loss_db=reference + tx_eirp_dbm,
        residual_rms_db=rms,
        sample_count=n,
    )


def interference_report(
    summaries: Sequence[ApSummary], coverage_threshold_dbm: float
) -> Iterator[tuple[str, list[str], list[Verdict]]]:
    """Pairwise channel overlap and co-location across the surveyed APs,
    as a lazy stream of one block per AP in bssid order: ``(bssid_a,
    later, verdicts)``, where ``later`` lists every bssid after
    ``bssid_a`` and ``verdicts[k]`` is the verdict of the pair ``(bssid_a,
    later[k])``.  Every per-AP and per-channel table is built before the
    stream is returned.

    An AP's coverage region is the set of cells where its mean RSSI meets
    the threshold, which is finite; two APs are co-located when those
    regions intersect.  A pair of APs in different plans, valid in a
    mixed-band survey, has overlap 0, as ``overlap_fraction`` gives it.

    A pair's verdict follows from the two channel ids and co-location
    alone, so the at most 2k² verdicts of k channels in use are built once
    and shared.  For each channel in use, two rows hold its verdict with
    every AP, in bssid order: when apart and when co-located.  Co-location
    comes from a cell -> APs index whose sets of APs are the bits of an
    integer, one bit per AP.  The APs near ``bssid_a``, those sharing one
    of its covered cells, are the union of its cells' sets: one integer OR
    per cell, however many APs share it.  A block's verdicts are a slice
    of its channel's "apart" row with the "co-located" entry copied in at
    each later AP near ``bssid_a``, so only co-located pairs take a Python
    step.  A block is built when it is reached and dropped with it, so
    memory stays O(APs) per channel in use beside the index.
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
    bssids = sorted(cells)
    ap_channels = [channels[b] for b in bssids]
    in_use = [channel_by_id(cid) for cid in set(ap_channels)]
    # channel_a -> (its verdict with each AP when apart, ... when co-located).
    rows: dict[int, tuple[list[Verdict], list[Verdict]]] = {}
    for a in in_use:
        apart, close = {}, {}
        for b in in_use:
            fraction = overlap_fraction(a, b)
            apart[b.id] = Verdict(fraction, 0, 0)
            close[b.id] = Verdict(fraction, 1, int(fraction > 0.0))
        rows[a.id] = (list(map(apart.__getitem__, ap_channels)), list(map(close.__getitem__, ap_channels)))
    # cell -> the APs covering it, as a set of bits: bit j stands for bssids[j].
    covering: dict[tuple[int, int], int] = {}
    for j, bssid in enumerate(bssids):
        for cell in cells[bssid]:
            covering[cell] = covering.get(cell, 0) | 1 << j

    def blocks() -> Iterator[tuple[str, list[str], list[Verdict]]]:
        for i, a in enumerate(bssids):
            near = 0
            for cell in cells[a]:
                near |= covering[cell]
            first = i + 1
            apart, close = rows[channels[a]]
            verdicts = apart[first:]
            # Bit k of near is now later[k]; each step clears the lowest set bit.
            near >>= first
            while near:
                low = near & -near
                k = low.bit_length() - 1
                verdicts[k] = close[first + k]
                near ^= low
            yield a, bssids[first:], verdicts

    return blocks()
