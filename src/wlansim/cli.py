"""Command-line interface: one subcommand per simulator area.

Every output is a CSV table, byte for byte as ``csv.writer`` would write
it, and its format is decided here alone: a table is its header and its
rendered texts, each field rendered with ``%s``.  Only an SSID is free
text, which ``_csv_field`` quotes by csv's minimal rule; every other field
is a number or a text with no comma, quote, CR or LF, such as a band name
or a checked MAC address.  ``_plain_lines`` renders the ``channels``
listing and the ``beamform`` tables, and ``_summary_lines``
``summaries.csv``.  ``interference.csv`` has a row per AP pair and
``throughput.csv`` a row per point, but few distinct verdicts and rates,
so ``_pair_lines`` and ``_curve_lines`` make each one's text once.
Every file-producing invocation publishes through ``_publish``, which
writes each table through ``_write_lines``, one rendered text per write.
Outputs move into place only once all are written, then ``manifest.json``,
which records the tool and Python versions (and numpy's, when the command
loaded it), a SHA-256 digest of the effective input configuration, the
seed in effect, a timestamp, the output list and each output's SHA-256.
A failed run leaves no half-written set.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 internal error (a
bug in wlansim).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import chain, repeat
from operator import add
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

from . import __version__
from .channels import BAND_PLAN, Channel, channel_by_id, channels_in, overlap_fraction
from .propagation import check_position, friis_path_loss
from .survey import (
    DEFAULT_COVERAGE_THRESHOLD_DBM,
    LOG_FORMATS,
    ApSummary,
    Verdict,
    fit_path_loss,
    interference_report,
    parse_log,
    summarize,
)
from .throughput import WIDTHS_MHZ, throughput_vs_distance

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTERNAL = 3

SPECTRUM_SIZE = 512
PATTERN_GRID_POINTS = 721

# Upper bound of throughput --points: a larger curve would only fill the disk.
MAX_CURVE_POINTS = 10**6

# Floor for dB conversion of zero-magnitude spectrum bins.
MAG_FLOOR = 1e-15

# A header, such as a NamedTuple's ``_fields``, and its rendered texts:
# lines, or one block per AP for ``interference.csv``, which may be
# produced lazily while they are written.
Table = tuple[Sequence[str], Iterable]


def _sha256_file(path: Path) -> str:
    import hashlib  # not at module level: see _publish
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 16):
            h.update(chunk)
    return h.hexdigest()


def _undecodable_line(path: Path, exc: UnicodeDecodeError) -> str:
    """The first line of ``path`` that is not UTF-8, and why: ``exc`` counts
    its position from a decoder chunk.  Latin-1 maps each byte to one
    character and splits lines as the log readers count them, and a line
    break never lies inside a UTF-8 sequence, so each line decodes alone."""
    with open(path, encoding="latin-1") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError as bad:
                return f"line {lineno}: can't decode byte 0x{bad.object[bad.start]:02x}: {bad.reason}"
    return str(exc)  # the file changed since it was read


def _write_lines(out: IO[str], table: Table) -> None:
    """Write a header line, then each rendered text as it is made."""
    header, lines = table
    out.write(",".join(header) + "\r\n")
    for text in lines:
        out.write(text)


def _plain_lines(header: Sequence[str], rows: Iterable[Sequence]) -> Table:
    """``header`` and ``rows`` as ``_write_lines`` takes them, each field
    rendered by ``%s``, which calls the ``str`` that ``csv.writer`` writes."""
    return header, map((",".join(["%s"] * len(header)) + "\r\n").__mod__, rows)


class _Texts(dict):
    """Key -> ``render(key)``, made on first use: the text of one verdict,
    one rate or one SSID in its table's lines."""

    def __init__(self, render: Callable[[object], str]) -> None:
        super().__init__()
        self.render = render

    def __missing__(self, key) -> str:
        text = self[key] = self.render(key)
        return text


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field by its minimal rule:
    quoted, with every quote doubled, only if it holds a comma, quote, CR
    or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _summary_lines(summaries: Iterable[ApSummary]) -> Iterator[str]:
    """The summaries table's lines, one per ``ApSummary``, each field
    rendered by ``%s`` as ``_plain_lines`` does, each SSID's field made
    once, and a ``None`` distance as an empty field."""
    line = ",".join(["%s"] * len(ApSummary._fields)) + "\r\n"
    ssids = _Texts(_csv_field)
    return (
        line % (bssid, ssids[ssid], *fields, "" if distance is None else distance)
        for bssid, ssid, *fields, distance in summaries
    )


def _pair_lines(blocks: Iterable[tuple[str, list[str], list[Verdict]]]) -> Iterator[str]:
    """The interference table's text, one per block ``interference_report``
    yields that has a later AP: the block's lines, one per AP pair, joined
    at C level, each verdict's text made once.  No field needs quoting:
    every bssid passed ``survey._MAC_RE`` when its log was parsed, so it
    holds no comma, quote, CR or LF, and a verdict's fields are Python
    numbers."""
    tails = _Texts(",%s,%s,%s\r\n".__mod__)  # a Verdict is the tuple of its fields
    for a, later, verdicts in blocks:
        if later:
            prefix = a + ","
            yield prefix + prefix.join(map(add, later, map(tails.__getitem__, verdicts)))


def _curve_lines(rows: Iterable[tuple[float, float, float]]) -> Iterator[str]:
    """The throughput table's lines, one per ``(distance_m, rate_mbps,
    snr_db)`` row ``throughput_vs_distance`` yields, each rate's text made
    once.  No field needs quoting: each is a Python float.  ``%s`` calls its
    ``str``, where an f-string's ``float.__format__`` took ~15 % longer.
    A rate's text is made from the first rate equal to it, so a -0.0 after
    a 0.0 would read 0.0; the curve's rates are 0.0 and the positive rungs."""
    rates = _Texts(",%s,".__mod__)
    return ("%s%s%s\r\n" % (d, rates[rate], snr) for d, rate, snr in rows)


def _publish(out_arg: str | None, outputs: dict[str, Table], config: dict) -> None:
    """Write each output table through ``_write_lines``, then
    ``manifest.json``, into the output directory.

    Outputs go to ``.<name>.tmp`` first.  The old manifest is removed before
    any output is replaced and the new one is moved in last, so a manifest
    always describes the files beside it."""
    # Not at module level: `channels` writes no file, and these take ~10 ms to import.
    import hashlib
    import json
    from datetime import datetime, timezone

    out_dir = Path(out_arg or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    temps = {name: out_dir / f".{name}.tmp" for name in [*outputs, "manifest.json"]}
    try:
        for name, table in outputs.items():
            with open(temps[name], "w", encoding="utf-8", newline="") as f:
                _write_lines(f, table)
        manifest = {
            "tool_version": __version__,
            "python_version": sys.version.split()[0],
            "config_sha256": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
            "seed": config.get("seed"),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "outputs": list(outputs),
            "output_sha256": {name: _sha256_file(temps[name]) for name in outputs},
        }
        if "numpy" in sys.modules:  # only beamform loads it
            manifest["numpy_version"] = sys.modules["numpy"].__version__
        with open(temps["manifest.json"], "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2)
            f.write("\n")
        (out_dir / "manifest.json").unlink(missing_ok=True)
        for name, temp in temps.items():
            os.replace(temp, out_dir / name)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)


def cmd_channels(args: argparse.Namespace) -> int:
    if args.overlap:
        a, b = (channel_by_id(cid) for cid in args.overlap)
        # --overlap takes two ids of one plan; overlap_fraction itself gives 0.0 across plans.
        if a.plan != b.plan:
            raise ValueError(f"cannot compare channels from different plans ({a.plan} vs {b.plan})")
        print(overlap_fraction(a, b))
        return EXIT_OK
    _write_lines(sys.stdout, _plain_lines(Channel._fields, channels_in(args.plan)))
    return EXIT_OK


def cmd_beamform(args: argparse.Namespace) -> int:
    # Imported here, not at module level: numpy costs every other command ~0.06 s and ~13.7 MB.
    from . import nlms
    from .arrays import ROLE_DESIRED, WAVEFORM_SINUSOID, array_pattern, gain_db, load_scenario, synthesize
    from .spectrum import dft_magnitude, suppression_report

    # Flags go into the scenario before it is checked, so they pass the file's checks.
    overrides = {"iterations": args.iterations, "seed": args.seed}
    scenario = load_scenario(args.scenario, **{k: v for k, v in overrides.items() if v is not None})

    trace = nlms.run(scenario)

    spacing = scenario.spacing_wavelengths
    grid = [(-math.pi / 2) + k * math.pi / (PATTERN_GRID_POINTS - 1) for k in range(PATTERN_GRID_POINTS)]
    pattern = array_pattern(trace.converged_weights, spacing, grid)

    n_iter = scenario.iterations
    size = min(SPECTRUM_SIZE, n_iter)
    # "Before" is the raw element-0 input, synthesized again: every row is
    # keyed on its sample index, so these are the inputs the run adapted
    # on.  "After" is the adapted array output.
    window = range(n_iter - size, n_iter)
    before = dft_magnitude(synthesize(scenario, window)[0][:, 0])
    after = dft_magnitude(trace.outputs[window.start : window.stop])

    fields = [("final_error_power", trace.final_error_power, ".6e")]

    desired = scenario.desired_source()
    interferers = [s for s in scenario.sources if s.role != ROLE_DESIRED]
    if interferers:
        angles = [desired.angle_rad] + [s.angle_rad for s in interferers]
        gains = gain_db(trace.converged_weights, spacing, angles)
        fields.append(("null_depth_db", gains[0] - max(gains[1:]), ".2f"))
        first = interferers[0]
        if desired.waveform == WAVEFORM_SINUSOID and first.waveform == WAVEFORM_SINUSOID:
            d_bin = round(desired.normalized_freq * size) % size
            i_bin = round(first.normalized_freq * size) % size
            if d_bin != i_bin:
                d_chg, i_chg = suppression_report(before, after, d_bin, i_bin)
                fields += [("desired_change_db", d_chg, ".2f"), ("interferer_change_db", i_chg, ".2f")]
    plateau = trace.plateau_iteration()
    if plateau is not None:
        fields.append(("plateau_iteration", plateau, "d"))

    # A memoryview yields each entry as a Python float when it is read, so
    # no column is held as Python objects.
    out = trace.outputs
    trace_rows = zip(range(n_iter), *map(memoryview, (trace.error_power, out.real, out.imag)))
    weight_rows = chain.from_iterable(
        zip(repeat(n), range(len(w)), memoryview(w.real), memoryview(w.imag)) for n, w in trace.weight_snapshots
    )

    def spectrum(mags):  # bin k is normalized frequency k / size
        rows = ((k / size, m, 20.0 * math.log10(max(m, MAG_FLOOR))) for k, m in enumerate(mags))
        return _plain_lines(["normalized_freq", "magnitude", "magnitude_db"], rows)

    # Published only now, so a rejected, diverged or failed run leaves no directory.
    outputs = {
        "trace.csv": _plain_lines(["n", "error_power", "output_re", "output_im"], trace_rows),
        "weights.csv": _plain_lines(["n", "element", "re", "im"], weight_rows),
        "pattern.csv": _plain_lines(["angle_rad", "gain_db"], pattern),
        "spectrum_before.csv": spectrum(before),
        "spectrum_after.csv": spectrum(after),
    }
    _publish(args.out, outputs, scenario.to_dict())  # the effective scenario: flag overrides count

    # A field with no finite value is left out, as an undefined plateau is:
    # all-zero weights give -inf gains, and a silent input leaves the
    # suppression changes without a reference.
    print(" ".join(f"{name}={value:{fmt}}" for name, value, fmt in fields if math.isfinite(value)))
    return EXIT_OK


def cmd_coverage(args: argparse.Namespace) -> int:
    ap_position = None
    if (args.ap_lat is None) != (args.ap_lon is None):
        given, missing = ("--ap-lat", "--ap-lon") if args.ap_lon is None else ("--ap-lon", "--ap-lat")
        raise ValueError(f"{given} requires {missing}")
    if args.ap_lat is not None:
        check_position(args.ap_lat, args.ap_lon, ("--ap-lat", "--ap-lon"))
        ap_position = (args.ap_lat, args.ap_lon)
    if args.fit and ap_position is None:
        raise ValueError("--fit requires --ap-lat and --ap-lon for distances")
    # The one check of each: fit_path_loss and interference_report take them as finite.
    if not math.isfinite(args.tx_eirp):
        raise ValueError(f"--tx-eirp: must be finite, got {args.tx_eirp}")
    if not math.isfinite(args.coverage_threshold):
        raise ValueError(f"--coverage-threshold: must be finite, got {args.coverage_threshold}")
    log_path = Path(args.log)
    # utf-8-sig drops a leading byte-order mark, which would otherwise
    # spoil a CSV header's first name.  newline="" keeps a quoted CSV
    # field's line ends, as the csv module requires; expat normalizes
    # KML's.  The records stream from the log into their groups, so no
    # list of them is ever held.
    with open(log_path, "r", encoding="utf-8-sig", newline="") as f:
        records, errors = parse_log(f, args.format)
        try:
            summaries = summarize(records, ap_position=ap_position)
        except UnicodeDecodeError as exc:
            raise ValueError(_undecodable_line(log_path, exc)) from None
    parsed = 0
    for s in summaries:  # each record is in exactly one group
        parsed += s.count
    print(f"parsed {parsed} records, {len(errors)} malformed lines")
    for lineno, message in errors:
        print(f"  line {lineno}: {message}", file=sys.stderr)
    if not parsed:  # after the reasons, so the error explains itself
        raise ValueError("no valid measurement records in input")

    pair_blocks = interference_report(summaries, args.coverage_threshold)
    fit = None
    if args.fit:
        # Points under 1 m, the model's reference distance and the survey
        # grid's cell size, are left out: a group at the AP's own position
        # can lie a rounding error away from it, and its log-distance would
        # weigh most in the fit.  --fit requires the AP position, so every
        # summary has a distance.
        points = [(s.distance_m, s.mean_rssi_dbm) for s in summaries if s.distance_m >= 1.0]
        fit = fit_path_loss(points, args.tx_eirp)

    # Published only now, so a rejected run leaves no directory.
    options = {k: v for k, v in vars(args).items() if k not in ("func", "out", "log")}
    outputs = {
        "summaries.csv": (ApSummary._fields, _summary_lines(summaries)),
        "interference.csv": (["bssid_a", "bssid_b", *Verdict._fields], _pair_lines(pair_blocks)),
    }
    _publish(args.out, outputs, {**options, "log_sha256": _sha256_file(log_path)})
    if fit is not None:
        print(
            f"fit: exponent={fit.exponent:.4f} reference_loss_db={fit.reference_loss_db:.2f} "
            f"residual_rms_db={fit.residual_rms_db:.2f} samples={fit.sample_count}"
        )
    return EXIT_OK


def cmd_throughput(args: argparse.Namespace) -> int:
    # The one check of the distance grid: with these, every min + k*step is
    # positive, finite and non-decreasing, because float rounding is monotone.
    first, step, points = args.min_distance, args.step, args.points
    if not 0 < first < math.inf:
        raise ValueError(f"--min-distance: must be positive and finite, got {first}")
    if not 0 <= step < math.inf:
        raise ValueError(f"--step: must be >= 0 and finite, got {step}")
    if not 1 <= points <= MAX_CURVE_POINTS:
        raise ValueError(f"--points: must be in [1, {MAX_CURVE_POINTS}], got {points}")
    if not math.isfinite(first + (points - 1) * step):
        raise ValueError(f"--step: the last distance {first} + {points - 1} * {step} m is not finite")
    # The one check of each link-budget flag: the library takes them as given.
    if not math.isfinite(args.tx_eirp):
        raise ValueError(f"--tx-eirp: must be finite, got {args.tx_eirp}")
    if not 0 < args.frequency < math.inf:
        raise ValueError(f"--frequency: must be positive and finite, got {args.frequency}")
    if args.exponent is not None and not 1 <= args.exponent < math.inf:
        raise ValueError(f"--exponent: must be finite and >= 1, got {args.exponent}")
    # Free space unless an exponent is given, over the Friis loss at 1 m either way.
    reference_loss_db = friis_path_loss(1.0, args.frequency)
    exponent = 2.0 if args.exponent is None else args.exponent
    rows = throughput_vs_distance(
        args.standard, args.streams, args.width, args.tx_eirp, reference_loss_db, exponent,
        first, step, points,
    )
    first_row = next(rows)  # the cap: the curve is monotone non-increasing

    options = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    curve = (["distance_m", "rate_mbps", "snr_db"], _curve_lines(chain([first_row], rows)))
    _publish(args.out, {"throughput.csv": curve}, options)
    print(f"cap_mbps={first_row[1]}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: argparse's own 2 is the I/O-error code here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wlansim",
        description="WLAN channel, propagation and adaptive-beamforming simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("channels", help="print a channel plan or one overlap fraction")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--plan",
        default="unii",
        choices=sorted({*BAND_PLAN, *BAND_PLAN.values()}),
        help="channel plan or sub-band to list (default: %(default)s)",
    )
    mode.add_argument(
        "--overlap",
        nargs=2,
        type=int,
        metavar=("A", "B"),
        help="print the overlap fraction of two channel ids of one plan",
    )
    p.set_defaults(func=cmd_channels)

    p = sub.add_parser("beamform", help="run the adaptive beamformer and export reports")
    p.add_argument("--scenario", help="scenario JSON file (default: shipped scenario)")
    p.add_argument("--out", help="output directory (default: .)")
    p.add_argument("--iterations", type=int, help="override the scenario iteration count")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(func=cmd_beamform)

    p = sub.add_parser("coverage", help="ingest a survey log and report coverage/interference")
    p.add_argument("log", help="survey log file")
    p.add_argument("--format", default="csv", choices=list(LOG_FORMATS))
    p.add_argument("--out", help="output directory (default: .)")
    p.add_argument("--coverage-threshold", type=float, default=DEFAULT_COVERAGE_THRESHOLD_DBM,
                   help="RSSI threshold (dBm) defining an AP's coverage region")
    p.add_argument("--ap-lat", type=float, help="AP latitude for distance computation")
    p.add_argument("--ap-lon", type=float, help="AP longitude for distance computation")
    p.add_argument("--fit", action="store_true", help="fit a path-loss exponent to the summaries")
    p.add_argument("--tx-eirp", type=float, default=20.0, help="transmit EIRP (dBm) for the fit")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("throughput", help="export a throughput-vs-distance curve")
    p.add_argument("--standard", default="ac", choices=list(WIDTHS_MHZ))
    p.add_argument("--streams", type=int, default=3)
    p.add_argument("--width", type=int, default=20, help="channel width in MHz")
    p.add_argument("--tx-eirp", type=float, default=20.0)
    p.add_argument("--frequency", type=float, default=5e9, help="carrier frequency in Hz")
    p.add_argument("--exponent", type=float, help="path-loss exponent (default: free space)")
    p.add_argument("--min-distance", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--points", type=int, default=30)
    p.add_argument("--out", help="output directory (default: .)")
    p.set_defaults(func=cmd_throughput)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
