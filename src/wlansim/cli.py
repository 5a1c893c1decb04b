"""Command-line interface: one subcommand per simulator area.

Every output is a CSV table, and its format is decided here alone.
``_write_table`` writes each table that is a header plus an iterable of
rows through ``csv.writer``: the ``channels`` listing, ``summaries.csv``
and the ``beamform`` tables.  The ``channels`` and
``summaries.csv`` tables are the records ``channels_in`` and ``summarize``
return, as they are, under the field names of ``Channel`` and
``ApSummary``; each other table's header is stated by the command that
writes it.  ``interference.csv`` is rendered by ``_write_pairs`` instead,
a block of lines per AP: it has a row per AP pair, n(n-1)/2 for n APs,
but few distinct verdicts, so one ``csv.writer`` call per pair would be
most of the work of a dense survey.  ``throughput.csv`` is rendered by
``_write_curve``, a chunk of lines at a time: it has a row per point, up to
``MAX_CURVE_POINTS``, but at most nine distinct rates (0 and the eight
rungs), so each rate's text is made once and only the distance and SNR
are formatted per row.
Every file-producing invocation publishes through ``_publish``: outputs
move into place only once all are written, then ``manifest.json``, which
records the tool and Python versions (and numpy's, when the command loaded
it), a SHA-256 digest of the effective input configuration, the seed in
effect, a timestamp, the output list and each output's SHA-256.  A failed
run leaves no partial set.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 internal error (a
bug in wlansim).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from functools import partial
from itertools import chain, islice, repeat
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

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

# Throughput curve rows rendered per write.
CURVE_CHUNK_ROWS = 4096

# Floor for dB conversion of zero-magnitude spectrum bins.
MAG_FLOOR = 1e-15

# A header, such as a NamedTuple's ``_fields``, and its rows, which may be
# produced lazily while they are written.
Table = tuple[Sequence[str], Iterable[Sequence]]


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 16):
            h.update(chunk)
    return h.hexdigest()


def _write_table(out: IO[str], table: Table) -> None:
    """Write one table as CSV: its header line, then one line per row."""
    header, rows = table
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)


class _Texts(dict):
    """Key -> ``fmt % key``, made on first use: the text of one verdict or
    one rate in its table's lines."""

    def __init__(self, fmt: str) -> None:
        super().__init__()
        self.fmt = fmt

    def __missing__(self, key) -> str:
        text = self[key] = self.fmt % key
        return text


def _write_pairs(out: IO[str], blocks: Iterable[tuple[str, list[tuple[str, Verdict]]]]) -> None:
    """Write the interference table, the blocks ``interference_report``
    yields, as ``csv.writer``'s default dialect would: its header line,
    then one line per AP pair.

    Each distinct verdict's text is made once and each AP's block is
    written in one call.  No field needs quoting: every bssid passed
    ``survey._MAC_RE`` when its log was parsed, so it holds no comma,
    quote, CR or LF, and a verdict's fields are Python numbers, whose
    ``str``, which ``%s`` calls, is what ``csv.writer`` writes for them.
    """
    out.write(",".join(["bssid_a", "bssid_b", *Verdict._fields]) + "\r\n")
    tails = _Texts(",%s,%s,%s\r\n")  # a Verdict is the tuple of its fields
    for a, block in blocks:
        out.write("".join([f"{a},{b}{tails[verdict]}" for b, verdict in block]))


def _write_curve(out: IO[str], rows: Iterable[tuple[float, float, float]]) -> None:
    """Write the throughput table, the ``(distance_m, rate_mbps, snr_db)``
    rows ``throughput_vs_distance`` yields, as ``csv.writer``'s default
    dialect would: its header line, then one line per row.

    Each distinct rate's text is made once, and ``CURVE_CHUNK_ROWS`` lines
    are joined per write.  No field needs quoting: every field is a Python
    float, whose ``str`` is the ``repr`` ``csv.writer`` writes and holds no
    comma, quote, CR or LF; ``%s`` calls that ``str`` directly, where an
    f-string's ``float.__format__`` took ~15 % longer.  A rate's text is
    made from the first rate equal to it, so a -0.0 after a 0.0 would read
    0.0; the curve's rates are 0.0 and the positive rungs.
    """
    out.write("distance_m,rate_mbps,snr_db\r\n")
    rates = _Texts(",%s,")
    rows = iter(rows)  # islice of a list would start over at each chunk
    while chunk := [
        "%s%s%s\r\n" % (d, rates[rate], snr) for d, rate, snr in islice(rows, CURVE_CHUNK_ROWS)
    ]:
        out.write("".join(chunk))


def _publish(out_arg: str | None, outputs: dict[str, Callable[[IO[str]], None]], config: dict) -> None:
    """Write each output by calling its writer with the file open, then
    ``manifest.json``, into the output directory.

    Outputs go to ``.<name>.tmp`` first.  The old manifest is removed before
    any output is replaced and the new one is moved in last, so a manifest
    always describes the files beside it."""
    out_dir = Path(out_arg or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    temps = {name: out_dir / f".{name}.tmp" for name in [*outputs, "manifest.json"]}
    try:
        for name, write in outputs.items():
            with open(temps[name], "w", encoding="utf-8", newline="") as f:
                write(f)
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
        print(overlap_fraction(a, b))
        return EXIT_OK
    _write_table(sys.stdout, (Channel._fields, channels_in(args.plan)))
    return EXIT_OK


def cmd_beamform(args: argparse.Namespace) -> int:
    # Imported here, not at module level: numpy costs every other command ~0.13 s and ~13 MB.
    from . import nlms
    from .arrays import ROLE_DESIRED, WAVEFORM_SINUSOID, array_pattern, gain_db, load_scenario
    from .spectrum import dft_magnitude, suppression_report

    # Flags go into the scenario before it is checked, so they pass the file's checks.
    overrides = {"iterations": args.iterations, "seed": args.seed}
    scenario = load_scenario(args.scenario, **{k: v for k, v in overrides.items() if v is not None})

    trace = nlms.run(scenario)

    spacing = scenario.spacing_wavelengths
    grid = [(-math.pi / 2) + k * math.pi / (PATTERN_GRID_POINTS - 1) for k in range(PATTERN_GRID_POINTS)]
    pattern = array_pattern(trace.converged_weights, spacing, grid)

    size = min(SPECTRUM_SIZE, scenario.iterations)
    # "Before" is the raw element-0 input; "after" the adapted array output.
    before = dft_magnitude(trace.first_element_input[-size:], size)
    after = dft_magnitude(trace.outputs[-size:], size)

    final_err = float(trace.error_power[-nlms.final_tenth(scenario.iterations):].mean())
    fields = [("final_error_power", final_err, ".6e")]

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

    n_iter = trace.iterations
    # Converted a chunk at a time: whole-column lists would hold three
    # Python floats per iteration at once.
    chunks = (slice(start, start + nlms.CHUNK_ROWS) for start in range(0, n_iter, nlms.CHUNK_ROWS))
    trace_rows = chain.from_iterable(
        zip(
            range(n_iter)[rows],
            trace.error_power[rows].tolist(),
            trace.outputs[rows].real.tolist(),
            trace.outputs[rows].imag.tolist(),
        )
        for rows in chunks
    )
    weight_rows = chain.from_iterable(
        zip(repeat(n), range(len(w)), w.real.tolist(), w.imag.tolist()) for n, w in trace.weight_snapshots
    )

    def spectrum(mags):  # bin k is normalized frequency k / size
        rows = ((k / size, m, 20.0 * math.log10(max(m, MAG_FLOOR))) for k, m in enumerate(mags))
        return ["normalized_freq", "magnitude", "magnitude_db"], rows

    # Published only now, so a rejected, diverged or failed run leaves no directory.
    tables = {
        "trace.csv": (["n", "error_power", "output_re", "output_im"], trace_rows),
        "weights.csv": (["n", "element", "re", "im"], weight_rows),
        "pattern.csv": (["angle_rad", "gain_db"], pattern),
        "spectrum_before.csv": spectrum(before),
        "spectrum_after.csv": spectrum(after),
    }
    outputs = {name: partial(_write_table, table=table) for name, table in tables.items()}
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
    # spoil a CSV header's first name.
    with open(log_path, "r", encoding="utf-8-sig") as f:
        records, errors = parse_log(f, args.format)
    print(f"parsed {len(records)} records, {len(errors)} malformed lines")
    for lineno, message in errors:
        print(f"  line {lineno}: {message}", file=sys.stderr)

    summaries = summarize(records, ap_position=ap_position)
    # Freed here, not at return: the records are most of the memory, and the
    # pair stream and the CSV writes would otherwise add to them.
    del records
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
        "summaries.csv": partial(_write_table, table=(ApSummary._fields, summaries)),
        "interference.csv": partial(_write_pairs, blocks=pair_blocks),
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
    _publish(args.out, {"throughput.csv": partial(_write_curve, rows=chain([first_row], rows))}, options)
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
