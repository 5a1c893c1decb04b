"""Command-line interface: one subcommand per simulator area.

Every file-producing invocation publishes through ``_publish``: outputs
move into place only once all are written, then ``manifest.json``, which
records the tool version, a SHA-256 digest of the effective input
configuration, the seed in effect, a timestamp, the output list and each
output's SHA-256.  A failed run leaves no partial set.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import IO, Callable

import numpy as np

from . import __version__, nlms
from .arrays import (
    Scenario,
    WAVEFORM_SINUSOID,
    array_pattern,
    default_scenario,
    gain_db,
    pattern_to_csv,
)
from .channels import Band, Plan, channel_by_id, channels_to_csv, list_channels, overlap_fraction, plan_channels
from .propagation import GeoPoint, PathLossModel
from .spectrum import dft_magnitude, spectrum_to_csv, suppression_report
from .survey import (
    fit_path_loss,
    interference_report,
    interference_to_csv,
    parse_log,
    summaries_to_csv,
    summarize,
)
from .throughput import (
    PhyConfig,
    Standard,
    curve_to_csv,
    throughput_vs_distance,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTERNAL = 3

OUTPUT_DIR_ENV = "WLANSIM_OUTPUT_DIR"

SPECTRUM_SIZE = 512
PATTERN_GRID_POINTS = 721


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 16):
            h.update(chunk)
    return h.hexdigest()


def _publish(out_arg: str | None, writers: dict[str, Callable[[IO[str]], None]], config: dict) -> None:
    """Write each output, then ``manifest.json``, into the output directory.

    Outputs go to ``.<name>.tmp`` first.  The old manifest is removed before
    any output is replaced and the new one is moved in last, so a manifest
    always describes the files beside it."""
    out_dir = Path(out_arg or os.environ.get(OUTPUT_DIR_ENV) or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    temps = {name: out_dir / f".{name}.tmp" for name in [*writers, "manifest.json"]}
    try:
        for name, write in writers.items():
            with open(temps[name], "w", encoding="utf-8", newline="") as f:
                write(f)
        manifest = {
            "tool_version": __version__,
            "config_sha256": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
            "seed": config.get("seed"),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "outputs": list(writers),
            "output_sha256": {name: _sha256_file(temps[name]) for name in writers},
        }
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
    plan_arg = args.plan or "unii"
    if plan_arg == "ism24":
        chans = plan_channels(Plan.ISM24)
    elif plan_arg == "unii":
        chans = plan_channels(Plan.UNII)
    else:
        chans = list_channels(Band(plan_arg))
    channels_to_csv(chans, sys.stdout)
    return EXIT_OK


def cmd_beamform(args: argparse.Namespace) -> int:
    scenario = Scenario.from_json_file(args.scenario) if args.scenario else default_scenario()
    if args.iterations is not None:
        scenario = replace(scenario, iterations=args.iterations)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)

    stride = max(1, scenario.iterations // 10)
    trace = nlms.run(scenario, snapshot_stride=stride)

    cfg = scenario.array
    grid = [(-math.pi / 2) + k * math.pi / (PATTERN_GRID_POINTS - 1) for k in range(PATTERN_GRID_POINTS)]
    pattern = array_pattern(trace.converged_weights, cfg, grid)

    size = min(SPECTRUM_SIZE, scenario.iterations)
    # "Before" is the raw element-0 input; "after" the adapted array output.
    before = dft_magnitude(trace.first_element_input[-size:], size)
    after = dft_magnitude(trace.outputs[-size:], size)

    final_err = float(np.mean(trace.error_power[-max(1, scenario.iterations // 10):]))
    fields = [("final_error_power", final_err, ".6e")]

    desired = scenario.desired_source()
    interferers = [s for s in scenario.sources if s.role != "desired"]
    if interferers:
        angles = [desired.angle_rad] + [s.angle_rad for s in interferers]
        gains = gain_db(trace.converged_weights, cfg, angles)
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

    # Published only now, so a rejected, diverged or failed run leaves no directory.
    writers = {
        "trace.csv": partial(nlms.trace_to_csv, trace),
        "weights.csv": partial(nlms.weights_to_csv, trace),
        "pattern.csv": partial(pattern_to_csv, pattern),
        "spectrum_before.csv": partial(spectrum_to_csv, before),
        "spectrum_after.csv": partial(spectrum_to_csv, after),
    }
    _publish(args.out, writers, scenario.to_dict())  # the effective scenario: flag overrides count

    # A field with no finite value (all-zero weights give -inf gains) is left
    # out, as an undefined plateau is.
    print(" ".join(f"{name}={value:{fmt}}" for name, value, fmt in fields if math.isfinite(value)))
    return EXIT_OK


def cmd_coverage(args: argparse.Namespace) -> int:
    ap_position = None
    if (args.ap_lat is None) != (args.ap_lon is None):
        given, missing = ("--ap-lat", "--ap-lon") if args.ap_lon is None else ("--ap-lon", "--ap-lat")
        raise ValueError(f"{given} requires {missing}")
    if args.ap_lat is not None:
        ap_position = GeoPoint(args.ap_lat, args.ap_lon)
    if args.fit and ap_position is None:
        raise ValueError("--fit requires --ap-lat and --ap-lon for distances")
    log_path = Path(args.log)
    with open(log_path, "r", encoding="utf-8") as f:
        records, errors = parse_log(f, args.format)
    print(f"parsed {len(records)} records, {len(errors)} malformed lines")
    for lineno, message in errors:
        print(f"  line {lineno}: {message}", file=sys.stderr)

    summaries = summarize(records, ap_position=ap_position)
    pairs = interference_report(summaries, coverage_threshold_dbm=args.coverage_threshold)
    fit = None
    if args.fit:
        points = [
            (s.distance_m, s.mean_rssi_dbm)
            for s in summaries
            if s.distance_m is not None and s.distance_m > 0
        ]
        fit = fit_path_loss(points, args.tx_eirp)

    # Published only now, so a rejected run leaves no directory.
    options = {k: v for k, v in vars(args).items() if k not in ("func", "out", "log")}
    writers = {"summaries.csv": partial(summaries_to_csv, summaries),
               "interference.csv": partial(interference_to_csv, pairs)}
    _publish(args.out, writers, {**options, "log_sha256": _sha256_file(log_path)})
    if fit is not None:
        print(
            f"fit: exponent={fit.exponent:.4f} reference_loss_db={fit.reference_loss_db:.2f} "
            f"residual_rms_db={fit.residual_rms_db:.2f} samples={fit.sample_count}"
        )
    return EXIT_OK


def cmd_throughput(args: argparse.Namespace) -> int:
    cfg = PhyConfig(
        standard=Standard(args.standard),
        channel_width_mhz=args.width,
        spatial_streams=args.streams,
    )
    model = PathLossModel.free_space(args.frequency)
    if args.exponent is not None:
        model = PathLossModel(model.reference_loss_db, args.exponent, args.frequency)
    distances = [args.min_distance + k * args.step for k in range(args.points)]
    curve = throughput_vs_distance(cfg, model, args.tx_eirp, distances)

    options = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    _publish(args.out, {"throughput.csv": partial(curve_to_csv, curve)}, options)
    print(f"cap_mbps={max(r for _, r in curve)}")
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
        default=None,
        choices=["ism24", "unii", "unii_a", "unii_b", "unii_c"],
        help="channel plan or sub-band to list (default: unii)",
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
    p.add_argument("--out", help=f"output directory (default: ${OUTPUT_DIR_ENV} or .)")
    p.add_argument("--iterations", type=int, help="override the scenario iteration count")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(func=cmd_beamform)

    p = sub.add_parser("coverage", help="ingest a survey log and report coverage/interference")
    p.add_argument("log", help="survey log file")
    p.add_argument("--format", default="csv", choices=["csv", "kml"])
    p.add_argument("--out", help=f"output directory (default: ${OUTPUT_DIR_ENV} or .)")
    p.add_argument("--coverage-threshold", type=float, default=-80.0,
                   help="RSSI threshold (dBm) defining an AP's coverage region")
    p.add_argument("--ap-lat", type=float, help="AP latitude for distance computation")
    p.add_argument("--ap-lon", type=float, help="AP longitude for distance computation")
    p.add_argument("--fit", action="store_true", help="fit a path-loss exponent to the summaries")
    p.add_argument("--tx-eirp", type=float, default=20.0, help="transmit EIRP (dBm) for the fit")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("throughput", help="export a throughput-vs-distance curve")
    p.add_argument("--standard", default="ac", choices=["n", "ac"])
    p.add_argument("--streams", type=int, default=3)
    p.add_argument("--width", type=int, default=20, help="channel width in MHz")
    p.add_argument("--tx-eirp", type=float, default=20.0)
    p.add_argument("--frequency", type=float, default=5e9, help="carrier frequency in Hz")
    p.add_argument("--exponent", type=float, help="path-loss exponent (default: free space)")
    p.add_argument("--min-distance", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--points", type=int, default=30)
    p.add_argument("--out", help=f"output directory (default: ${OUTPUT_DIR_ENV} or .)")
    p.set_defaults(func=cmd_throughput)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
