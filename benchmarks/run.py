"""End-to-end and per-layer benchmark of the wlansim CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src/``.  Inputs are generated from ``--seed`` into a
temporary directory under ``.bench_tmp/`` in the checkout, and every
output goes there too (``PYTHONPYCACHEPREFIX`` keeps byte code out of
``src/``).

``--trace 0`` times fresh ``python -m wlansim.cli`` processes of one
workload, one after another (a closed loop with one client), for
``--seconds``, and reports the end-to-end metrics, each time scaled to a
reference speed measured next to it.  ``--trace 1`` runs the
traced in-process passes of ``layers.py`` over every workload and reports
the per-layer metrics.  Either way the outputs are checked, human-readable
lines name every metric with its unit, and the last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
TMP = ROOT / ".bench_tmp"

WORKLOADS = ("beamform_default", "coverage_bulk", "coverage_dense", "throughput_sweep")

# A CLI process that runs this long is stuck; it is killed and counted failed.
CHILD_TIMEOUT_S = 60.0
# The traced passes of all four workloads; keeps a run within 180 s.
LAYERS_TIMEOUT_S = 140.0
MIN_SAMPLES = 3
# The CPU's speed drifts by up to 1.7x over seconds to minutes on a shared
# host, so every timed process is scaled to a reference speed measured next
# to it.  A CLI process is scaled by a fixed pure-Python loop timed in this
# process just before and just after it: its seconds are multiplied by
# REFERENCE_CAL_S over the mean of the two loop times.  A ``--version``
# process, which is interpreter start and imports, is scaled by a bare
# interpreter that starts and imports numpy, timed just before it:
# REFERENCE_START_S over that time.  The reference times are about what
# the two take on a 2-CPU Xeon with Python 3.11 in its fast state.
CAL_ITERATIONS = 400_000
REFERENCE_CAL_S = 0.025
REFERENCE_START = ["-c", "import numpy"]
REFERENCE_START_S = 0.2

END_TO_END_UNITS = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_fraction": "fraction",
}

# Per-layer metrics, by the workload whose traced pass measures them.
# "<span>.calls" and "<span>.self_s" come from layers.SPANS; the others
# are counts the layers return, the CSV bytes written and the slowdown
# the tracing itself causes.
EVERY_WORKLOAD = [("cli.main.self_s", "s"), ("cli.output_bytes", "bytes"), ("trace.overhead_ratio", "ratio")]
LAYER_METRICS = {
    "beamform_default": [
        ("arrays.synthesize.self_s", "s"),
        ("arrays.synthesize.calls", "count"),
        ("arrays._stream_rng.calls", "count"),
        ("arrays.steering_vector.calls", "count"),
        ("arrays.Scenario.validate.calls", "count"),
        ("nlms.step.self_s", "s"),
        ("nlms.step.calls", "count"),
        ("nlms.run.self_s", "s"),
        ("arrays.array_pattern.self_s", "s"),
        ("spectrum.dft_magnitude.self_s", "s"),
        ("nlms.trace_to_csv.self_s", "s"),
        ("nlms.weights_to_csv.self_s", "s"),
        ("arrays.pattern_to_csv.self_s", "s"),
        ("spectrum.spectrum_to_csv.self_s", "s"),
    ],
    "coverage_bulk": [
        ("survey.parse_log.self_s", "s"),
        ("survey.records", "count"),
        ("survey.malformed", "count"),
        ("survey.summarize.self_s", "s"),
        ("survey.groups", "count"),
        ("survey.location_cell.calls", "count"),
        ("propagation.haversine_distance.calls", "count"),
        ("survey.fit_path_loss.self_s", "s"),
        ("survey.summaries_to_csv.self_s", "s"),
    ],
    "coverage_dense": [
        ("survey.parse_log.self_s", "s"),
        ("survey.summarize.self_s", "s"),
        ("survey.interference_report.self_s", "s"),
        ("survey.pairs", "count"),
        ("channels.channel_by_id.calls", "count"),
        ("channels.overlap_fraction.calls", "count"),
        ("survey.interference_to_csv.self_s", "s"),
    ],
    "throughput_sweep": [
        ("throughput.throughput_vs_distance.self_s", "s"),
        ("throughput.link_snr.calls", "count"),
        ("throughput.link_snr.self_s", "s"),
        ("throughput.snr_to_rate.calls", "count"),
        ("throughput.snr_to_rate.self_s", "s"),
        ("throughput.curve_to_csv.self_s", "s"),
    ],
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name, ``<workload>.<metric>``, with its unit."""
    return {
        f"{w}.{name}": unit
        for w in WORKLOADS
        for name, unit in LAYER_METRICS[w] + EVERY_WORKLOAD
    }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Byte code is cached under the checkout, never in src/, whatever the
    # caller's PYTHONDONTWRITEBYTECODE says: set-up is timed with warm caches.
    env["PYTHONPYCACHEPREFIX"] = str(TMP / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("WLANSIM_OUTPUT_DIR", None)
    return env


def spawn(cmd: list[str], run_dir: Path, timeout: float = CHILD_TIMEOUT_S) -> tuple[float, int, float]:
    """Run one child to exit; return (seconds from spawn to exit, exit code, peak RSS in MB).

    The RSS comes from ``os.wait4`` for this child alone.  Linux folds the
    spawning process's own peak into the child's at exec, so the caller
    keeps its memory small while it spawns.
    """
    run_dir.mkdir(parents=True)
    with open(run_dir / "stdout.txt", "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=run_dir, env=child_env())
        # os.kill, not proc.kill: Popen.kill would reap the child under wait4.
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def calibrate() -> float:
    """Seconds this process takes for the fixed calibration loop."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def at_reference_speed(seconds: float, cal_before: float, cal_after: float) -> float:
    return seconds * REFERENCE_CAL_S / ((cal_before + cal_after) / 2)


def reference_start(work_dir: Path) -> float:
    """Seconds a bare interpreter takes to start and import numpy."""
    elapsed, code, _ = spawn([sys.executable, *REFERENCE_START], work_dir)
    if code != 0:
        raise RuntimeError(f"reference start-up process exited {code}")
    return elapsed


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "wlansim.cli", *args]


def machine_and_code() -> dict[str, str]:
    info = {"nproc": str(os.cpu_count()), "python": sys.version.split()[0]}
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "?")
    except OSError:
        info["cpu"] = "?"
    out = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                         capture_output=True, text=True, env=child_env(), timeout=60)
    info["numpy"] = out.stdout.strip() or "?"
    head = ROOT / ".git" / "HEAD"
    commit = "not a git checkout"
    if head.exists():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.exists() else ref
    info["git_commit"] = commit
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    info["src_sha256"] = h.hexdigest()
    return info


def report_digests(workload: str, seed: int, inputs: dict, outputs: dict) -> None:
    """Print the digests and whether they match those recorded for this seed."""
    ref = json.loads((BENCH_DIR / "reference_digests.json").read_text()).get(workload, {}).get(str(seed))
    print(f"input sha256: {json.dumps(inputs, sort_keys=True)}")
    print(f"output sha256: {json.dumps(outputs, sort_keys=True)}")
    if ref is None:
        print(f"reference digests: none recorded for seed {seed}")
    else:
        print(f"reference digests: inputs {'match' if ref['inputs'] == inputs else 'DIFFER'}, "
              f"outputs {'match' if ref['outputs'] == outputs else 'DIFFER'}")


def run_end_to_end(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, int, int]:
    facts = gen.make_inputs(workload, seed, work / "inputs")
    argv = facts["argv"]
    print(f"workload {workload}: {facts['units']} {facts['unit_name']}; cli {' '.join(argv)}")

    # Untimed warm-up: fills the byte-code cache and the page cache.  Its
    # outputs are the reference every timed run must reproduce byte for
    # byte, and get the full check.
    version_code = spawn(cli("--version"), work / "version-0")[1]
    ref_dir = work / "run-0"
    _, code, _ = spawn(cli(*argv, "--out", str(ref_dir / "out")), ref_dir)
    ref = checks.output_digests(ref_dir) if code == 0 else None
    failed_runs = [0] if code != 0 else []
    if version_code != 0:
        print(f"FAILED: --version exited {version_code}")
        failed_runs.append(0)

    walls, raw_walls, rss, setups, raw_setups, cals, starts = [], [], [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_SAMPLES or time.perf_counter() < deadline:
        k = len(walls) + 1
        run_dir = work / f"run-{k}"
        cals.append(calibrate())
        wall, code, peak = spawn(cli(*argv, "--out", str(run_dir / "out")), run_dir)
        cals.append(calibrate())
        walls.append(at_reference_speed(wall, cals[-2], cals[-1]))
        raw_walls.append(wall)
        rss.append(peak)
        if code != 0 or checks.output_digests(run_dir) != ref:
            failed_runs.append(k)
        shutil.rmtree(run_dir)
        starts.append(reference_start(work / f"start-{k}"))
        setup, code, _ = spawn(cli("--version"), work / f"version-{k}")
        setups.append(setup * REFERENCE_START_S / starts[-1])
        raw_setups.append(setup)
        if code != 0:
            failed_runs.append(k)

    problems = checks.check(workload, facts, ref_dir) if ref is not None else ["warm-up run failed"]
    for p in problems:
        print(f"CHECK FAILED: {p}")
    attempted = len(walls) + 1
    failed = attempted if problems else len(set(failed_runs))
    if ref is not None:
        report_digests(workload, seed, facts["inputs"], ref)

    wall = statistics.median(walls)
    print(f"wall_s samples ({len(walls)}): " + " ".join(f"{w:.4f}" for w in walls))
    print(f"setup_s samples ({len(setups)}): " + " ".join(f"{s:.4f}" for s in setups))
    print(f"unscaled medians: wall {statistics.median(raw_walls):.4f} s, setup {statistics.median(raw_setups):.4f} s; "
          f"calibration loop {statistics.median(cals):.4f} s (reference {REFERENCE_CAL_S} s), "
          f"reference start-up {statistics.median(starts):.4f} s (reference {REFERENCE_START_S} s)")
    print(f"failed_fraction = {failed / attempted:.4f} ({failed} of {attempted} runs)")
    metrics = {
        "wall_s": wall,
        "work_per_s": facts["units"] / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "ok_fraction": 1.0 - failed / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, attempted, failed


def run_traced(seed: int, seconds: float, work: Path) -> tuple[dict, int, int]:
    facts = {w: gen.make_inputs(w, seed, work / "inputs" / w) for w in WORKLOADS}
    spec = {
        "seconds": seconds,
        "workloads": [{"name": w, "argv": facts[w]["argv"], "dir": str(work / w)} for w in WORKLOADS],
    }
    (work / "spec.json").write_text(json.dumps(spec))
    cmd = [sys.executable, str(BENCH_DIR / "layers.py"), str(work / "spec.json"), str(work / "result.json")]
    _, code, _ = spawn(cmd, work / "layers", LAYERS_TIMEOUT_S)
    if code != 0:
        sys.stderr.write((work / "layers" / "stderr.txt").read_text())
        raise RuntimeError(f"layers.py exited {code}")
    result = json.loads((work / "result.json").read_text())
    if result["absent"]:
        print(f"absent wrap targets (reported as 0): {', '.join(result['absent'])}")

    metrics: dict[str, float] = {}
    attempted = failed = 0
    for w in WORKLOADS:
        r = result["workloads"][w]
        passes = r["passes"]
        ref = passes[0]["digests"]
        problems = checks.check(w, facts[w], Path(r["first_dir"]))
        bad = [p for p in passes if p["code"] != 0 or p["digests"] != ref]
        for p in problems:
            print(f"CHECK FAILED ({w}): {p}")
        print(f"{w}: traced digests equal untraced: {'yes' if not bad else 'NO'}")
        report_digests(w, seed, facts[w]["inputs"], ref)
        attempted += len(passes)
        failed += len(passes) if problems else len(bad)

        plain = statistics.median(p["seconds"] for p in passes if not p["traced"] and not p["warmup"])
        traced = statistics.median(p["seconds"] for p in passes if p["traced"])
        values = {"cli.output_bytes": r["output_bytes"], "trace.overhead_ratio": traced / plain}
        values.update(r["counts"])
        for span, s in r["spans"].items():
            values[f"{span}.calls"] = s["calls"]
            values[f"{span}.self_s"] = s["self_s"]
        for name, _ in LAYER_METRICS[w] + EVERY_WORKLOAD:
            metrics[f"{w}.{name}"] = values.get(name, 0)
        print(f"{w}: untraced {plain:.4f} s, traced {traced:.4f} s")
        inner = {name: s for name, s in r["spans"].items() if name != "cli.main" and s["calls"]}
        for stat in ("total_s", "self_s"):
            top = sorted(inner.items(), key=lambda kv: -kv[1][stat])[:5]
            print(f"  largest {stat}: " + ", ".join(f"{name} {s[stat]:.4f}" for name, s in top))
    units = per_layer_units()
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "wlansim" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'wlansim'}; run inside a wlansim checkout", file=sys.stderr)
        return 2

    TMP.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=TMP))
    try:
        for key, value in machine_and_code().items():
            print(f"{key}: {value}")
        if args.trace:
            metrics, attempted, failed = run_traced(args.seed, args.seconds, work)
        else:
            metrics, attempted, failed = run_end_to_end(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
