"""Traced in-process passes of the workloads, for the per-layer metrics.

Run as ``python layers.py SPEC RESULT`` with the package on the path.
SPEC is a JSON file ``{"seconds": s, "workloads": [{"name", "argv",
"dir"}, ...]}``.  For each workload one untraced warm-up pass runs first;
then rounds of one traced and one untraced pass per workload repeat until
``seconds`` have passed since the start, warm-up included (at least one
round).  Each pass calls
``wlansim.cli.main`` with its own ``--out`` and with stdout and stderr
sent to files, so the pass directories look like those of the CLI runs.
RESULT receives the pass times, the output digests of every pass and
the median span statistics of the traced passes.

Spans are installed by replacing a public name in the namespace of the
module that calls it (``wlansim.nlms.synthesize`` is what ``nlms.run``
calls).  A name that no longer exists is reported as absent, not as an
error, so the benchmark keeps running while the package is refactored.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

from checks import output_bytes, output_digests

# span -> the names it is installed under, as "module:attribute.path".
SPANS = {
    "cli.main": ["wlansim.cli:main"],
    "nlms.run": ["wlansim.nlms:run"],
    "nlms.step": ["wlansim.nlms:step"],
    "arrays.synthesize": ["wlansim.nlms:synthesize"],
    "arrays._stream_rng": ["wlansim.arrays:_stream_rng"],
    "arrays.steering_vector": ["wlansim.arrays:steering_vector", "wlansim.cli:steering_vector"],
    "arrays.Scenario.validate": ["wlansim.arrays:Scenario.validate"],
    "arrays.array_pattern": ["wlansim.cli:array_pattern"],
    "spectrum.dft_magnitude": ["wlansim.cli:dft_magnitude", "wlansim.spectrum:dft_magnitude"],
    "nlms.trace_to_csv": ["wlansim.nlms:trace_to_csv"],
    "nlms.weights_to_csv": ["wlansim.nlms:weights_to_csv"],
    "arrays.pattern_to_csv": ["wlansim.cli:pattern_to_csv"],
    "spectrum.spectrum_to_csv": ["wlansim.cli:spectrum_to_csv"],
    "survey.parse_log": ["wlansim.cli:parse_log"],
    "survey.summarize": ["wlansim.cli:summarize"],
    "survey.location_cell": ["wlansim.survey:location_cell"],
    "propagation.haversine_distance": ["wlansim.survey:haversine_distance"],
    "survey.fit_path_loss": ["wlansim.cli:fit_path_loss"],
    "survey.summaries_to_csv": ["wlansim.cli:summaries_to_csv"],
    "survey.interference_report": ["wlansim.cli:interference_report"],
    "channels.channel_by_id": ["wlansim.survey:channel_by_id", "wlansim.cli:channel_by_id"],
    "channels.overlap_fraction": ["wlansim.survey:overlap_fraction", "wlansim.cli:overlap_fraction"],
    "survey.interference_to_csv": ["wlansim.cli:interference_to_csv"],
    "throughput.throughput_vs_distance": ["wlansim.cli:throughput_vs_distance"],
    "throughput.link_snr": ["wlansim.throughput:link_snr"],
    "throughput.snr_to_rate": ["wlansim.throughput:snr_to_rate"],
    "throughput.curve_to_csv": ["wlansim.cli:curve_to_csv"],
}


def _count_parse(counts: dict, result) -> None:
    records, errors = result
    counts["survey.records"] = counts.get("survey.records", 0) + len(records)
    counts["survey.malformed"] = counts.get("survey.malformed", 0) + len(errors)


def _counter(name: str):
    def count(counts: dict, result) -> None:
        counts[name] = counts.get(name, 0) + len(result)

    return count


# Counts taken from what a span returns.
RESULT_COUNTS = {
    "survey.parse_log": _count_parse,
    "survey.summarize": _counter("survey.groups"),
    "survey.interference_report": _counter("survey.pairs"),
}


class Tracer:
    """Per-span calls, total and self seconds, plus counts from results.

    Self time is a span's duration minus the durations of the spans
    called directly inside it.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._child_time: list[float] = []

    def reset(self) -> None:
        self.stats = {}
        self.counts = {}

    def wrap(self, name: str, fn):
        child_time = self._child_time
        count = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                s = self.stats.setdefault(name, [0, 0.0, 0.0])
                s[0] += 1
                s[1] += elapsed
                s[2] += elapsed - inner
            if count is not None:
                try:
                    count(self.counts, result)
                except (TypeError, ValueError):
                    pass  # the layer now returns another shape; leave the count out
            return result

        return traced


def _resolve(target: str):
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr, getattr(owner, attr)


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrap every span target that exists; return (undo list, absent targets)."""
    undo, absent = [], []
    for name, targets in SPANS.items():
        for target in targets:
            try:
                owner, attr, original = _resolve(target)
            except (ImportError, AttributeError):
                absent.append(target)
                continue
            setattr(owner, attr, tracer.wrap(name, original))
            undo.append((owner, attr, original))
    return undo, absent


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def run_pass(argv: list[str], run_dir: Path) -> tuple[float, int]:
    """One in-process CLI invocation; returns (seconds, exit code)."""
    import wlansim.cli

    run_dir.mkdir(parents=True)
    gc.collect()
    with open(run_dir / "stdout.txt", "w") as out, open(run_dir / "stderr.txt", "w") as err:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = wlansim.cli.main([*argv, "--out", str(run_dir / "out")])
            elapsed = time.perf_counter() - start
    return elapsed, code


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    deadline = time.perf_counter() + spec["seconds"]
    tracer = Tracer()
    results = {}
    for w in spec["workloads"]:
        first = Path(w["dir"]) / "pass-0"
        seconds, code = run_pass(w["argv"], first)
        results[w["name"]] = {
            "first_dir": str(first),
            "output_bytes": output_bytes(first),
            "passes": [{"traced": False, "warmup": True, "seconds": seconds, "code": code,
                        "digests": output_digests(first)}],
            "traced_stats": [],
            "traced_counts": [],
        }
    absent: list[str] = []
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        rounds += 1
        for w in spec["workloads"]:
            r = results[w["name"]]
            for traced in (True, False):
                run_dir = Path(w["dir"]) / f"pass-{len(r['passes'])}"
                tracer.reset()
                undo = []
                if traced:
                    undo, absent = install(tracer)
                try:
                    seconds, code = run_pass(w["argv"], run_dir)
                finally:
                    uninstall(undo)
                r["passes"].append({"traced": traced, "warmup": False, "seconds": seconds, "code": code,
                                    "digests": output_digests(run_dir)})
                shutil.rmtree(run_dir)
                if traced:
                    r["traced_stats"].append(tracer.stats)
                    r["traced_counts"].append(tracer.counts)
    for r in results.values():
        stats, counts = r.pop("traced_stats"), r.pop("traced_counts")
        r["spans"] = {
            name: {
                "calls": statistics.median(s.get(name, [0, 0.0, 0.0])[0] for s in stats),
                "total_s": statistics.median(s.get(name, [0, 0.0, 0.0])[1] for s in stats),
                "self_s": statistics.median(s.get(name, [0, 0.0, 0.0])[2] for s in stats),
            }
            for name in SPANS
        }
        r["counts"] = {name: statistics.median(c.get(name, 0) for c in counts)
                       for name in {k for c in counts for k in c}}
    Path(result_path).write_text(json.dumps({"absent": absent, "rounds": rounds, "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
