"""Output checks for the benchmark workloads (stdlib only).

Each check reads one finished run's directory, laid out as ``out/`` (the
CLI's ``--out``), ``stdout.txt`` and ``stderr.txt``, and returns a list of
problems; an empty list means the outputs are correct.  The checks use
only the generator's facts and the published tables, never the package.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

from gen import sha256_file

# Acceptance criterion 6 thresholds (tests/test_acceptance.py).
MIN_NULL_DEPTH_DB = 30.0
MAX_INTERFERER_CHANGE_DB = -20.0
MAX_ABS_DESIRED_CHANGE_DB = 1.0

# The fitted exponent must land this close to the generator's.
EXPONENT_TOLERANCE = 0.05

EXPECTED_OUTPUTS = {
    "beamform_default": ["pattern.csv", "spectrum_after.csv", "spectrum_before.csv", "trace.csv", "weights.csv"],
    "coverage_bulk": ["interference.csv", "summaries.csv"],
    "coverage_dense": ["interference.csv", "summaries.csv"],
    "throughput_sweep": ["throughput.csv"],
}


def output_digests(run_dir: Path) -> dict[str, str]:
    """SHA-256 of every CSV output and of stdout (the manifest holds a timestamp)."""
    files = sorted((run_dir / "out").glob("*.csv")) + [run_dir / "stdout.txt"]
    return {p.name: sha256_file(p) for p in files if p.exists()}


def output_bytes(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in (run_dir / "out").glob("*.csv"))


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _nonfinite(path: Path) -> int:
    """Count CSV fields that parse as a number but are NaN or infinite."""
    bad = 0
    _, rows = _rows(path)
    for row in rows:
        for field in row:
            try:
                value = float(field)
            except ValueError:
                continue
            bad += not math.isfinite(value)
    return bad


def _summary_values(stdout: str) -> dict[str, float]:
    return {k: float(v) for k, v in re.findall(r"(\w+)=([-+0-9.eE]+|nan|inf)", stdout)}


def _check_beamform(facts: dict, run_dir: Path, problems: list[str]) -> None:
    out = run_dir / "out"
    v = _summary_values((run_dir / "stdout.txt").read_text())
    for key in ("final_error_power", "null_depth_db", "desired_change_db", "interferer_change_db"):
        if key not in v:
            problems.append(f"summary line lacks {key}")
            return
    if not v["null_depth_db"] >= MIN_NULL_DEPTH_DB:
        problems.append(f"null depth {v['null_depth_db']} dB < {MIN_NULL_DEPTH_DB}")
    if not v["interferer_change_db"] <= MAX_INTERFERER_CHANGE_DB:
        problems.append(f"interferer change {v['interferer_change_db']} dB > {MAX_INTERFERER_CHANGE_DB}")
    if not abs(v["desired_change_db"]) <= MAX_ABS_DESIRED_CHANGE_DB:
        problems.append(f"desired change {v['desired_change_db']} dB beyond +/-{MAX_ABS_DESIRED_CHANGE_DB}")

    _, trace = _rows(out / "trace.csv")
    if len(trace) != facts["iterations"]:
        problems.append(f"trace.csv has {len(trace)} rows, expected {facts['iterations']}")

    # The spectra must tell the same story as the summary line: the default
    # scenario's tones sit at bins 0.125 * size and 0.25 * size.
    _, before = _rows(out / "spectrum_before.csv")
    _, after = _rows(out / "spectrum_after.csv")
    size = len(before)
    if size != len(after) or size == 0:
        problems.append("spectra differ in size")
        return

    def change(bin_idx: int) -> float:
        return 20.0 * math.log10(float(after[bin_idx][1]) / float(before[bin_idx][1]))

    for name, frac in (("desired_change_db", 0.125), ("interferer_change_db", 0.25)):
        got = change(round(frac * size))
        if abs(got - v[name]) > 0.006:
            problems.append(f"{name}: spectra give {got:.3f}, summary says {v[name]}")

    _, pattern = _rows(out / "pattern.csv")
    gain = {round(float(a), 6): float(g) for a, g in pattern}
    depth = gain[round(math.pi / 4, 6)] - gain[round(-math.pi / 4, 6)]
    if not depth >= MIN_NULL_DEPTH_DB:
        problems.append(f"pattern.csv null depth {depth:.2f} dB < {MIN_NULL_DEPTH_DB}")


def _stderr_lines(run_dir: Path) -> list[int]:
    return [int(m) for m in re.findall(r"^\s*line (\d+):", (run_dir / "stderr.txt").read_text(), re.M)]


def _check_survey_counts(facts: dict, run_dir: Path, problems: list[str]) -> list[list[str]]:
    stdout = (run_dir / "stdout.txt").read_text()
    m = re.search(r"parsed (\d+) records, (\d+) malformed lines", stdout)
    if not m:
        problems.append("no 'parsed ... records' line on stdout")
        return []
    records, malformed = int(m.group(1)), int(m.group(2))
    if records != facts["records"]:
        problems.append(f"{records} records parsed, {facts['records']} generated")
    if malformed != facts["malformed"]:
        problems.append(f"{malformed} malformed lines reported, {facts['malformed']} generated")
    if _stderr_lines(run_dir) != facts["malformed_lines"]:
        problems.append("malformed line numbers on stderr differ from the generated ones")
    header, summaries = _rows(run_dir / "out" / "summaries.csv")
    col = header.index("count")
    total = sum(int(r[col]) for r in summaries)
    if total != facts["records"]:
        problems.append(f"summary counts sum to {total}, not {facts['records']}")
    bssids = {r[0] for r in summaries}
    if bssids != set(facts["channels"]):
        problems.append(f"summaries name {len(bssids)} APs, {facts['aps']} generated")
    return summaries


def _check_coverage_bulk(facts: dict, run_dir: Path, problems: list[str]) -> None:
    _check_survey_counts(facts, run_dir, problems)
    m = re.search(r"fit: exponent=([-0-9.]+) reference_loss_db=([-0-9.]+)", (run_dir / "stdout.txt").read_text())
    if not m:
        problems.append("no fit line on stdout")
        return
    exponent = float(m.group(1))
    if not abs(exponent - facts["exponent"]) <= EXPONENT_TOLERANCE:
        problems.append(f"fitted exponent {exponent} vs generated {facts['exponent']}")


def _ism24_overlap(a: int, b: int) -> float:
    # Rectangular 22 MHz masks; centres 2412 + 5 (c - 1) MHz, channel 14 at 2484 MHz.
    def centre(c: int) -> float:
        return 2484.0 if c == 14 else 2412.0 + 5.0 * (c - 1)

    return max(0.0, 22.0 - abs(centre(a) - centre(b))) / 22.0


def _check_coverage_dense(facts: dict, run_dir: Path, problems: list[str]) -> None:
    summaries = _check_survey_counts(facts, run_dir, problems)
    threshold = facts["coverage_threshold_dbm"]
    cells: dict[str, set[tuple[str, str]]] = {b: set() for b in facts["channels"]}
    for r in summaries:
        if float(r[7]) >= threshold:
            cells[r[0]].add((r[3], r[4]))
    _, pairs = _rows(run_dir / "out" / "interference.csv")
    n = len(facts["channels"])
    if len(pairs) != n * (n - 1) // 2:
        problems.append(f"{len(pairs)} pairs, expected {n * (n - 1) // 2}")
    channels = facts["channels"]
    wrong = 0
    for a, b, overlap, co_located, interferes in pairs:
        ov = float(overlap)
        co = co_located == "1"
        ok = (
            a < b
            and abs(ov - _ism24_overlap(channels[a], channels[b])) <= 1e-12
            and co == bool(cells[a] & cells[b])
            and (interferes == "1") == (ov > 0.0 and co)
        )
        wrong += not ok
    if wrong:
        problems.append(f"{wrong} interference rows disagree with the channel plan or the summaries")


def _check_throughput(facts: dict, run_dir: Path, problems: list[str]) -> None:
    _, rows = _rows(run_dir / "out" / "throughput.csv")
    if len(rows) != facts["points"]:
        problems.append(f"{len(rows)} curve rows, expected {facts['points']}")
        return
    distances = [float(r[0]) for r in rows]
    rates = [float(r[1]) for r in rows]
    if distances[0] != facts["min_distance"] or any(b <= a for a, b in zip(distances, distances[1:])):
        problems.append("distances do not start at --min-distance and increase")
    if any(b > a for a, b in zip(rates, rates[1:])):
        problems.append("rate increases with distance")
    if max(rates) > facts["peak_rate_mbps"]:
        problems.append(f"rate {max(rates)} above the peak {facts['peak_rate_mbps']}")


CHECKS = {
    "beamform_default": _check_beamform,
    "coverage_bulk": _check_coverage_bulk,
    "coverage_dense": _check_coverage_dense,
    "throughput_sweep": _check_throughput,
}


def check(workload: str, facts: dict, run_dir: Path) -> list[str]:
    """Every problem with one run's outputs; empty when they are correct."""
    out = run_dir / "out"
    problems = []
    names = sorted(p.name for p in out.glob("*.csv"))
    if names != EXPECTED_OUTPUTS[workload]:
        return [f"outputs {names}, expected {EXPECTED_OUTPUTS[workload]}"]
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    if sorted(manifest.get("outputs", [])) != names:
        problems.append("manifest.json does not list the outputs")
    for name in names:
        bad = _nonfinite(out / name)
        if bad:
            problems.append(f"{name}: {bad} non-finite values")
    try:
        CHECKS[workload](facts, run_dir, problems)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
