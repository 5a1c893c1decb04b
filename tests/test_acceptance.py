"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured values.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from wlansim.arrays import default_scenario, steering_vector
from wlansim.channels import Plan, channel_by_id, overlap_fraction, plan_channels
from wlansim.cli import main
from wlansim.nlms import BeamformerState, initial_state, run, step
from wlansim.arrays import Snapshot
from wlansim.propagation import PathLossModel, friis_path_loss
from wlansim.spectrum import dft_magnitude, suppression_report
from wlansim.survey import fit_path_loss
from wlansim.throughput import (
    Modulation,
    PhyConfig,
    Standard,
    bits_per_symbol,
    max_client_rate,
    throughput_vs_distance,
)

from oracles import dft_oracle, mask_overlap_oracle, synth_fit_points


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_rate_table_exactness():
    cells = [
        (Standard.N80211, 1, 150.0),
        (Standard.AC80211, 1, 450.0),
        (Standard.N80211, 3, 450.0),
        (Standard.AC80211, 3, 1300.0),
    ]
    start = time.perf_counter()
    exact = all(max_client_rate(s, k) == rate for s, k, rate in cells)
    elapsed = time.perf_counter() - start
    report(1, "rate table exactness", exact and elapsed < 1e-3, f"{elapsed*1e6:.0f} us")


def test_criterion_2_modulation_gain():
    ratio = Fraction(bits_per_symbol(Modulation.QAM256), bits_per_symbol(Modulation.QAM64))
    report(2, "modulation bits ratio 4/3", ratio == Fraction(4, 3), str(ratio))


def test_criterion_3_channel_geometry():
    start = time.perf_counter()
    trio = [channel_by_id(i) for i in (1, 6, 11)]
    trio_ok = all(overlap_fraction(a, b) == 0.0 for a, b in itertools.combinations(trio, 2))
    unii_ok = all(
        overlap_fraction(a, b) == 0.0
        for a, b in itertools.combinations(plan_channels(Plan.UNII), 2)
    )
    worst = max(
        abs(overlap_fraction(a, b) - mask_overlap_oracle(a, b))
        for a, b in itertools.product(plan_channels(Plan.ISM24), repeat=2)
    )
    elapsed = time.perf_counter() - start
    report(
        3,
        "channel geometry",
        trio_ok and unii_ok and worst <= 1e-9 and elapsed < 1.0,
        f"oracle dev {worst:.1e}, {elapsed*1e3:.0f} ms",
    )


def test_criterion_4_friis_law():
    worst_decade = 0.0
    worst_doubling = 0.0
    for f in (2.4e9, 5e9):
        for d in np.logspace(math.log10(0.1), math.log10(1000.0), 50):
            if 10 * d <= 1000.0:
                worst_decade = max(
                    worst_decade, abs(friis_path_loss(10 * d, f) - friis_path_loss(d, f) - 20.0)
                )
            if 2 * d <= 1000.0:
                worst_doubling = max(
                    worst_doubling,
                    abs(friis_path_loss(2 * d, f) - friis_path_loss(d, f) - 6.0206),
                )
    ok = worst_decade <= 1e-6 and worst_doubling <= 1e-6
    report(4, "Friis square law", ok, f"decade dev {worst_decade:.1e}, doubling dev {worst_doubling:.1e}")


def test_criterion_5_nlms_correctness():
    # (a) e = 0 is a bitwise fixed point.
    w = np.array([0.4 - 0.2j, 0.1j, -0.7, 0.25 + 0.25j])
    x = np.array([1.0, -2.0 + 1j, 0.5, 0.3j])
    d = complex(np.vdot(w, x))
    result = step(BeamformerState(w=w, mu=0.7), Snapshot(x=x, d=d, index=0))
    fixed_point = result.state.w.tobytes() == w.tobytes()

    # (b) update direction against central finite differences.
    rng = np.random.default_rng(2718)
    worst_rel = 0.0
    h = 1e-6
    for _ in range(100):
        n = int(rng.integers(2, 9))
        wv = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xv = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dv = complex(rng.standard_normal() + 1j * rng.standard_normal())

        def cost(weights):
            return abs(dv - np.vdot(weights, xv)) ** 2

        update = xv * np.conj(dv - np.vdot(wv, xv))
        grad = np.empty(n, dtype=complex)
        for k in range(n):
            delta = np.zeros(n, dtype=complex)
            delta[k] = h
            grad[k] = (cost(wv + delta) - cost(wv - delta)) / (2 * h) + 1j * (
                cost(wv + 1j * delta) - cost(wv - 1j * delta)
            ) / (2 * h)
        worst_rel = max(worst_rel, np.linalg.norm(update + grad / 2) / np.linalg.norm(update))

    # (c) single-element hand example converges in two steps.
    s0 = initial_state(1, mu=1.0, eps=0.0)
    r1 = step(s0, Snapshot(x=np.array([1.0 + 0j]), d=1.0 + 0j, index=0))
    r2 = step(r1.state, Snapshot(x=np.array([1.0 + 0j]), d=1.0 + 0j, index=1))
    hand = (
        r1.y == 0
        and r1.e == 1
        and r1.state.w[0] == 1.0
        and r2.y == 1.0
        and r2.e == 0
        and r2.state.w[0] == 1.0
    )
    ok = fixed_point and worst_rel <= 1e-5 and hand
    report(5, "NLMS correctness", ok, f"fd rel {worst_rel:.1e}")


def test_criterion_6_interference_suppression():
    scenario = default_scenario()
    assert scenario.iterations >= 5000
    start = time.perf_counter()
    trace = run(scenario)
    elapsed = time.perf_counter() - start

    cfg = scenario.array
    desired = scenario.desired_source()
    interferer = next(s for s in scenario.sources if s.role == "interferer")

    def gain(theta):
        return 20 * math.log10(abs(np.vdot(trace.converged_weights, steering_vector(theta, cfg))))

    depth = gain(desired.angle_rad) - gain(interferer.angle_rad)

    size = 512
    before = trace.first_element_input[-size:]
    after = trace.outputs[-size:]
    d_bin = round(desired.normalized_freq * size)
    i_bin = round(interferer.normalized_freq * size)
    d_chg, i_chg = suppression_report(
        dft_magnitude(before, size), dft_magnitude(after, size), d_bin, i_bin
    )

    ok = depth >= 30.0 and i_chg <= -20.0 and abs(d_chg) <= 1.0 and elapsed < 10.0
    report(
        6,
        "interference suppression",
        ok,
        f"null {depth:.1f} dB, interferer {i_chg:.1f} dB, desired {d_chg:+.2f} dB, {elapsed:.2f} s",
    )


def test_criterion_7_spectrum_correctness():
    rng = np.random.default_rng(31)
    worst_mag = 0.0
    worst_parseval = 0.0
    for size in (16, 64, 256, 1024):
        signal = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        result = dft_magnitude(signal, size)
        worst_mag = max(worst_mag, float(np.max(np.abs(result.magnitudes - dft_oracle(signal, size)))))
        time_energy = float(np.sum(np.abs(signal) ** 2))
        freq_energy = float(np.sum(result.magnitudes**2)) / size
        worst_parseval = max(worst_parseval, abs(freq_energy - time_energy) / time_energy)
    ok = worst_mag < 1e-9 and worst_parseval < 1e-9
    report(7, "spectrum correctness", ok, f"oracle dev {worst_mag:.1e}, parseval {worst_parseval:.1e}")


def test_criterion_8_fit_recovery():
    clean = fit_path_loss(synth_fit_points(2.7), 20.0)
    noisy = fit_path_loss(synth_fit_points(2.7, noise=2.0, seed=1), 20.0)
    clean_err = abs(clean.exponent - 2.7)
    noisy_err = abs(noisy.exponent - 2.7)
    ok = clean_err <= 1e-9 and noisy_err <= 0.05
    report(8, "path-loss fit recovery", ok, f"clean dev {clean_err:.1e}, noisy dev {noisy_err:.3f}")


def test_criterion_9_throughput_curves():
    model = PathLossModel.free_space(5e9)
    distances = [float(d) for d in range(1, 31)]
    ac = throughput_vs_distance(PhyConfig(Standard.AC80211, spatial_streams=3), model, 10.0, distances)
    n = throughput_vs_distance(PhyConfig(Standard.N80211, spatial_streams=3), model, 10.0, distances)
    ordered = all(ra >= rn for (_, ra), (_, rn) in zip(ac, n))
    monotone = all(
        all(b <= a for (_, a), (_, b) in zip(curve, curve[1:])) for curve in (ac, n)
    )
    report(9, "throughput curve ordering", ordered and monotone)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert main(["beamform", "--out", str(dir_a)]) == 0
    assert main(["beamform", "--out", str(dir_b)]) == 0
    capsys.readouterr()
    names = ["trace.csv", "weights.csv", "pattern.csv", "spectrum_before.csv", "spectrum_after.csv"]
    identical = all((dir_a / f).read_bytes() == (dir_b / f).read_bytes() for f in names)
    report(10, "beamform reruns byte-identical", identical)
