"""Tests for the normalized-LMS step and full runs."""

import math
from dataclasses import replace

import numpy as np
import pytest

from wlansim.arrays import (
    Scenario,
    Snapshot,
    Source,
    default_scenario,
    steering_vector,
    synthesize,
)
from wlansim.nlms import (
    CHUNK_ROWS,
    RELATIVE_EPS,
    BeamformerState,
    initial_state,
    run,
    step,
)


def make_snapshot(x, d, index=0) -> Snapshot:
    return Snapshot(x=np.asarray(x, dtype=complex), d=complex(d), index=index)


class TestStep:
    def test_zero_error_is_a_fixed_point(self):
        w = np.array([0.3 + 0.1j, -0.2j, 0.7])
        x = np.array([1.0, 2.0, -1.0 + 0.5j])
        d = complex(np.vdot(w, x))  # forces e = 0 exactly
        state = BeamformerState(w=w, mu=0.5)
        result = step(state, make_snapshot(x, d))
        assert result.e == 0
        assert result.state.w.tobytes() == w.tobytes()

    def test_single_element_hand_example(self):
        state = initial_state(1, mu=1.0, eps=0.0)
        first = step(state, make_snapshot([1.0], 1.0, 0))
        assert first.y == 0
        assert first.e == 1
        assert first.state.w[0] == 1.0
        second = step(first.state, make_snapshot([1.0], 1.0, 1))
        assert second.y == 1.0
        assert second.e == 0
        assert second.state.w[0] == 1.0
        assert second.state.n == 2

    def test_zero_snapshot_skips_update(self):
        state = BeamformerState(w=np.array([1.0 + 0j, 2.0]), mu=0.5, eps=0.0)
        result = step(state, make_snapshot([0.0, 0.0], 1.0))
        assert result.skipped
        assert result.state.w.tobytes() == state.w.tobytes()
        assert result.state.n == 1

    def test_eps_prevents_skip(self):
        state = BeamformerState(w=np.zeros(2, dtype=complex), mu=0.5, eps=1e-9)
        result = step(state, make_snapshot([0.0, 0.0], 1.0))
        assert not result.skipped

    def test_dimension_mismatch_rejected(self):
        state = initial_state(3, mu=0.1)
        with pytest.raises(ValueError, match="length"):
            step(state, make_snapshot([1.0, 2.0], 0.0))

    def test_error_equals_reference_minus_output(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            d = complex(rng.standard_normal() + 1j * rng.standard_normal())
            result = step(BeamformerState(w=w, mu=0.3), make_snapshot(x, d))
            assert result.e == d - result.y

    def test_update_direction_matches_finite_differences(self):
        """The raw update x*conj(e) is -1/2 the real-pair gradient of |e|^2."""
        rng = np.random.default_rng(42)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 9))
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            d = complex(rng.standard_normal() + 1j * rng.standard_normal())

            def cost(wv):
                return abs(d - np.vdot(wv, x)) ** 2

            e = d - np.vdot(w, x)
            update = x * np.conj(e)
            grad = np.empty(n, dtype=complex)
            for k in range(n):
                delta = np.zeros(n, dtype=complex)
                delta[k] = h
                g_re = (cost(w + delta) - cost(w - delta)) / (2 * h)
                g_im = (cost(w + 1j * delta) - cost(w - 1j * delta)) / (2 * h)
                grad[k] = g_re + 1j * g_im
            rel = np.linalg.norm(update + grad / 2) / np.linalg.norm(update)
            worst = max(worst, rel)
        assert worst <= 1e-5, f"worst finite-difference mismatch {worst:.2e}"

    def test_norm_safety_bound(self):
        """With eps > 0 the weight change never exceeds mu*|e|/||x||."""
        rng = np.random.default_rng(7)
        state = BeamformerState(w=np.zeros(5, dtype=complex), mu=0.8, eps=1e-9)
        for i in range(200):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            x *= rng.uniform(1e-6, 2.0)
            d = complex(rng.standard_normal())
            result = step(state, make_snapshot(x, d, i))
            change = np.linalg.norm(result.state.w - state.w)
            bound = state.mu * abs(result.e) / np.linalg.norm(x)
            assert change <= bound * (1 + 1e-12)
            state = result.state


def small_scenario(**overrides) -> Scenario:
    base = dict(
        carrier_hz=5e9,
        num_elements=4,
        spacing_wavelengths=0.5,
        step_size=0.5,
        iterations=400,
        seed=3,
        noise_power=0.0,
        sources=(Source("desired", 0.5, "sinusoid", 0.11, 1.0),),
    )
    base.update(overrides)
    return Scenario(**base)


class TestRun:
    def test_zero_step_size_keeps_weights_constant(self):
        trace = run(small_scenario(step_size=0.0), snapshot_stride=50)
        assert np.all(trace.final_weights == 0)
        for _, w in trace.weight_snapshots:
            assert np.all(w == 0)

    def test_noiseless_single_source_converges(self):
        trace = run(small_scenario())
        initial = trace.error_power[0]
        tail = trace.error_power[-len(trace.error_power) // 10 :]
        assert initial == pytest.approx(1.0, abs=1e-12)  # zero-init means e(0) = d(0)
        assert tail.mean() <= 1e-6 * initial, f"tail error {tail.mean():.3e}"

    def test_default_scenario_nulls_the_interferer(self):
        scenario = default_scenario()
        trace = run(scenario)
        cfg = scenario.array
        desired = scenario.desired_source()
        interferer = next(s for s in scenario.sources if s.role == "interferer")

        def gain_db(w, theta):
            return 20 * math.log10(abs(np.vdot(w, steering_vector(theta, cfg))))

        depth = gain_db(trace.converged_weights, desired.angle_rad) - gain_db(
            trace.converged_weights, interferer.angle_rad
        )
        assert depth >= 30.0, f"null depth only {depth:.1f} dB"
        # Fine-grid pattern check: interferer direction sits in a deep notch.
        grid = np.linspace(-math.pi / 2, math.pi / 2, 4001)
        from wlansim.arrays import array_pattern

        pattern = dict(array_pattern(trace.converged_weights, cfg, grid))
        near_interferer = min(
            g for a, g in pattern.items() if abs(a - interferer.angle_rad) < 0.01
        )
        near_desired = max(
            g for a, g in pattern.items() if abs(a - desired.angle_rad) < 0.01
        )
        assert near_desired - near_interferer >= 30.0

    def test_deterministic_trace(self):
        a = run(default_scenario(), snapshot_stride=1000)
        b = run(default_scenario(), snapshot_stride=1000)
        assert a.error_power.tobytes() == b.error_power.tobytes()
        assert a.outputs.tobytes() == b.outputs.tobytes()
        assert a.final_weights.tobytes() == b.final_weights.tobytes()
        for (na, wa), (nb, wb) in zip(a.weight_snapshots, b.weight_snapshots):
            assert na == nb and wa.tobytes() == wb.tobytes()

    def test_error_power_trend_is_downward(self):
        """Statistical form of the monotone trend, over a fixed seed
        ensemble (one run's 5 % bound sits at the median of its seed
        distribution, so it holds or fails by the seed's luck).

        Over seeds 1-16 no run's windowed error power resurges above 6.5 %
        of its initial level after settling (per-seed maximum measured
        0.0552 on the keyed default_rng noise, 0.0530 on the Philox noise;
        0.0565 and 0.0545 over seeds 1-40).  The ensemble learning curve,
        the mean error power over the seeds, stays below 5 % after settling
        (measured 0.042 and 0.041), and its successive window means never
        jump upward by more than 50 % (measured 0.09 and 0.05)."""

        def resurgence(e):
            ma = np.convolve(e, np.ones(100) / 100, mode="valid")
            return ma[200:].max() / ma[0]

        curves = np.array([run(replace(default_scenario(), seed=seed)).error_power for seed in range(1, 17)])
        per_seed = [resurgence(e) for e in curves]
        assert max(per_seed) <= 0.065, f"seed {1 + int(np.argmax(per_seed))}: {max(per_seed):.4f}"
        e = curves.mean(axis=0)
        assert resurgence(e) <= 0.05, f"ensemble resurgence {resurgence(e):.4f}"
        blocks = e[200 : 200 + (len(e) - 200) // 100 * 100].reshape(-1, 100).mean(axis=1)
        jumps = np.diff(blocks) / blocks[:-1]
        assert jumps.max() <= 0.5, f"ensemble block mean jumped {jumps.max():.2f}"

    def test_plateau_is_reported_not_enforced(self):
        trace = run(default_scenario())
        plateau = trace.plateau_iteration()
        assert plateau is not None
        assert plateau < trace.iterations  # never truncates the run
        assert trace.iterations == 5000

    def test_snapshot_stride_records_final(self):
        trace = run(small_scenario(iterations=95), snapshot_stride=30)
        assert [n for n, _ in trace.weight_snapshots] == [29, 59, 89, 94]

    def test_invalid_stride_rejected(self):
        with pytest.raises(ValueError):
            run(small_scenario(), snapshot_stride=0)


def folded_run(scenario: Scenario, stride: int) -> dict:
    """run() rebuilt as a fold of step() over synthesize(), one snapshot
    at a time: the reference the array-at-a-time kernel must match."""
    n_iter = scenario.iterations
    expected_energy = scenario.num_elements * (
        sum(s.amplitude**2 for s in scenario.sources) + scenario.noise_power
    )
    state = initial_state(scenario.num_elements, scenario.step_size, RELATIVE_EPS * expected_energy)
    err, out, x0, snapshots, skipped = [], [], [], [], 0
    tail_start = max(0, n_iter - max(1, n_iter // 10))
    w_sum = np.zeros(scenario.num_elements, dtype=complex)
    for n in range(n_iter):
        snap = synthesize(scenario, n)
        result = step(state, snap)
        state = result.state
        skipped += result.skipped
        err.append(abs(result.e) ** 2)
        out.append(result.y)
        x0.append(snap.x[0])
        if (n + 1) % stride == 0:
            snapshots.append((n, state.w.copy()))
        if n >= tail_start:
            w_sum += state.w
    if not snapshots or snapshots[-1][0] != n_iter - 1:
        snapshots.append((n_iter - 1, state.w.copy()))
    return {
        "error_power": np.array(err),
        "outputs": np.array(out, dtype=complex),
        "first_element_input": np.array(x0, dtype=complex),
        "final_weights": state.w,
        "converged_weights": w_sum / (n_iter - tail_start),
        "weight_snapshots": snapshots,
        "skipped": skipped,
    }


EQUIVALENCE_CASES = {
    # Three chunks, the last one partial.
    "default_multi_chunk": lambda: replace(default_scenario(), iterations=2 * CHUNK_ROWS + 37),
    "symbols_with_noise": lambda: small_scenario(
        noise_power=0.2,
        iterations=CHUNK_ROWS + 5,
        sources=(
            Source("desired", 0.5, "symbols", amplitude=1.0),
            Source("interferer", -0.4, "symbols", amplitude=0.8),
        ),
    ),
    # No energy and so no eps: every update takes the skipped branch.
    "zero_energy": lambda: small_scenario(sources=(Source("desired", 0.5, "sinusoid", 0.11, 0.0),)),
    "zero_step_size": lambda: small_scenario(step_size=0.0, noise_power=0.1),
}


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_run_equals_fold_of_step_bit_for_bit(case):
    scenario = EQUIVALENCE_CASES[case]()
    stride = 97
    trace = run(scenario, snapshot_stride=stride)
    ref = folded_run(scenario, stride)
    for name in ("error_power", "outputs", "first_element_input", "final_weights", "converged_weights"):
        assert getattr(trace, name).tobytes() == ref[name].tobytes(), name
    assert len(trace.weight_snapshots) == len(ref["weight_snapshots"])
    for (n, w), (n_ref, w_ref) in zip(trace.weight_snapshots, ref["weight_snapshots"]):
        assert n == n_ref and w.tobytes() == w_ref.tobytes(), n
    if case == "zero_energy":
        assert ref["skipped"] == scenario.iterations


@pytest.mark.parametrize("amplitude", [1.0, 1e-156])
def test_divergence_is_a_validation_error_naming_the_iteration(amplitude):
    """mu = 3 is outside NLMS's stable range.  At unit amplitude the error
    power overflows; at 1e-156 the input energy is subnormal, so the
    update overflows the weights first and the per-chunk check fires."""
    scenario = replace(default_scenario(), step_size=3.0)
    scenario = replace(
        scenario, sources=tuple(replace(s, amplitude=amplitude) for s in scenario.sources), noise_power=0.0
    )
    with pytest.raises(ValueError, match=r"^iteration \d+: adaptation diverged"):
        run(scenario)
