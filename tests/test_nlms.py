"""Tests for the normalized-LMS update and full runs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlansim.arrays import Scenario, Source, load_scenario, steering_vector
from wlansim.nlms import CHUNK_ROWS, run, update

from oracles import nlms_fold


# Zero or a magnitude in [1e-3, 1e3]: bounded, so no update can overflow.
parts = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
complexes = st.builds(complex, parts, parts)


class TestStep:
    """One NLMS step: ``update`` on raw arrays."""

    def test_zero_error_is_a_fixed_point(self):
        w = np.array([0.3 + 0.1j, -0.2j, 0.7])
        x = np.array([1.0, 2.0, -1.0 + 0.5j])
        d = complex(np.vdot(w, x))  # forces e = 0 exactly
        _, e, w_next = update(w, x, d, 0.5, 0.0)
        assert e == 0
        assert w_next.tobytes() == w.tobytes()

    def test_single_element_hand_example(self):
        x = np.array([1.0 + 0j])
        y, e, w = update(np.zeros(1, dtype=complex), x, 1.0 + 0j, 1.0, 0.0)
        assert y == 0
        assert e == 1
        assert w[0] == 1.0
        y, e, w = update(w, x, 1.0 + 0j, 1.0, 0.0)
        assert y == 1.0
        assert e == 0
        assert w[0] == 1.0

    def test_zero_snapshot_skips_update(self):
        w = np.array([1.0 + 0j, 2.0])
        _, e, w_next = update(w, np.zeros(2, dtype=complex), 1.0 + 0j, 0.5, 0.0)
        assert e == 1
        assert w_next.tobytes() == w.tobytes()

    @settings(max_examples=150)
    @given(
        pairs=st.lists(st.tuples(complexes, complexes), min_size=1, max_size=8),
        d=complexes,
        mu=st.floats(0.0, 2.0, exclude_max=True),
        eps=st.one_of(st.just(0.0), st.floats(1e-12, 1e3)),
    )
    def test_error_equals_reference_minus_output(self, pairs, d, mu, eps):
        """e = d - y exactly; feeding d = y back gives e = 0 and the very
        same weights."""
        w = np.array([a for a, _ in pairs])
        x = np.array([b for _, b in pairs])
        y, e, _ = update(w, x, d, mu, eps)
        assert e == d - y
        _, e_fixed, w_fixed = update(w, x, y, mu, eps)
        assert e_fixed == 0
        assert w_fixed.tobytes() == w.tobytes()

    @settings(max_examples=150)
    @given(
        pairs=st.lists(st.tuples(complexes, complexes), min_size=1, max_size=8),
        d=complexes,
        mu=st.floats(0.0, 2.0, exclude_max=True),
        eps=st.floats(1e-12, 1e3),
    )
    def test_norm_safety_bound(self, pairs, d, mu, eps):
        """With eps > 0 the weight change never exceeds mu*|e|/||x||
        (checked multiplied through by ||x||, which may be 0)."""
        w = np.array([a for a, _ in pairs])
        x = np.array([b for _, b in pairs])
        _, e, w_next = update(w, x, d, mu, eps)
        change = np.linalg.norm(w_next - w)
        assert change * np.linalg.norm(x) <= mu * abs(e) * (1 + 1e-12)

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

            # With mu = 1 and eps = 0 the step is x*conj(e) / ||x||^2.
            _, _, w_next = update(w, x, d, 1.0, 0.0)
            direction = (w_next - w) * float(np.vdot(x, x).real)
            grad = np.empty(n, dtype=complex)
            for k in range(n):
                delta = np.zeros(n, dtype=complex)
                delta[k] = h
                g_re = (cost(w + delta) - cost(w - delta)) / (2 * h)
                g_im = (cost(w + 1j * delta) - cost(w - 1j * delta)) / (2 * h)
                grad[k] = g_re + 1j * g_im
            rel = np.linalg.norm(direction + grad / 2) / np.linalg.norm(direction)
            worst = max(worst, rel)
        assert worst <= 1e-5, f"worst finite-difference mismatch {worst:.2e}"


def small_scenario(**overrides) -> Scenario:
    base = dict(
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
        trace = run(small_scenario(step_size=0.0))
        for _, w in trace.weight_snapshots:
            assert np.all(w == 0)

    def test_noiseless_single_source_converges(self):
        trace = run(small_scenario())
        initial = trace.error_power[0]
        tail = trace.error_power[-len(trace.error_power) // 10 :]
        assert initial == pytest.approx(1.0, abs=1e-12)  # zero-init means e(0) = d(0)
        assert tail.mean() <= 1e-6 * initial, f"tail error {tail.mean():.3e}"

    def test_default_scenario_nulls_the_interferer(self):
        scenario = load_scenario()
        trace = run(scenario)
        spacing = scenario.spacing_wavelengths
        desired = scenario.desired_source()
        interferer = next(s for s in scenario.sources if s.role == "interferer")

        def gain_db(w, theta):
            return 20 * math.log10(abs(np.vdot(w, steering_vector(theta, scenario.num_elements, spacing))))

        depth = gain_db(trace.converged_weights, desired.angle_rad) - gain_db(
            trace.converged_weights, interferer.angle_rad
        )
        assert depth >= 30.0, f"null depth only {depth:.1f} dB"
        # Fine-grid pattern check: interferer direction sits in a deep notch.
        grid = np.linspace(-math.pi / 2, math.pi / 2, 4001)
        from wlansim.arrays import array_pattern

        pattern = dict(array_pattern(trace.converged_weights, spacing, grid))
        near_interferer = min(
            g for a, g in pattern.items() if abs(a - interferer.angle_rad) < 0.01
        )
        near_desired = max(
            g for a, g in pattern.items() if abs(a - desired.angle_rad) < 0.01
        )
        assert near_desired - near_interferer >= 30.0

    def test_deterministic_trace(self):
        a = run(load_scenario())
        b = run(load_scenario())
        assert a.error_power.tobytes() == b.error_power.tobytes()
        assert a.outputs.tobytes() == b.outputs.tobytes()
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

        curves = np.array([run(load_scenario(seed=seed)).error_power for seed in range(1, 17)])
        per_seed = [resurgence(e) for e in curves]
        assert max(per_seed) <= 0.065, f"seed {1 + int(np.argmax(per_seed))}: {max(per_seed):.4f}"
        e = curves.mean(axis=0)
        assert resurgence(e) <= 0.05, f"ensemble resurgence {resurgence(e):.4f}"
        blocks = e[200 : 200 + (len(e) - 200) // 100 * 100].reshape(-1, 100).mean(axis=1)
        jumps = np.diff(blocks) / blocks[:-1]
        assert jumps.max() <= 0.5, f"ensemble block mean jumped {jumps.max():.2f}"

    def test_plateau_is_reported_not_enforced(self):
        trace = run(load_scenario())
        plateau = trace.plateau_iteration()
        assert plateau is not None
        assert plateau < len(trace.error_power)  # never truncates the run
        assert len(trace.error_power) == 5000

    def test_snapshot_stride_records_final(self):
        trace = run(small_scenario(iterations=95))  # stride 95 // 10 = 9
        assert [n for n, _ in trace.weight_snapshots] == [8, 17, 26, 35, 44, 53, 62, 71, 80, 89, 94]


EQUIVALENCE_CASES = {
    # Three chunks, the last one partial.
    "default_multi_chunk": lambda: load_scenario(iterations=2 * CHUNK_ROWS + 37),
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
    trace = run(scenario)
    ref = nlms_fold(scenario, max(1, scenario.iterations // 10))
    for name in ("error_power", "outputs", "converged_weights"):
        assert getattr(trace, name).tobytes() == ref[name].tobytes(), name
    assert trace.final_error_power.hex() == ref["final_error_power"].hex()
    assert len(trace.weight_snapshots) == len(ref["weight_snapshots"])
    for (n, w), (n_ref, w_ref) in zip(trace.weight_snapshots, ref["weight_snapshots"]):
        assert n == n_ref and w.tobytes() == w_ref.tobytes(), n
    if case == "zero_energy":
        assert ref["skipped"] == scenario.iterations


@pytest.mark.parametrize("k", [0.5, 2.0, 8.0])
@pytest.mark.parametrize("seed,noise_power", [(1, 0.01), (3, 0.3)])
def test_power_of_two_scale_leaves_the_weights_bit_identical(k, seed, noise_power):
    """Amplitudes times k and noise power times k*k, for k a power of two.
    Scaling by a power of two commutes with IEEE 754 rounding, and eps
    scales with the expected energy, so the weights are bit-identical, the
    error power is exactly k*k times and the outputs exactly k times."""
    base = load_scenario(seed=seed, iterations=1000, noise_power=noise_power)
    scaled = base._replace(
        sources=tuple(s._replace(amplitude=s.amplitude * k) for s in base.sources),
        noise_power=noise_power * k * k,
    )
    a, b = run(base), run(scaled)
    assert b.converged_weights.tobytes() == a.converged_weights.tobytes()
    assert [(n, w.tobytes()) for n, w in b.weight_snapshots] == [(n, w.tobytes()) for n, w in a.weight_snapshots]
    assert b.error_power.tobytes() == (a.error_power * (k * k)).tobytes()
    assert b.outputs.tobytes() == (a.outputs * k).tobytes()
    assert b.final_error_power == a.final_error_power * (k * k)
    assert b.plateau_iteration() == a.plateau_iteration()


@pytest.mark.parametrize(
    "step_size,amplitude,iteration",
    [
        pytest.param(3.0, 1.0, 532, id="1.0"),
        pytest.param(3.0, 1e-156, 0, id="1e-156"),
        pytest.param(2.5, None, 927, id="shipped-2.5"),
    ],
)
def test_divergence_is_a_validation_error_naming_the_iteration(step_size, amplitude, iteration):
    """Step sizes outside NLMS's stable range (0, 2) on the shipped
    scenario: noiseless with every amplitude set, or as shipped where the
    amplitude is None.  At unit amplitude, and at 2.5, the error power
    overflows to inf; at 1e-156 the input energy is subnormal, so the
    update overflows the weights first.  Every case reaches the finite
    check, which names the first iteration whose error power or updated
    weights are not finite."""
    scenario = load_scenario(step_size=step_size)
    if amplitude is not None:
        scenario = scenario._replace(
            sources=tuple(s._replace(amplitude=amplitude) for s in scenario.sources), noise_power=0.0
        )
    with pytest.raises(ValueError, match=rf"^iteration {iteration}: adaptation diverged"):
        run(scenario)


@pytest.mark.parametrize("chunk_rows", [None, 1, 2])
@pytest.mark.parametrize("iterations", [1, 2, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_divergence_names_the_same_iteration_whatever_the_run_length_or_chunk(iterations, chunk_rows, monkeypatch):
    """The 1e-156 case above: iteration 0's update overflows the weights
    while its error power is still finite, so iteration 0 is named whether
    the run ends there, a chunk ends there or neither."""
    if chunk_rows is not None:
        monkeypatch.setattr("wlansim.nlms.CHUNK_ROWS", chunk_rows)
    scenario = load_scenario(step_size=3.0, iterations=iterations)
    scenario = scenario._replace(
        sources=tuple(s._replace(amplitude=1e-156) for s in scenario.sources), noise_power=0.0
    )
    with pytest.raises(ValueError, match=r"^iteration 0: adaptation diverged"):
        run(scenario)


MIRROR_GRID = np.linspace(-math.pi / 2, math.pi / 2, 181).tolist()


@settings(max_examples=100, deadline=None)
@given(
    num_elements=st.integers(1, 16),
    spacing=st.floats(0.1, 2.0),
    step_size=st.floats(0.0, 2.0, exclude_max=True),
    iterations=st.integers(1, 400),
    sources=st.lists(
        st.tuples(
            st.floats(-1.5, 1.5),
            st.one_of(st.sampled_from([0.0, 0.5, -0.5]), st.floats(-0.5, 0.5)),
            st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_mirrored_scenario_runs_the_conjugate_adaptation(num_elements, spacing, step_size, iterations, sources):
    """Noise-free sinusoid sources with every angle and frequency negated:
    IEEE negation is exact and every kernel is conjugate-symmetric, so the
    weights and outputs are exactly the conjugates, the error power is the
    same and the pattern over the negated grid is the same.  Compared by
    value, so the sign of a zero is not."""
    roles = ["desired"] + ["interferer"] * (len(sources) - 1)
    base = small_scenario(
        num_elements=num_elements,
        spacing_wavelengths=spacing,
        step_size=step_size,
        iterations=iterations,
        sources=tuple(Source(r, a, "sinusoid", f, amp) for r, (a, f, amp) in zip(roles, sources)),
    )
    mirror = base._replace(
        sources=tuple(s._replace(angle_rad=-s.angle_rad, normalized_freq=-s.normalized_freq) for s in base.sources)
    )
    a, b = run(base), run(mirror)
    assert (b.error_power == a.error_power).all()
    assert (b.outputs == a.outputs.conj()).all()
    assert (b.converged_weights == a.converged_weights.conj()).all()
    assert [n for n, _ in b.weight_snapshots] == [n for n, _ in a.weight_snapshots]
    for (_, wb), (_, wa) in zip(b.weight_snapshots, a.weight_snapshots):
        assert (wb == wa.conj()).all()
    from wlansim.arrays import array_pattern

    pattern = array_pattern(a.converged_weights, spacing, MIRROR_GRID)
    mirrored = array_pattern(b.converged_weights, spacing, [-theta for theta in MIRROR_GRID])
    assert [gain for _, gain in mirrored] == [gain for _, gain in pattern]
