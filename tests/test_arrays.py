"""Tests for steering vectors, snapshot synthesis and array patterns."""

import cmath
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlansim.arrays import (
    GAIN_FLOOR_DB,
    MAX_ELEMENTS,
    MAX_ITERATIONS,
    Scenario,
    Source,
    array_pattern,
    load_scenario,
    steering_vector,
    synthesize,
    _stream_words,
)
from wlansim.nlms import CHUNK_ROWS

from oracles import philox_words_oracle


def scenario_with(**overrides) -> Scenario:
    base = dict(
        num_elements=4,
        spacing_wavelengths=0.5,
        step_size=0.32,
        iterations=100,
        seed=11,
        noise_power=0.0,
        sources=(Source("desired", 0.3, "sinusoid", 0.1, 1.0),),
    )
    base.update(overrides)
    return Scenario(**base)


def snapshot(sc: Scenario, n: int) -> tuple[np.ndarray, complex]:
    """x(n) and d(n), synthesized alone."""
    X, d = synthesize(sc, range(n, n + 1))
    return X[0], complex(d[0])


def block(sc: Scenario, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``start <= n < stop`` as one range."""
    return synthesize(sc, range(start, stop))


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        for n in (1, 2, 8, 16):
            v = steering_vector(0.0, n, 0.5)
            assert np.allclose(v, np.ones(n))

    def test_two_element_endfire(self):
        v = steering_vector(math.pi / 2, 2, 0.5)
        assert v[0] == pytest.approx(1.0)
        assert v[1] == pytest.approx(-1.0, abs=1e-12)

    def test_eight_element_phase_progression(self):
        v = steering_vector(math.pi / 4, 8, 0.5)
        expected_step = -math.pi * math.sin(math.pi / 4)
        for k in range(8):
            # Per-element phase oracle: element k carries phase k*step.
            assert v[k] == pytest.approx(cmath.exp(1j * expected_step * k), abs=1e-12)

    def test_unit_magnitude_entries(self):
        for theta in np.linspace(-1.5, 1.5, 31):
            assert np.max(np.abs(np.abs(steering_vector(theta, 16, 0.37)) - 1.0)) < 1e-12


class TestSynthesize:
    def test_null_scenario_gives_zero_snapshot(self):
        sc = scenario_with(
            sources=(Source("desired", 0.3, "sinusoid", 0.1, 0.0),), noise_power=0.0
        )
        x, d = snapshot(sc, 5)
        assert np.all(x == 0)
        assert d == 0

    def test_single_element_passthrough(self):
        sc = scenario_with(num_elements=1, noise_power=0.0)
        for n in range(10):
            x, d = snapshot(sc, n)
            assert x[0] == pytest.approx(d, abs=1e-15)

    def test_matches_direct_summation_oracle(self):
        sc = load_scenario()
        x0, d0 = snapshot(sc, 0)
        # Element-wise sum oracle, built from the raw definitions.
        x = np.zeros(sc.num_elements, dtype=complex)
        for src in sc.sources:
            s = src.amplitude * cmath.exp(2j * math.pi * src.normalized_freq * 0)
            phase = -2j * math.pi * sc.spacing_wavelengths * math.sin(src.angle_rad)
            x += s * np.exp(phase * np.arange(sc.num_elements))
        noise = x0 - x
        # Residual must be the (reproducible) noise vector, bounded in power.
        assert np.mean(np.abs(noise) ** 2) < 20 * sc.noise_power
        assert d0 == pytest.approx(1.0, abs=1e-15)

    def test_noiseless_oracle_is_exact(self):
        sc = scenario_with(
            num_elements=6,
            sources=(
                Source("desired", 0.4, "sinusoid", 0.08, 1.3),
                Source("interferer", -0.7, "sinusoid", 0.21, 0.6),
            ),
        )
        n = 17
        got, _ = snapshot(sc, n)
        x = np.zeros(6, dtype=complex)
        for src in sc.sources:
            s = src.amplitude * cmath.exp(2j * math.pi * src.normalized_freq * n)
            x += s * np.exp(-2j * math.pi * 0.5 * math.sin(src.angle_rad) * np.arange(6))
        assert np.allclose(got, x, atol=1e-12)

    @pytest.mark.parametrize(
        "sources",
        [
            (
                Source("desired", 0.4, "sinusoid", 0.08, 1.3),
                Source("interferer", -0.7, "sinusoid", 0.21, 0.0),
                Source("interferer", 0.9, "sinusoid", -0.33, 0.6),
            ),
            (Source("desired", -0.7, "sinusoid", 0.21, 0.0),),
        ],
        ids=["tones", "silent"],
    )
    def test_noiseless_block_is_the_source_sum_bit_for_bit(self, sources):
        """At zero noise power the noise adds only signed zeros, which leave
        every bit of the source sum as it was.  A silent source's terms hold
        negative zeros, and summed onto +0.0 they read +0.0: zero signs that
        ``== 0`` and ``approx`` cannot see."""
        sc = scenario_with(num_elements=5, sources=sources)
        X, _ = block(sc, 0, 40)
        expected = np.zeros((40, 5), dtype=complex)
        for src in sources:
            s = np.array([src.amplitude * cmath.exp(2j * math.pi * src.normalized_freq * n) for n in range(40)])
            expected += s[:, None] * steering_vector(src.angle_rad, 5, sc.spacing_wavelengths)
        assert X.tobytes() == expected.tobytes()

    def test_reproducible_bit_identical(self):
        sc = scenario_with(noise_power=0.5, seed=99)
        xa, da = snapshot(sc, 7)
        xb, db = snapshot(sc, 7)
        assert xa.tobytes() == xb.tobytes()
        assert da == db

    def test_order_independent(self):
        sc = scenario_with(noise_power=0.5, seed=99)
        direct, _ = snapshot(sc, 3)
        for n in (9, 1, 4):
            snapshot(sc, n)
        assert snapshot(sc, 3)[0].tobytes() == direct.tobytes()

    def test_symbol_waveform_unit_modulus_and_deterministic(self):
        sc = scenario_with(
            num_elements=1,
            sources=(Source("desired", 0.0, "symbols", amplitude=2.0),),
        )
        seen = set()
        for n in range(50):
            _, d = snapshot(sc, n)
            assert abs(d) == pytest.approx(2.0, abs=1e-12)
            seen.add(complex(round(d.real, 9), round(d.imag, 9)))
        assert len(seen) > 1
        assert snapshot(sc, 13)[1] == snapshot(sc, 13)[1]

    def test_noise_power_matches_configuration(self):
        # >= 1e5 noise samples: 50 elements x 2000 snapshots.
        sc = scenario_with(
            num_elements=50,
            noise_power=2.5,
            sources=(Source("desired", 0.0, "sinusoid", 0.1, 0.0),),
            seed=5,
        )
        total = 0.0
        count = 0
        for n in range(2000):
            x, _ = snapshot(sc, n)
            total += float(np.sum(np.abs(x) ** 2))
            count += x.size
        assert count >= 1e5
        assert total / count == pytest.approx(2.5, rel=0.03)

    def test_block_rows_equal_single_snapshots_across_a_chunk_boundary(self):
        sc = scenario_with(
            noise_power=0.5,
            seed=99,
            sources=(
                Source("desired", 0.3, "symbols", amplitude=1.5),
                Source("interferer", -0.6, "sinusoid", 0.23, 0.8),
            ),
        )
        start, stop = CHUNK_ROWS - 4, CHUNK_ROWS + 4
        X, d = block(sc, start, stop)
        assert X.shape == (stop - start, sc.num_elements)
        partition = [range(start, start + 3), range(start + 3, start + 6), range(start + 6, stop)]
        blocks = [synthesize(sc, rows) for rows in partition]
        assert [len(bd) for _, bd in blocks] == [3, 3, 2]
        X3 = np.concatenate([bx for bx, _ in blocks])
        d3 = np.concatenate([bd for _, bd in blocks])
        for n in range(start, stop):
            x, dn = snapshot(sc, n)
            assert x.tobytes() == X[n - start].tobytes() == X3[n - start].tobytes()
            assert dn == d[n - start] == d3[n - start]

    @pytest.mark.parametrize("num_elements", [1, 3, 5])
    def test_rows_equal_alone_and_inside_any_block(self, num_elements):
        """Odd element counts leave a row's noise words short of whole
        Philox blocks, and symbol sample n sits at word n % 4 of a block:
        a row must not depend on where its block starts or ends."""
        sc = scenario_with(
            num_elements=num_elements,
            noise_power=0.5,
            seed=2**64 - 1,
            sources=(
                Source("desired", 0.3, "symbols", amplitude=1.5),
                Source("interferer", -0.6, "symbols", amplitude=0.8),
            ),
        )
        start, stop = 3, 40
        singles = [snapshot(sc, n) for n in range(start, stop)]
        for size in (1, 2, 3, 5, 8, stop - start):
            partition = [range(first, min(first + size, stop)) for first in range(start, stop, size)]
            blocks = [synthesize(sc, rows) for rows in partition]
            X = np.concatenate([bx for bx, _ in blocks])
            d = np.concatenate([bd for _, bd in blocks])
            for n, (x, dn) in enumerate(singles, start):
                assert x.tobytes() == X[n - start].tobytes(), (size, n)
                assert dn == d[n - start], (size, n)

    def test_noise_is_circular_gaussian_of_the_configured_power(self):
        # 1e5 noise samples: 50 elements x 2000 snapshots, no source power.
        power = 2.5
        sc = scenario_with(
            num_elements=50,
            noise_power=power,
            sources=(Source("desired", 0.0, "sinusoid", 0.1, 0.0),),
            seed=5,
        )
        X, _ = block(sc, 0, 2000)
        count = X.size
        half = power / 2
        for part in (X.real.ravel(), X.imag.ravel()):
            assert abs(part.mean()) <= 5 * math.sqrt(half / count)
            assert part.var() == pytest.approx(half, rel=0.02)
            # Gaussian, not just of the right power: fourth moment 3 var^2.
            assert np.mean(part**4) / part.var() ** 2 == pytest.approx(3.0, abs=0.1)
        correlation = np.corrcoef(X.real.ravel(), X.imag.ravel())[0, 1]
        assert abs(correlation) <= 0.02

    def test_seeds_and_streams_give_different_randomness(self):
        noise = scenario_with(noise_power=1.0, sources=(Source("desired", 0.0, "sinusoid", 0.1, 0.0),))
        draws = [block(noise._replace(seed=seed), 0, 64)[0] for seed in (0, 1, 2**63, 2**64 - 1)]
        for i, a in enumerate(draws):
            for b in draws[i + 1 :]:
                assert not np.any(a == b)
        # Two sources configured alike read streams 1 and 2: on one element
        # at broadside the interferer's symbols are x - d.
        symbols = scenario_with(
            num_elements=1,
            sources=(Source("desired", 0.0, "symbols"), Source("interferer", 0.0, "symbols")),
        )
        X, d = block(symbols, 0, 64)
        assert not np.allclose(X[:, 0] - d, d)
        words = [_stream_words(7, stream, range(64)) for stream in (0, 1, 2)]
        assert not np.any(words[0] == words[1]) and not np.any(words[1] == words[2])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 3),
    start=st.integers(0, 10**4),
    length=st.integers(0, 70),
)
# The extreme seeds, a start at every residue mod 4, an empty range, and a
# start past 2**34 words, whose counters pass 2**32.
@example(seed=0, stream=0, start=0, length=0)
@example(seed=2**64 - 1, stream=1, start=1, length=1)
@example(seed=0, stream=2, start=2, length=7)
@example(seed=2**64 - 1, stream=3, start=3, length=70)
@example(seed=20240511, stream=0, start=2**34 + 5, length=30)
def test_stream_words_equal_numpys_philox(seed, stream, start, length):
    words = range(start, start + length)
    got = _stream_words(seed, stream, words)
    assert got.dtype == np.uint64
    assert got.tolist() == philox_words_oracle(seed, stream, words).tolist()


class TestScenarioIO:
    def test_json_roundtrip(self, tmp_path):
        sc = load_scenario()
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(sc.to_dict()))
        assert load_scenario(path) == sc

    @pytest.mark.parametrize(
        "overrides,pin",
        [({}, "21c64220576b"), ({"iterations": 12000, "seed": 1}, "3e6a9cb140e8")],
        ids=["shipped", "flag-overrides"],
    )
    def test_to_dict_lists_every_field(self, overrides, pin):
        sc = load_scenario(**overrides)
        expected = {
            "num_elements": sc.num_elements,
            "spacing_wavelengths": sc.spacing_wavelengths,
            "step_size": sc.step_size,
            "iterations": sc.iterations,
            "seed": sc.seed,
            "noise_power": sc.noise_power,
            "sources": [
                {"role": s.role, "angle_rad": s.angle_rad, "waveform": s.waveform,
                 "normalized_freq": s.normalized_freq, "amplitude": s.amplitude}
                for s in sc.sources
            ],
        }
        assert sc.to_dict() == expected
        # The beamform manifest's config_sha256 is this digest.
        blob = json.dumps(sc.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest()[:12] == pin

    def test_shipped_scenario_values(self):
        assert load_scenario() == Scenario(
            num_elements=8,
            spacing_wavelengths=0.5,
            step_size=0.32,
            iterations=5000,
            seed=20240511,
            noise_power=0.01,
            sources=(
                Source("desired", math.pi / 4, "sinusoid", 0.125, 1.0),
                Source("interferer", -math.pi / 4, "sinusoid", 0.25, 1.0),
            ),
        )

    def test_overrides_replace_file_values_and_pass_its_checks(self):
        sc = load_scenario(iterations=300, seed=7)
        assert (sc.iterations, sc.seed) == (300, 7)
        assert sc._replace(iterations=5000, seed=20240511) == load_scenario()
        with pytest.raises(ValueError, match=r"^iterations: must be >= 1, got 0$"):
            load_scenario(iterations=0)

    @pytest.mark.parametrize(
        "index,key,value",
        [
            (1, "amplitude", -1),
            (0, "role", "jammer"),
            (0, "waveform", "chirp"),
            (1, "angle_rad", 2.0),
            (0, "angle_rad", "0.785"),
            (1, "normalized_freq", True),
        ],
    )
    def test_source_errors_name_the_source(self, tmp_path, index, key, value):
        data = load_scenario().to_dict()
        data["sources"][index][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="^" + re.escape(f"sources[{index}].{key}: ")):
            load_scenario(path)

    @pytest.mark.parametrize(
        "sources,message",
        [
            ([], "sources: at least one source required"),
            ([{"role": "interferer", "angle_rad": 0.1}], "sources: no source with role 'desired'"),
        ],
        ids=["no-source", "no-desired-source"],
    )
    def test_source_list_errors(self, sources, message):
        data = load_scenario().to_dict()
        data["sources"] = sources
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            Scenario.from_dict(data)

    def test_validation_messages_name_the_field(self, tmp_path):
        data = load_scenario().to_dict()
        data["iterations"] = 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="iterations"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "path,value,field",
        [
            (("step_size",), math.nan, "step_size"),
            (("noise_power",), math.inf, "noise_power"),
            (("spacing_wavelengths",), -math.inf, "spacing_wavelengths"),
            (("sources", 0, "amplitude"), math.nan, "sources[0].amplitude"),
            (("sources", 1, "normalized_freq"), math.inf, "sources[1].normalized_freq"),
        ],
    )
    def test_non_finite_fields_rejected_by_name(self, path, value, field):
        data = load_scenario().to_dict()
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError, match=re.escape(f"{field}: must be finite")):
            Scenario.from_dict(data)

    @pytest.mark.parametrize(
        "faults,message",
        [
            (
                {("spacing_wavelengths",): math.nan, ("sources", 0, "amplitude"): "x"},
                "spacing_wavelengths: must be finite, got nan",
            ),
            (
                {("sources", 0, "angle_rad"): math.inf, ("sources", 0, "amplitude"): "x"},
                "sources[0].angle_rad: must be finite, got inf",
            ),
        ],
        ids=["nan-spacing", "inf-angle"],
    )
    def test_first_faulty_field_in_reading_order_is_named(self, faults, message):
        # A number is refused non-finite as it is read, so a NaN or inf
        # read before another field's fault is the one reported.
        data = load_scenario().to_dict()
        for path, value in faults.items():
            target = data
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("iterations", 300.7),
            ("iterations", True),
            ("num_elements", 2.9),
            ("seed", 1.5),
            ("seed", -1),
            ("seed", 2**64),
            ("iterations", "300"),
            ("num_elements", "8"),
            ("seed", "7"),
        ],
    )
    def test_integer_fields_rejected_by_name(self, field, value):
        data = load_scenario().to_dict()
        data[field] = value
        with pytest.raises(ValueError, match=f"^{field}: "):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("field,bound", [("iterations", MAX_ITERATIONS), ("num_elements", MAX_ELEMENTS)])
    def test_size_fields_are_bounded(self, field, bound):
        data = load_scenario().to_dict()
        data[field] = bound
        assert getattr(Scenario.from_dict(data), field) == bound
        data[field] = bound + 1  # rejected before anything of that size is allocated
        message = f"{field}: must be <= {bound}, got {bound + 1}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Scenario.from_dict(data)

    def test_whole_float_accepted_for_integer_field(self):
        data = load_scenario().to_dict()
        data["iterations"] = 300.0
        data["seed"] = float(2**53)
        sc = Scenario.from_dict(data)
        assert (sc.iterations, sc.seed) == (300, 2**53)
        assert type(sc.iterations) is int and type(sc.seed) is int

    def test_missing_field_reported(self, tmp_path):
        data = load_scenario().to_dict()
        del data["seed"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="seed"):
            load_scenario(path)

    def test_source_angle_range_enforced(self):
        data = load_scenario().to_dict()
        data["sources"][0]["angle_rad"] = math.pi / 2
        with pytest.raises(ValueError, match=re.escape("sources[0].angle_rad: ")):
            Scenario.from_dict(data)


class TestArrayPattern:
    def test_uniform_weights_peak_at_broadside(self):
        n = 8
        pattern = array_pattern(np.ones(n) / n, 0.5, [0.0])
        assert pattern[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_weights_hit_gain_floor(self):
        # w orthogonal to a(0) = [1, 1].
        w = np.array([1.0, -1.0]) / 2
        pattern = array_pattern(w, 0.5, [0.0])
        assert pattern[0][1] == GAIN_FLOOR_DB

    def test_two_element_first_null_by_scan_oracle(self):
        w = np.ones(2) / 2
        grid = np.linspace(0, math.pi / 2 - 1e-6, 20001)
        gains = [g for _, g in array_pattern(w, 0.5, grid)]
        null_theta = grid[int(np.argmin(gains))]
        # First null of a 2-element half-wave array: sin(theta) = 1/(2*spacing).
        assert math.sin(null_theta) == pytest.approx(1.0 / (2 * 0.5), abs=1e-3)

    def test_peak_at_steered_angle(self):
        theta0 = 0.6
        w = steering_vector(theta0, 8, 0.5) / 8
        grid = np.linspace(-math.pi / 2, math.pi / 2, 2001)
        pattern = array_pattern(w, 0.5, grid)
        angles = [a for a, _ in pattern]
        gains = [g for _, g in pattern]
        peak = angles[int(np.argmax(gains))]
        step = grid[1] - grid[0]
        assert abs(peak - theta0) <= step
