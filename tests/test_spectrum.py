"""Tests for DFT magnitude spectra and the suppression report."""

import math

import numpy as np
import pytest
from oracles import dft_oracle

from wlansim.cli import EXIT_OK, main
from wlansim.spectrum import dft_magnitude, suppression_report


class TestDftMagnitude:
    def test_constant_signal_is_pure_dc(self):
        c = 0.7 - 0.2j
        size = 64
        mags = dft_magnitude([c] * size)
        assert mags[0] == pytest.approx(size * abs(c), rel=1e-12)
        assert np.max(mags[1:]) < 1e-9

    def test_unit_exponential_hits_single_bin(self):
        size = 128
        k = 37
        n = np.arange(size)
        signal = np.exp(2j * np.pi * k * n / size)
        mags = dft_magnitude(signal)
        assert mags[k] == pytest.approx(size, rel=1e-12)
        others = np.delete(mags, k)
        assert np.max(others) <= 1e-9

    def test_two_tone_matches_direct_oracle(self):
        size = 64
        n = np.arange(size)
        signal = 1.5 * np.exp(2j * np.pi * 5 * n / size) + 0.5 * np.exp(2j * np.pi * 20 * n / size)
        mags = dft_magnitude(signal)
        assert np.max(np.abs(mags - dft_oracle(signal))) < 1e-9

    @pytest.mark.parametrize("size", [8, 64, 256, 1024])
    def test_random_signals_match_oracle(self, size):
        rng = np.random.default_rng(size)
        signal = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        mags = dft_magnitude(signal)
        assert np.max(np.abs(mags - dft_oracle(signal))) < 1e-9

    def test_parseval_identity(self):
        rng = np.random.default_rng(9)
        for size in (16, 128, 1024):
            signal = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            mags = dft_magnitude(signal)
            time_energy = float(np.sum(np.abs(signal) ** 2))
            freq_energy = float(np.sum(mags**2)) / size
            assert freq_energy == pytest.approx(time_energy, rel=1e-9)

    def test_linearity_via_complex_transform_oracle(self):
        rng = np.random.default_rng(4)
        size = 64
        a = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        b = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        # Full complex-transform oracle: X(a+b) = X(a) + X(b) bin by bin.
        xa = np.fft.fft(a)
        xb = np.fft.fft(b)
        mags = dft_magnitude(a + b)
        assert np.max(np.abs(mags - np.abs(xa + xb))) < 1e-9

    def test_frequencies_are_normalized(self, tmp_path):
        """The spectrum outputs label bin k with frequency k / size."""
        assert main(["beamform", "--iterations", "4", "--out", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / "spectrum_before.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.25, 0.5, 0.75]


class TestSuppressionReport:
    def test_identity_gives_zero_change(self):
        rng = np.random.default_rng(1)
        signal = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        spectrum = dft_magnitude(signal)
        d, i = suppression_report(spectrum, spectrum, 3, 9)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert i == pytest.approx(0.0, abs=1e-12)

    def test_analytic_tone_removal(self):
        size = 256
        n = np.arange(size)
        desired = np.exp(2j * np.pi * 16 * n / size)
        interferer = 0.8 * np.exp(2j * np.pi * 48 * n / size)
        before = desired + interferer
        after = before - interferer  # exact removal
        d_chg, i_chg = suppression_report(
            dft_magnitude(before), dft_magnitude(after), 16, 48
        )
        assert d_chg == pytest.approx(0.0, abs=1e-6)
        assert i_chg <= -60.0

    def test_zero_before_magnitude_is_undefined(self):
        before = np.zeros(32)  # every bin is exactly empty
        for after in (np.ones(32), np.zeros(32)):
            d_chg, i_chg = suppression_report(dft_magnitude(before), dft_magnitude(after), 4, 7)
            assert math.isnan(d_chg) and math.isnan(i_chg)

    def test_zero_after_magnitude_is_minus_infinity(self):
        before = np.zeros(32)
        before[4] = before[7] = 1.0
        d_chg, i_chg = suppression_report(before, np.zeros(32), 4, 7)
        assert d_chg == i_chg == -math.inf
