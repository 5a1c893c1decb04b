"""Tests for DFT magnitude spectra and the suppression report."""

import io

import numpy as np
import pytest
from oracles import dft_oracle

from wlansim.spectrum import dft_magnitude, spectrum_to_csv, suppression_report


class TestDftMagnitude:
    def test_constant_signal_is_pure_dc(self):
        c = 0.7 - 0.2j
        size = 64
        result = dft_magnitude([c] * size, size)
        assert result.magnitudes[0] == pytest.approx(size * abs(c), rel=1e-12)
        assert np.max(result.magnitudes[1:]) < 1e-9

    def test_unit_exponential_hits_single_bin(self):
        size = 128
        k = 37
        n = np.arange(size)
        signal = np.exp(2j * np.pi * k * n / size)
        result = dft_magnitude(signal, size)
        assert result.magnitudes[k] == pytest.approx(size, rel=1e-12)
        others = np.delete(result.magnitudes, k)
        assert np.max(others) <= 1e-9

    def test_two_tone_matches_direct_oracle(self):
        size = 64
        n = np.arange(size)
        signal = 1.5 * np.exp(2j * np.pi * 5 * n / size) + 0.5 * np.exp(2j * np.pi * 20 * n / size)
        result = dft_magnitude(signal, size)
        assert np.max(np.abs(result.magnitudes - dft_oracle(signal, size))) < 1e-9

    @pytest.mark.parametrize("size", [8, 64, 256, 1024])
    def test_random_signals_match_oracle(self, size):
        rng = np.random.default_rng(size)
        signal = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        result = dft_magnitude(signal, size)
        assert np.max(np.abs(result.magnitudes - dft_oracle(signal, size))) < 1e-9

    def test_zero_padding(self):
        signal = [1.0, 2.0, 3.0]
        result = dft_magnitude(signal, 16)
        assert result.size == 16
        assert np.max(np.abs(result.magnitudes - dft_oracle(signal, 16))) < 1e-9

    def test_parseval_identity(self):
        rng = np.random.default_rng(9)
        for size in (16, 128, 1024):
            signal = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            result = dft_magnitude(signal, size)
            time_energy = float(np.sum(np.abs(signal) ** 2))
            freq_energy = float(np.sum(result.magnitudes**2)) / size
            assert freq_energy == pytest.approx(time_energy, rel=1e-9)

    def test_linearity_via_complex_transform_oracle(self):
        rng = np.random.default_rng(4)
        size = 64
        a = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        b = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        # Full complex-transform oracle: X(a+b) = X(a) + X(b) bin by bin.
        xa = np.fft.fft(a)
        xb = np.fft.fft(b)
        result = dft_magnitude(a + b, size)
        assert np.max(np.abs(result.magnitudes - np.abs(xa + xb))) < 1e-9

    def test_frequencies_are_normalized(self):
        result = dft_magnitude([1.0, 0.0], 4)
        assert list(result.freqs) == [0.0, 0.25, 0.5, 0.75]

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            dft_magnitude([], 8)

    def test_size_below_signal_length_rejected(self):
        with pytest.raises(ValueError, match="size"):
            dft_magnitude([1.0, 2.0, 3.0], 2)


class TestSuppressionReport:
    def test_identity_gives_zero_change(self):
        rng = np.random.default_rng(1)
        signal = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        spectrum = dft_magnitude(signal, 64)
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
            dft_magnitude(before, size), dft_magnitude(after, size), 16, 48
        )
        assert d_chg == pytest.approx(0.0, abs=1e-6)
        assert i_chg <= -60.0

    def test_zero_before_magnitude_rejected(self):
        before = np.zeros(32)  # every bin is exactly empty
        after = np.ones(32)
        with pytest.raises(ValueError, match="zero magnitude"):
            suppression_report(dft_magnitude(before, 32), dft_magnitude(after, 32), 4, 7)

    def test_identical_bins_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            suppression_report(dft_magnitude([1.0], 8), dft_magnitude([1.0], 8), 3, 3)

    def test_spectrum_sizes_must_match(self):
        with pytest.raises(ValueError, match="sizes differ"):
            suppression_report(dft_magnitude([1.0], 8), dft_magnitude([1.0], 16), 3, 5)


def test_csv_export_schema():
    out = io.StringIO()
    spectrum_to_csv(dft_magnitude([1.0, 1.0], 4), out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "normalized_freq,magnitude,magnitude_db"
    assert len(lines) == 5
