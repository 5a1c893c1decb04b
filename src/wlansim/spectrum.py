"""Discrete-Fourier magnitude spectra and before/after suppression reports."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

# Floor for dB conversion of zero-magnitude bins in CSV output.
_MAG_FLOOR = 1e-15


@dataclass(frozen=True)
class SpectrumResult:
    """Magnitude spectrum over normalized frequencies in [0, 1)."""

    freqs: np.ndarray
    magnitudes: np.ndarray
    size: int


def dft_magnitude(signal: Sequence[complex], size: int, window: str | None = None) -> SpectrumResult:
    """Magnitude of the ``size``-point DFT of ``signal``, zero-padded.

    ``window='hann'`` applies a Hann window before the transform (report
    aesthetics only; windowing breaks the Parseval identity).

    Raises:
        ValueError: for an empty signal or ``size`` below the signal length.
    """
    x = np.asarray(signal, dtype=complex)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("signal must be a nonempty 1-D sequence")
    if size < x.size:
        raise ValueError(f"transform size {size} smaller than signal length {x.size}")
    if window == "hann":
        x = x * np.hanning(x.size)
    elif window is not None:
        raise ValueError(f"unknown window {window!r}")
    mags = np.abs(np.fft.fft(x, n=size))
    freqs = np.arange(size) / size
    return SpectrumResult(freqs=freqs, magnitudes=mags, size=size)


def suppression_report(
    before: Sequence[complex],
    after: Sequence[complex],
    desired_bin: int,
    interferer_bin: int,
    size: int,
) -> tuple[float, float]:
    """Per-bin magnitude change of ``after`` relative to ``before``, in dB.

    Returns ``(desired_change_db, interferer_change_db)``.

    Raises:
        ValueError: for identical probe bins or a zero before-magnitude at
            a probed bin (the ratio would be undefined).
    """
    if desired_bin == interferer_bin:
        raise ValueError("desired and interferer bins must be distinct")
    spec_before = dft_magnitude(before, size)
    spec_after = dft_magnitude(after, size)

    def change(bin_idx: int) -> float:
        b = spec_before.magnitudes[bin_idx]
        a = spec_after.magnitudes[bin_idx]
        if b == 0.0:
            raise ValueError(f"zero magnitude at bin {bin_idx} in the 'before' spectrum")
        if a == 0.0:
            return -math.inf
        return 20.0 * math.log10(a / b)

    return change(desired_bin), change(interferer_bin)


def spectrum_to_csv(result: SpectrumResult, out: IO[str]) -> None:
    """Write a spectrum as CSV: normalized_freq,magnitude,magnitude_db."""
    writer = csv.writer(out)
    writer.writerow(["normalized_freq", "magnitude", "magnitude_db"])
    for f, m in zip(result.freqs, result.magnitudes):
        writer.writerow([f, m, 20.0 * math.log10(max(m, _MAG_FLOOR))])
