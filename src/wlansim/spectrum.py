"""Discrete-Fourier magnitude spectra and before/after suppression reports."""

from __future__ import annotations

import math

import numpy as np


def dft_magnitude(signal: np.ndarray) -> np.ndarray:
    """Magnitude of the DFT of ``signal``, a nonempty 1-D complex array.

    The transform is as long as the signal: bin ``k`` of the result is
    normalized frequency ``k / len(signal)``, in [0, 1).
    """
    return np.abs(np.fft.fft(signal))


def suppression_report(
    before: np.ndarray,
    after: np.ndarray,
    desired_bin: int,
    interferer_bin: int,
) -> tuple[float, float]:
    """Per-bin magnitude change of ``after`` relative to ``before``, in dB.

    The spectra have one size and the two bins are distinct bins of it.
    Returns ``(desired_change_db, interferer_change_db)``: each is NaN, as
    undefined, where the before-magnitude is zero, and ``-inf`` where only
    the after-magnitude is.
    """
    def change(bin_idx: int) -> float:
        b = before[bin_idx]
        a = after[bin_idx]
        if b == 0.0:
            return math.nan
        if a == 0.0:
            return -math.inf
        return 20.0 * math.log10(a / b)

    return change(desired_bin), change(interferer_bin)
