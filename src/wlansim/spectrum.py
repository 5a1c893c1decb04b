"""Discrete-Fourier magnitude spectra and before/after suppression reports."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def dft_magnitude(signal: Sequence[complex], size: int) -> np.ndarray:
    """Magnitude of the ``size``-point DFT of ``signal``, zero-padded.

    Bin ``k`` of the result is normalized frequency ``k / size``, in [0, 1).

    Raises:
        ValueError: for an empty signal or ``size`` below the signal length.
    """
    x = np.asarray(signal, dtype=complex)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("signal must be a nonempty 1-D sequence")
    if size < x.size:
        raise ValueError(f"transform size {size} smaller than signal length {x.size}")
    return np.abs(np.fft.fft(x, n=size))


def suppression_report(
    before: np.ndarray,
    after: np.ndarray,
    desired_bin: int,
    interferer_bin: int,
) -> tuple[float, float]:
    """Per-bin magnitude change of ``after`` relative to ``before``, in dB.

    Returns ``(desired_change_db, interferer_change_db)``.

    Raises:
        ValueError: for spectra of different sizes, identical probe bins
            or a zero before-magnitude at a probed bin (the ratio would be
            undefined).
    """
    if len(before) != len(after):
        raise ValueError(f"spectrum sizes differ: {len(before)} vs {len(after)}")
    if desired_bin == interferer_bin:
        raise ValueError("desired and interferer bins must be distinct")

    def change(bin_idx: int) -> float:
        b = before[bin_idx]
        a = after[bin_idx]
        if b == 0.0:
            raise ValueError(f"zero magnitude at bin {bin_idx} in the 'before' spectrum")
        if a == 0.0:
            return -math.inf
        return 20.0 * math.log10(a / b)

    return change(desired_bin), change(interferer_bin)
