"""Normalized-LMS adaptive beamformer and convergence traces.

Each iteration computes the array output ``y = w^H x``, the error
``e = d - y`` against the clean reference, and the normalized update
``w <- w + mu/(||x||^2 + eps) * x * conj(e)``.  Adaptation runs in
training mode: the reference is the known desired-source waveform.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .arrays import Scenario, synthesize

# Relative regularization applied to the norm denominator by run();
# scaled by the scenario's expected snapshot energy.
RELATIVE_EPS = 1e-12

# Snapshots synthesized and adapted per chunk by run(), so memory does not
# grow with the run length.  A 12000-iteration run makes 12 Philox kernel
# calls at 1024 rows against 47 at 256, and peaked at 33.9 MB RSS through
# the CLI against 34.2 MB at 256.
CHUNK_ROWS = 1024

# The plateau criterion of ConvergenceTrace.plateau_iteration().
PLATEAU_WINDOW = 100
PLATEAU_REL_CHANGE = 1e-3


def final_tenth(iterations: int) -> int:
    """Length of a run's final span: its last tenth, at least one iteration.

    The weight-snapshot stride and the window that both
    ``converged_weights`` and ``final_error_power`` average over.
    """
    return max(1, iterations // 10)


def update(
    w: np.ndarray, x: np.ndarray, d: complex, mu: float, eps: float
) -> tuple[complex, complex, np.ndarray]:
    """One NLMS iteration: the output ``y``, the error ``e`` and the next weights.

    Expects finite ``w``, ``x`` and ``d`` and ``mu, eps >= 0``.  A zero
    denominator ``||x||^2 + eps`` skips the update, and a zero error
    returns ``w`` itself: adding a zero array would rewrite the sign of
    negative zeros.
    """
    y = complex(np.vdot(w, x))
    e = d - y
    denom = float(np.vdot(x, x).real) + eps
    if denom != 0.0 and e != 0:
        w = w + (mu / denom) * x * e.conjugate()
    return y, e, w


class ConvergenceTrace(NamedTuple):
    """Per-iteration record of one adaptive run, holding only what the
    adaptation made: ``synthesize`` regenerates the inputs of any range of
    its iterations.

    ``converged_weights`` and ``final_error_power`` are the mean weight
    vector and the mean error power over the last ``final_tenth``
    iterations; the former is a lower-variance estimate of the settled
    solution than the single final vector, the last of ``weight_snapshots``.
    """

    error_power: np.ndarray
    outputs: np.ndarray
    weight_snapshots: list[tuple[int, np.ndarray]]
    converged_weights: np.ndarray
    final_error_power: float

    def plateau_iteration(self) -> int | None:
        """First iteration where the windowed error-power mean settles.

        The plateau criterion is a relative change of the trailing
        ``PLATEAU_WINDOW``-sample mean below ``PLATEAU_REL_CHANGE``.
        Reporting only; the run itself never exits early.
        """
        if len(self.error_power) < 2 * PLATEAU_WINDOW:
            return None
        means = np.convolve(self.error_power, np.ones(PLATEAU_WINDOW) / PLATEAU_WINDOW, mode="valid")
        prev = means[:-PLATEAU_WINDOW]
        cur = means[PLATEAU_WINDOW:]
        ok = np.abs(cur - prev) < PLATEAU_REL_CHANGE * np.maximum(prev, 1e-300)
        hits = np.nonzero(ok)[0]
        return int(hits[0]) + 2 * PLATEAU_WINDOW - 1 if hits.size else None


def run(scenario: Scenario) -> ConvergenceTrace:
    """Synthesize and adapt for the scenario's configured iteration count.

    Weight snapshots are recorded every ``final_tenth(iterations)``
    iterations (the final weights are always recorded).  Deterministic for
    a fixed scenario; bit-identical to the fold in ``tests/oracles.py``.

    Raises:
        ValueError: if the adaptation diverges, naming the first iteration
            whose error power or updated weights are not finite, whatever
            the run length or ``CHUNK_ROWS``.  The error power overflows to
            ``inf`` and never raises, so each row's is checked as it is made.
    """
    n_iter = scenario.iterations
    tail = final_tenth(n_iter)
    # Expected per-snapshot energy sets the regularization scale; fsum rounds
    # it alike on every Python version.
    expected_energy = scenario.num_elements * (
        math.fsum([s.amplitude * s.amplitude for s in scenario.sources]) + scenario.noise_power
    )
    mu = scenario.step_size
    eps = RELATIVE_EPS * expected_energy
    w = np.zeros(scenario.num_elements, dtype=complex)

    err = np.empty(n_iter)
    out = np.empty(n_iter, dtype=complex)
    snapshots: list[tuple[int, np.ndarray]] = []
    tail_start = n_iter - tail
    w_sum = np.zeros(scenario.num_elements, dtype=complex)

    # Divergence is detected and reported below; numpy's overflow warnings
    # would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n_iter, CHUNK_ROWS):
            rows = range(first, min(first + CHUNK_ROWS, n_iter))
            X, d = synthesize(scenario, rows)
            for n, x, dn in zip(rows, X, d.tolist()):
                y, e, w_next = update(w, x, dn, mu, eps)
                err[n] = power = e.real * e.real + e.imag * e.imag
                if not math.isfinite(power):
                    # Non-finite weights give a non-finite output (inf * 0
                    # is NaN), so the row before may have diverged first.
                    raise _diverged(n if np.isfinite(w).all() else n - 1, mu)
                w = w_next
                out[n] = y
                if (n + 1) % tail == 0 or n == n_iter - 1:
                    snapshots.append((n, w.copy()))
                if n >= tail_start:
                    w_sum += w
        if not np.isfinite(w).all():
            raise _diverged(n_iter - 1, mu)

    return ConvergenceTrace(
        error_power=err,
        outputs=out,
        weight_snapshots=snapshots,
        converged_weights=w_sum / tail,
        final_error_power=float(err[tail_start:].mean()),
    )


def _diverged(n: int, mu: float) -> ValueError:
    return ValueError(
        f"iteration {n}: adaptation diverged, error power or weights not finite "
        f"(step_size {mu}; NLMS is stable only for 0 < step_size < 2)"
    )
