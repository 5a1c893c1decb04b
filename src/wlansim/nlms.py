"""Normalized-LMS adaptive beamformer and convergence traces.

Each step computes the array output ``y = w^H x``, the error
``e = d - y`` against the clean reference, and the normalized update
``w <- w + mu/(||x||^2 + eps) * x * conj(e)``.  Adaptation runs in
training mode: the reference is the known desired-source waveform.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import IO

import numpy as np

from .arrays import Scenario, Snapshot, synthesize_blocks

# Relative regularization applied to the norm denominator by run();
# scaled by the scenario's expected snapshot energy.
RELATIVE_EPS = 1e-12

# Snapshots synthesized and adapted per block by run(), so memory does not
# grow with the run length.  Larger blocks bought no measurable speed, and
# 1024-row blocks raised the peak RSS of a 12000-iteration run by 0.2 MB
# through their temporaries.
CHUNK_ROWS = 256


@dataclass(frozen=True)
class BeamformerState:
    """Adaptive weight vector with its step size and iteration counter."""

    w: np.ndarray
    mu: float
    n: int = 0
    eps: float = 0.0

    def __post_init__(self) -> None:
        if self.mu < 0:
            raise ValueError(f"step size must be >= 0, got {self.mu}")
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")


@dataclass(frozen=True)
class StepResult:
    """Output, error and updated state of a single adaptation step.

    ``skipped`` is set when the update was suppressed because the input
    energy plus eps was exactly zero.
    """

    y: complex
    e: complex
    state: BeamformerState
    skipped: bool = False


def initial_state(num_elements: int, mu: float, eps: float = 0.0) -> BeamformerState:
    """All-zeros starting weights, so the first output is exactly 0."""
    return BeamformerState(w=np.zeros(num_elements, dtype=complex), mu=mu, eps=eps)


def step(state: BeamformerState, snap: Snapshot) -> StepResult:
    """Run one NLMS iteration on a snapshot.

    Raises:
        ValueError: if the snapshot and weight dimensions disagree.
    """
    x = np.asarray(snap.x)
    if x.shape != state.w.shape:
        raise ValueError(f"snapshot length {x.shape} does not match weights {state.w.shape}")
    y = complex(np.vdot(state.w, x))
    e = snap.d - y
    denom = float(np.real(np.vdot(x, x))) + state.eps
    if denom == 0.0:
        return StepResult(y=y, e=e, state=replace(state, n=state.n + 1), skipped=True)
    if e == 0:
        # The update term is exactly zero; keep the weights bit-identical
        # (adding a zero array would rewrite the sign of negative zeros).
        return StepResult(y=y, e=e, state=replace(state, n=state.n + 1))
    w_next = state.w + (state.mu / denom) * x * np.conj(e)
    return StepResult(y=y, e=e, state=replace(state, w=w_next, n=state.n + 1))


@dataclass
class ConvergenceTrace:
    """Per-iteration record of one adaptive run.

    ``first_element_input`` is the raw element-0 observation, kept so
    before/after-adaptation spectra can be compared.  ``converged_weights``
    is the mean weight vector over the final 10% of iterations, a
    lower-variance estimate of the settled solution than the single final
    vector; ``final_weights`` is that last instantaneous vector.
    """

    error_power: np.ndarray
    outputs: np.ndarray
    first_element_input: np.ndarray
    weight_snapshots: list[tuple[int, np.ndarray]]
    final_weights: np.ndarray
    converged_weights: np.ndarray
    seed: int

    @property
    def iterations(self) -> int:
        return len(self.error_power)

    def plateau_iteration(self, window: int = 100, rel_change: float = 1e-3) -> int | None:
        """First iteration where the windowed error-power mean settles.

        The plateau criterion is a relative change of the trailing
        ``window``-sample mean below ``rel_change``.  Reporting only; the
        run itself never exits early.
        """
        if self.iterations < 2 * window:
            return None
        means = np.convolve(self.error_power, np.ones(window) / window, mode="valid")
        prev = means[:-window]
        cur = means[window:]
        ok = np.abs(cur - prev) < rel_change * np.maximum(prev, 1e-300)
        hits = np.nonzero(ok)[0]
        return int(hits[0]) + 2 * window - 1 if hits.size else None


def run(scenario: Scenario, snapshot_stride: int | None = None) -> ConvergenceTrace:
    """Synthesize and adapt for the scenario's configured iteration count.

    Weight snapshots are recorded every ``snapshot_stride`` iterations when
    given (the final weights are always recorded).  Deterministic for a
    fixed scenario; bit-identical to folding ``step`` over ``synthesize``.

    Raises:
        ValueError: if the adaptation diverges (error power or weights
            stop being finite), naming the iteration.
    """
    if snapshot_stride is not None and snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    n_iter = scenario.iterations
    # Expected per-snapshot energy sets the regularization scale.
    expected_energy = scenario.num_elements * (
        sum(s.amplitude**2 for s in scenario.sources) + scenario.noise_power
    )
    mu = scenario.step_size
    eps = RELATIVE_EPS * expected_energy
    w = np.zeros(scenario.num_elements, dtype=complex)

    err = np.empty(n_iter)
    out = np.empty(n_iter, dtype=complex)
    x0 = np.empty(n_iter, dtype=complex)
    snapshots: list[tuple[int, np.ndarray]] = []
    tail_start = max(0, n_iter - max(1, n_iter // 10))
    w_sum = np.zeros(scenario.num_elements, dtype=complex)

    # Divergence is detected and reported per chunk below; numpy's
    # overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        stop = 0
        for X, d in synthesize_blocks(scenario, 0, n_iter, CHUNK_ROWS):
            start, stop = stop, stop + len(d)
            errs, ys = [], []
            try:
                # The arithmetic of step(), on raw arrays.
                for n, x, dn in zip(range(start, stop), X, d.tolist()):
                    y = complex(np.vdot(w, x))
                    e = dn - y
                    denom = float(np.vdot(x, x).real) + eps
                    # A zero denominator skips the update; a zero error leaves
                    # the weights bit-identical.
                    if denom != 0.0 and e != 0:
                        w = w + (mu / denom) * x * np.conj(e)
                    errs.append(abs(e) ** 2)
                    ys.append(y)
                    if snapshot_stride is not None and (n + 1) % snapshot_stride == 0:
                        snapshots.append((n, w.copy()))
                    if n >= tail_start:
                        w_sum += w
            except OverflowError as exc:
                raise _diverged(n, mu) from exc
            err[start:stop] = errs
            out[start:stop] = ys
            x0[start:stop] = X[:, 0]
            bad = np.flatnonzero(~np.isfinite(err[start:stop]))
            if bad.size:
                raise _diverged(start + int(bad[0]), mu)
            if not np.isfinite(w).all():
                raise _diverged(stop - 1, mu)

    if not snapshots or snapshots[-1][0] != n_iter - 1:
        snapshots.append((n_iter - 1, w.copy()))
    return ConvergenceTrace(
        error_power=err,
        outputs=out,
        first_element_input=x0,
        weight_snapshots=snapshots,
        final_weights=w.copy(),
        converged_weights=w_sum / (n_iter - tail_start),
        seed=scenario.seed,
    )


def _diverged(n: int, mu: float) -> ValueError:
    return ValueError(
        f"iteration {n}: adaptation diverged, error power or weights not finite "
        f"(step_size {mu}; NLMS is stable only for 0 < step_size < 2)"
    )


def trace_to_csv(trace: ConvergenceTrace, out: IO[str]) -> None:
    """Write the per-iteration trace: n,error_power,output_re,output_im."""
    writer = csv.writer(out)
    writer.writerow(["n", "error_power", "output_re", "output_im"])
    # Converted a chunk at a time: whole-column lists would hold three
    # Python floats per iteration at once.
    for start in range(0, trace.iterations, CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        outputs = trace.outputs[rows]
        writer.writerows(
            zip(
                range(trace.iterations)[rows],
                trace.error_power[rows].tolist(),
                outputs.real.tolist(),
                outputs.imag.tolist(),
            )
        )


def weights_to_csv(trace: ConvergenceTrace, out: IO[str]) -> None:
    """Write weight snapshots: n,element,re,im."""
    writer = csv.writer(out)
    writer.writerow(["n", "element", "re", "im"])
    for n, w in trace.weight_snapshots:
        writer.writerows(zip([n] * len(w), range(len(w)), w.real.tolist(), w.imag.tolist()))
