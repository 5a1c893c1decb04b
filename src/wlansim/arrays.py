"""Uniform-linear-array snapshot synthesis and array patterns.

A scenario describes one adaptive-beamforming experiment: the array
geometry, a set of angular sources (one of which is the desired signal),
the additive noise power, and the adaptation parameters.  Snapshots are
complex baseband observation vectors.

All randomness comes from counter-based Philox4x64 streams (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), keyed on
``(seed, stream)`` with ``0 <= seed < 2**64``: stream 0 is the noise and
stream ``1 + i`` the symbols of source ``i``.  Sample ``n`` reads a fixed
range of words at a fixed counter offset, so any snapshot is reproducible
in isolation, independent of generation order, and a block of snapshots
comes from one draw per stream.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

ROLE_DESIRED = "desired"
ROLE_INTERFERER = "interferer"
WAVEFORM_SINUSOID = "sinusoid"
WAVEFORM_SYMBOLS = "symbols"

# Pattern gains are clamped here so perfect nulls stay finite in reports.
GAIN_FLOOR_DB = -80.0

_NOISE_STREAM = 0  # stream ids: 0 = noise, 1 + source index = that source


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array: element count and spacing in wavelengths."""

    num_elements: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self) -> None:
        if self.num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {self.num_elements}")
        if self.spacing_wavelengths <= 0:
            raise ValueError(f"spacing must be positive, got {self.spacing_wavelengths}")


@dataclass(frozen=True)
class Source:
    """One angular source: role, direction, waveform and amplitude.

    Angles are in radians from broadside, positive toward increasing
    element index.  ``normalized_freq`` is the sinusoid frequency in
    cycles per sample and is ignored for the random-symbols waveform.
    """

    role: str
    angle_rad: float
    waveform: str = WAVEFORM_SINUSOID
    normalized_freq: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        for name in ("angle_rad", "normalized_freq", "amplitude"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name}: must be finite, got {value}")
        if self.role not in (ROLE_DESIRED, ROLE_INTERFERER):
            raise ValueError(f"role: must be 'desired' or 'interferer', got {self.role!r}")
        if not abs(self.angle_rad) < math.pi / 2:
            raise ValueError(f"angle_rad: {self.angle_rad} not strictly inside (-pi/2, pi/2)")
        if self.waveform not in (WAVEFORM_SINUSOID, WAVEFORM_SYMBOLS):
            raise ValueError(f"waveform: unknown waveform {self.waveform!r}")
        if self.amplitude < 0:
            raise ValueError(f"amplitude: must be >= 0, got {self.amplitude}")


@dataclass(frozen=True)
class Snapshot:
    """One array observation ``x`` with its reference sample ``d``."""

    x: np.ndarray
    d: complex
    index: int


_REQUIRED = object()


def _number(value) -> float:
    """A JSON number as a float; a string or a boolean is refused."""
    if type(value) not in (int, float):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """A JSON number that is a whole number (``300.0`` reads as 300; NaN,
    inf, a string or a boolean is refused)."""
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise ValueError(f"must be an integer, got {value!r}")
    return value


def _field(data: dict, key: str, convert, default=_REQUIRED):
    """``convert(data[key])`` for a scenario file, with errors that name the field."""
    if key not in data:
        if default is _REQUIRED:
            raise ValueError(f"{key}: missing from the scenario file")
        return default
    try:
        return convert(data[key])
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _source(data, i: int) -> Source:
    """Build ``sources[i]`` of a scenario file; every error names ``sources[i]``."""
    if not isinstance(data, dict):
        raise ValueError(f"sources[{i}]: must be a JSON object")
    try:
        return Source(
            role=_field(data, "role", str),
            angle_rad=_field(data, "angle_rad", _number),
            waveform=_field(data, "waveform", str, WAVEFORM_SINUSOID),
            normalized_freq=_field(data, "normalized_freq", _number, 0.0),
            amplitude=_field(data, "amplitude", _number, 1.0),
        )
    except ValueError as exc:
        raise ValueError(f"sources[{i}].{exc}") from exc


@dataclass(frozen=True)
class Scenario:
    """Full description of one beamforming experiment.

    ``sampling_hz`` is recorded metadata only; signals are generated at
    complex baseband with normalized frequencies.
    """

    carrier_hz: float
    num_elements: int
    spacing_wavelengths: float
    step_size: float
    iterations: int
    seed: int
    noise_power: float
    sources: tuple[Source, ...]
    sampling_hz: float | None = None

    @property
    def array(self) -> ArrayConfig:
        return ArrayConfig(self.num_elements, self.spacing_wavelengths)

    def __post_init__(self) -> None:
        """Raise ValueError with a field-level message on the first problem."""
        for name in ("carrier_hz", "spacing_wavelengths", "step_size", "noise_power", "sampling_hz"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name}: must be finite, got {value}")
        if self.carrier_hz <= 0:
            raise ValueError(f"carrier_hz: must be positive, got {self.carrier_hz}")
        if self.num_elements < 1:
            raise ValueError(f"num_elements: must be >= 1, got {self.num_elements}")
        if self.spacing_wavelengths <= 0:
            raise ValueError(f"spacing_wavelengths: must be positive, got {self.spacing_wavelengths}")
        if self.step_size < 0:
            raise ValueError(f"step_size: must be >= 0, got {self.step_size}")
        if self.iterations < 1:
            raise ValueError(f"iterations: must be >= 1, got {self.iterations}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed: must be in [0, 2**64), got {self.seed}")
        if self.noise_power < 0:
            raise ValueError(f"noise_power: must be >= 0, got {self.noise_power}")
        if not self.sources:
            raise ValueError("sources: at least one source required")
        desired = [i for i, s in enumerate(self.sources) if s.role == ROLE_DESIRED]
        if not desired:
            raise ValueError("sources: no source with role 'desired'")
        if len(desired) > 1:
            raise ValueError(f"sources[{desired[1]}].role: only one source may be 'desired'")

    def desired_source(self) -> Source:
        return next(s for s in self.sources if s.role == ROLE_DESIRED)

    def to_dict(self) -> dict:
        d = {
            "carrier_hz": self.carrier_hz,
            "num_elements": self.num_elements,
            "spacing_wavelengths": self.spacing_wavelengths,
            "step_size": self.step_size,
            "iterations": self.iterations,
            "seed": self.seed,
            "noise_power": self.noise_power,
            "sources": [
                {
                    "role": s.role,
                    "angle_rad": s.angle_rad,
                    "waveform": s.waveform,
                    "normalized_freq": s.normalized_freq,
                    "amplitude": s.amplitude,
                }
                for s in self.sources
            ],
        }
        if self.sampling_hz is not None:
            d["sampling_hz"] = self.sampling_hz
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise ValueError("scenario: must be a JSON object")
        raw_sources = _field(data, "sources", lambda v: v)
        if not isinstance(raw_sources, list):
            raise ValueError(f"sources: must be a list, got {type(raw_sources).__name__}")
        return cls(
            carrier_hz=_field(data, "carrier_hz", _number),
            num_elements=_field(data, "num_elements", _integer),
            spacing_wavelengths=_field(data, "spacing_wavelengths", _number),
            step_size=_field(data, "step_size", _number),
            iterations=_field(data, "iterations", _integer),
            seed=_field(data, "seed", _integer),
            noise_power=_field(data, "noise_power", _number),
            sources=tuple(_source(s, i) for i, s in enumerate(raw_sources)),
            sampling_hz=_field(data, "sampling_hz", _number, default=None),
        )

    @classmethod
    def from_json_file(cls, path: str | Path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def default_scenario() -> Scenario:
    """The shipped experiment, read from ``data/default_scenario.json``,
    its one definition."""
    text = resources.files("wlansim").joinpath("data/default_scenario.json").read_text(encoding="utf-8")
    return Scenario.from_dict(json.loads(text))


def steering_vector(theta_rad: float, cfg: ArrayConfig) -> np.ndarray:
    """Phase signature of a plane wave from ``theta_rad`` across the array.

    Element ``k`` is ``exp(-j*2*pi*k*spacing*sin(theta))``; every entry
    has unit magnitude.
    """
    k = np.arange(cfg.num_elements)
    return np.exp(-2j * np.pi * k * cfg.spacing_wavelengths * math.sin(theta_rad))


def _stream_words(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    # Words start .. start + count - 1 of the (seed, stream) Philox4x64
    # sequence, whose word 4c is the first that Philox(counter=c) returns
    # (numpy encrypts counter value c + 1 first, so word 0 is the output
    # of counter value 1).
    bitgen = np.random.Philox(key=(stream << 64) | seed, counter=start // 4)
    return bitgen.random_raw(start % 4 + count)[start % 4 :]


def _source_samples(source: Source, seed: int, stream: int, rows: range) -> np.ndarray:
    if source.waveform == WAVEFORM_SINUSOID:
        w = 2j * math.pi * source.normalized_freq
        return np.array([source.amplitude * cmath.exp(w * n) for n in rows])
    # Random QPSK-style symbols on the unit circle: sample n takes its
    # phase from the top two bits of word n of its stream.
    qpsk = np.exp(1j * (np.arange(4) + 0.5) * (math.pi / 2))
    return source.amplitude * qpsk[_stream_words(seed, stream, rows.start, len(rows)) >> np.uint64(62)]


def _noise_block(num_elements: int, power: float, seed: int, rows: range) -> np.ndarray:
    # Row n reads 2 * num_elements words (radii, then angles for Box-Muller)
    # from word n * width of the noise stream, width rounded up to whole
    # Philox blocks.
    if power == 0.0:
        return np.zeros((len(rows), num_elements), dtype=complex)
    width = -(-2 * num_elements // 4) * 4
    words = _stream_words(seed, _NOISE_STREAM, rows.start * width, len(rows) * width)
    u = (words.reshape(len(rows), width)[:, : 2 * num_elements] >> np.uint64(11)) * 2.0**-53
    radius = math.sqrt(power / 2.0) * np.sqrt(-2.0 * np.log1p(-u[:, :num_elements]))
    angle = 2.0 * math.pi * u[:, num_elements:]
    return radius * np.cos(angle) + 1j * (radius * np.sin(angle))


def synthesize_blocks(
    scenario: Scenario, start: int, stop: int, rows: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(X, d)`` for consecutive blocks of at most ``rows``
    snapshots covering ``start <= n < stop``.

    Row ``j`` of the block that starts at ``first`` is x(first + j), the
    steering-weighted sum of all source samples plus circular complex
    Gaussian noise of the configured power; ``d[j]`` is the desired
    source's clean sample.  Every row is keyed on its own sample index,
    so it does not depend on the block it was generated in.  Each steering
    vector is computed once per call.
    """
    cfg = scenario.array
    steering = [steering_vector(src.angle_rad, cfg) for src in scenario.sources]
    for first in range(start, stop, rows):
        block = range(first, min(first + rows, stop))
        X = np.zeros((len(block), cfg.num_elements), dtype=complex)
        d = np.zeros(len(block), dtype=complex)
        for i, (src, a) in enumerate(zip(scenario.sources, steering)):
            s = _source_samples(src, scenario.seed, 1 + i, block)
            X += s[:, None] * a
            if src.role == ROLE_DESIRED:
                d += s
        X += _noise_block(cfg.num_elements, scenario.noise_power, scenario.seed, block)
        yield X, d


def synthesize_block(scenario: Scenario, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Generate observation vectors x(n) and reference samples d(n) for
    ``start <= n < stop`` as one block: row ``n - start`` of ``X`` is
    x(n) and ``d[n - start]`` is d(n) (see ``synthesize_blocks``).
    """
    if not start < stop:
        raise ValueError(f"empty block: start {start} must be below stop {stop}")
    return next(synthesize_blocks(scenario, start, stop, stop - start))


def synthesize(scenario: Scenario, n: int) -> Snapshot:
    """Generate observation vector x(n) and reference sample d(n): row 0
    of ``synthesize_block(scenario, n, n + 1)``.  Deterministic given
    (scenario, seed, n).
    """
    X, d = synthesize_block(scenario, n, n + 1)
    return Snapshot(x=X[0], d=complex(d[0]), index=n)


def gain_db(w: np.ndarray, cfg: ArrayConfig, angles: Sequence[float]) -> list[float]:
    """Gain ``20*log10(|w^H a(theta)|)`` of weight vector ``w`` toward
    each angle, in dB; ``-inf`` toward an exact null.

    Raises:
        ValueError: if the weight vector length does not match the array.
    """
    w = np.asarray(w)
    if w.shape != (cfg.num_elements,):
        raise ValueError(
            f"weight vector length {w.shape} does not match {cfg.num_elements} elements"
        )
    gains = []
    for theta in angles:
        mag = abs(np.vdot(w, steering_vector(theta, cfg)))
        gains.append(20.0 * math.log10(mag) if mag > 0 else -math.inf)
    return gains


def array_pattern(
    w: np.ndarray, cfg: ArrayConfig, grid: Sequence[float]
) -> list[tuple[float, float]]:
    """Gain of weight vector ``w`` over a grid of angles, in dB, clamped
    at ``GAIN_FLOOR_DB`` (see ``gain_db``).
    """
    gains = gain_db(w, cfg, grid)
    return [(float(theta), max(gain, GAIN_FLOOR_DB)) for theta, gain in zip(grid, gains)]


def pattern_to_csv(pattern: Sequence[tuple[float, float]], out: IO[str]) -> None:
    """Write an angle/gain pattern as CSV: angle_rad,gain_db."""
    writer = csv.writer(out)
    writer.writerow(["angle_rad", "gain_db"])
    for angle, gain in pattern:
        writer.writerow([angle, gain])
