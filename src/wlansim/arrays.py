"""Uniform-linear-array snapshot synthesis and array patterns.

A scenario describes one adaptive-beamforming experiment: the array
geometry, a set of angular sources (one of which is the desired signal),
the additive noise power, and the adaptation parameters.  Snapshots are
complex baseband observation vectors.

All randomness comes from counter-based Philox4x64-10 streams (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), keyed on
``(seed, stream)`` with ``0 <= seed < 2**64``: stream 0 is the noise and
stream ``1 + i`` the symbols of source ``i``.  Sample ``n`` reads a fixed
range of words at a fixed counter offset, so any snapshot is reproducible
in isolation, independent of generation order, and a range of snapshots
comes from one draw per stream.  The words are computed here in numpy
integer arithmetic and equal numpy's ``Philox(key=(stream << 64) | seed)``,
so ``numpy.random`` is never loaded.  Block ``c`` of a stream encrypts the
counter ``c + 1``, which must stay below ``2**64``; ``MAX_ITERATIONS`` times
a row's width in words keeps it there.
"""

from __future__ import annotations

import cmath
import json
import math
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

ROLE_DESIRED = "desired"
ROLE_INTERFERER = "interferer"
WAVEFORM_SINUSOID = "sinusoid"
WAVEFORM_SYMBOLS = "symbols"

# Pattern gains are clamped here so perfect nulls stay finite in reports.
GAIN_FLOOR_DB = -80.0

_NOISE_STREAM = 0  # stream ids: 0 = noise, 1 + source index = that source

# Size bounds, checked where a scenario enters: larger values would only
# exhaust memory (a 10**12-iteration run asks for terabytes).
MAX_ELEMENTS = 1024
MAX_ITERATIONS = 10**6

# Magnitude bound, checked there too: an element spacing or amplitude is at
# most MAX_MAGNITUDE, a nonzero amplitude at least its reciprocal and the
# noise power at most its square, so no steering phase, snapshot energy or
# NLMS step overflows or underflows.
MAX_MAGNITUDE = 1e100


class Source(NamedTuple):
    """One angular source: role, direction, waveform and amplitude.

    Angles are in radians from broadside, positive toward increasing
    element index.  ``normalized_freq`` is the sinusoid frequency in
    cycles per sample, in [-0.5, 0.5], and is ignored for the
    random-symbols waveform.
    """

    role: str
    angle_rad: float
    waveform: str = WAVEFORM_SINUSOID
    normalized_freq: float = 0.0
    amplitude: float = 1.0


_REQUIRED = object()


def _number(value) -> float:
    """A JSON number as a finite float; a string, a boolean, NaN or an
    infinity (which ``json`` reads from ``NaN`` and ``Infinity``) is refused."""
    if type(value) not in (int, float):
        raise ValueError(f"must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {number}")
    return number


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


def _known_keys(data: dict, fields: tuple[str, ...]) -> None:
    """Refuse a key that is not one of ``fields``: a misspelt optional
    field would otherwise be ignored and its default used."""
    for key in data:
        if key not in fields:
            raise ValueError(f"{key}: unknown field")


def _source(data, i: int) -> Source:
    """Read and check ``sources[i]`` of a scenario; every error names ``sources[i]``."""
    if not isinstance(data, dict):
        raise ValueError(f"sources[{i}]: must be a JSON object")
    try:
        _known_keys(data, Source._fields)
        defaults = Source._field_defaults
        source = Source(
            role=_field(data, "role", str),
            angle_rad=_field(data, "angle_rad", _number),
            waveform=_field(data, "waveform", str, defaults["waveform"]),
            normalized_freq=_field(data, "normalized_freq", _number, defaults["normalized_freq"]),
            amplitude=_field(data, "amplitude", _number, defaults["amplitude"]),
        )
        if source.role not in (ROLE_DESIRED, ROLE_INTERFERER):
            raise ValueError(f"role: must be 'desired' or 'interferer', got {source.role!r}")
        if not abs(source.angle_rad) < math.pi / 2:
            raise ValueError(f"angle_rad: {source.angle_rad} not strictly inside (-pi/2, pi/2)")
        if source.waveform not in (WAVEFORM_SINUSOID, WAVEFORM_SYMBOLS):
            raise ValueError(f"waveform: unknown waveform {source.waveform!r}")
        if not abs(source.normalized_freq) <= 0.5:
            raise ValueError(f"normalized_freq: must be in [-0.5, 0.5], got {source.normalized_freq}")
        if source.amplitude != 0 and not 1 / MAX_MAGNITUDE <= source.amplitude <= MAX_MAGNITUDE:
            raise ValueError(
                f"amplitude: must be 0 or in [{1 / MAX_MAGNITUDE}, {MAX_MAGNITUDE}], got {source.amplitude}"
            )
    except ValueError as exc:
        raise ValueError(f"sources[{i}].{exc}") from exc
    return source


class Scenario(NamedTuple):
    """Full description of one beamforming experiment: plain data, checked
    where it enters, by ``from_dict``."""

    num_elements: int
    spacing_wavelengths: float
    step_size: float
    iterations: int
    seed: int
    noise_power: float
    sources: tuple[Source, ...]

    def desired_source(self) -> Source:
        return next(s for s in self.sources if s.role == ROLE_DESIRED)

    def to_dict(self) -> dict:
        return {**self._asdict(), "sources": [s._asdict() for s in self.sources]}

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Read and check a scenario; raise ValueError with a field-level
        message on the first problem."""
        if not isinstance(data, dict):
            raise ValueError("scenario: must be a JSON object")
        _known_keys(data, cls._fields)
        raw_sources = _field(data, "sources", lambda v: v)
        if not isinstance(raw_sources, list):
            raise ValueError(f"sources: must be a list, got {type(raw_sources).__name__}")
        sc = cls(
            num_elements=_field(data, "num_elements", _integer),
            spacing_wavelengths=_field(data, "spacing_wavelengths", _number),
            step_size=_field(data, "step_size", _number),
            iterations=_field(data, "iterations", _integer),
            seed=_field(data, "seed", _integer),
            noise_power=_field(data, "noise_power", _number),
            sources=tuple(_source(s, i) for i, s in enumerate(raw_sources)),
        )
        if sc.num_elements < 1:
            raise ValueError(f"num_elements: must be >= 1, got {sc.num_elements}")
        if sc.num_elements > MAX_ELEMENTS:
            raise ValueError(f"num_elements: must be <= {MAX_ELEMENTS}, got {sc.num_elements}")
        if not 0 < sc.spacing_wavelengths <= MAX_MAGNITUDE:
            raise ValueError(
                f"spacing_wavelengths: must be in (0, {MAX_MAGNITUDE}], got {sc.spacing_wavelengths}"
            )
        if sc.step_size < 0:
            raise ValueError(f"step_size: must be >= 0, got {sc.step_size}")
        if sc.iterations < 1:
            raise ValueError(f"iterations: must be >= 1, got {sc.iterations}")
        if sc.iterations > MAX_ITERATIONS:
            raise ValueError(f"iterations: must be <= {MAX_ITERATIONS}, got {sc.iterations}")
        if not 0 <= sc.seed < 2**64:
            raise ValueError(f"seed: must be in [0, 2**64), got {sc.seed}")
        if not 0 <= sc.noise_power <= MAX_MAGNITUDE * MAX_MAGNITUDE:
            raise ValueError(f"noise_power: must be in [0, {MAX_MAGNITUDE * MAX_MAGNITUDE}], got {sc.noise_power}")
        if not sc.sources:
            raise ValueError("sources: at least one source required")
        desired = [i for i, s in enumerate(sc.sources) if s.role == ROLE_DESIRED]
        if not desired:
            raise ValueError("sources: no source with role 'desired'")
        if len(desired) > 1:
            raise ValueError(f"sources[{desired[1]}].role: only one source may be 'desired'")
        return sc


def load_scenario(path: str | Path | None = None, **overrides) -> Scenario:
    """The scenario in the JSON file at ``path``, or with no path the shipped
    ``data/default_scenario.json``, its one definition.  Each override
    replaces that key of the file before ``Scenario.from_dict`` reads it,
    so an override passes exactly the checks a file value does."""
    file = Path(path) if path else resources.files("wlansim").joinpath("data/default_scenario.json")
    with file.open(encoding="utf-8") as f:
        data = json.load(f)
    if isinstance(data, dict):  # from_dict refuses anything else
        data.update(overrides)
    return Scenario.from_dict(data)


def steering_vector(theta_rad: float, num_elements: int, spacing_wavelengths: float) -> np.ndarray:
    """Phase signature of a plane wave from ``theta_rad`` across a uniform
    linear array of ``num_elements`` elements ``spacing_wavelengths`` apart.

    Element ``k`` is ``exp(-j*2*pi*k*spacing*sin(theta))``; every entry
    has unit magnitude.
    """
    k = np.arange(num_elements)
    return np.exp(-2j * np.pi * k * spacing_wavelengths * math.sin(theta_rad))


# Philox4x64-10's round multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    # High and low words of the 128-bit products a * m, from 32-bit halves;
    # neither u nor v can pass 2**64 - 1.
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    u = a_hi * m_lo + ((a_lo * m_lo) >> _SHIFT32)
    v = a_lo * m_hi + (u & _LOW32)
    return a_hi * m_hi + (u >> _SHIFT32) + (v >> _SHIFT32), a * np.uint64(m)


def _stream_words(seed: int, stream: int, words: range) -> np.ndarray:
    # Words ``words`` (a range of step 1) of the (seed, stream) Philox4x64-10
    # sequence.  Block c, words 4c to 4c + 3, encrypts the counter c + 1
    # under the key (seed, stream), as numpy's Philox(key=(stream << 64) |
    # seed) does from counter 0; it needs c + 1 < 2**64, which MAX_ITERATIONS
    # times a row's width in words keeps.  The counter's lanes 1-3 are zero.
    # Ten equal rounds follow, each bumping the key after it; the key words
    # are Python ints, so no numpy scalar overflows or changes type.
    x0 = np.arange(words.start // 4 + 1, -(-words.stop // 4) + 1, dtype=np.uint64)
    x1 = x2 = x3 = np.zeros_like(x0)
    mask = 2**64 - 1
    k0, k1 = seed, stream
    for _ in range(10):
        hi0, lo0 = _mulhilo(x0, _PHILOX_M0)
        hi1, lo1 = _mulhilo(x2, _PHILOX_M1)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + _PHILOX_W0) & mask, (k1 + _PHILOX_W1) & mask
    return np.stack((x0, x1, x2, x3), axis=1).reshape(-1)[words.start % 4 :][: len(words)]


def _source_samples(source: Source, seed: int, stream: int, rows: range) -> np.ndarray:
    if source.waveform == WAVEFORM_SINUSOID:
        w = 2j * math.pi * source.normalized_freq
        return np.array([source.amplitude * cmath.exp(w * n) for n in rows])
    # Random QPSK-style symbols on the unit circle: sample n takes its
    # phase from the top two bits of word n of its stream.
    qpsk = np.exp(1j * (np.arange(4) + 0.5) * (math.pi / 2))
    return source.amplitude * qpsk[_stream_words(seed, stream, rows) >> np.uint64(62)]


def _noise_block(num_elements: int, power: float, seed: int, rows: range) -> np.ndarray:
    # Row n reads 2 * num_elements words (radii, then angles for Box-Muller)
    # from word n * width of the noise stream, width rounded up to whole
    # Philox blocks.
    width = -(-2 * num_elements // 4) * 4
    words = _stream_words(seed, _NOISE_STREAM, range(rows.start * width, rows.stop * width))
    u = (words.reshape(len(rows), width)[:, : 2 * num_elements] >> np.uint64(11)) * 2.0**-53
    radius = math.sqrt(power / 2.0) * np.sqrt(-2.0 * np.log1p(-u[:, :num_elements]))
    angle = 2.0 * math.pi * u[:, num_elements:]
    return radius * np.cos(angle) + 1j * (radius * np.sin(angle))


def synthesize(scenario: Scenario, rows: range) -> tuple[np.ndarray, np.ndarray]:
    """``(X, d)`` for the snapshots ``n in rows``, a range of step 1.

    Row ``j`` of ``X`` is x(rows[j]), the steering-weighted sum of all
    source samples plus circular complex Gaussian noise of the configured
    power; ``d[j]`` is the desired source's clean sample.  Every row is
    keyed on its own sample index, so it is the same alone as in any
    range that contains it.
    """
    m = scenario.num_elements
    X = np.zeros((len(rows), m), dtype=complex)
    d = np.zeros(len(rows), dtype=complex)
    for i, src in enumerate(scenario.sources):
        s = _source_samples(src, scenario.seed, 1 + i, rows)
        X += s[:, None] * steering_vector(src.angle_rad, m, scenario.spacing_wavelengths)
        if src.role == ROLE_DESIRED:
            d += s
    X += _noise_block(m, scenario.noise_power, scenario.seed, rows)
    return X, d


def gain_db(w: np.ndarray, spacing_wavelengths: float, angles: Sequence[float]) -> list[float]:
    """Gain ``20*log10(|w^H a(theta)|)`` of weight vector ``w`` toward
    each angle, in dB; ``-inf`` toward an exact null.  The array has one
    element per weight, ``spacing_wavelengths`` apart.
    """
    gains = []
    for theta in angles:
        mag = abs(np.vdot(w, steering_vector(theta, len(w), spacing_wavelengths)))
        gains.append(20.0 * math.log10(mag) if mag > 0 else -math.inf)
    return gains


def array_pattern(
    w: np.ndarray, spacing_wavelengths: float, grid: Sequence[float]
) -> list[tuple[float, float]]:
    """Gain of weight vector ``w`` over a grid of angles, in dB, clamped
    at ``GAIN_FLOOR_DB`` (see ``gain_db``).
    """
    gains = gain_db(w, spacing_wavelengths, grid)
    return [(float(theta), max(gain, GAIN_FLOOR_DB)) for theta, gain in zip(grid, gains)]
