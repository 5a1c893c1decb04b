"""Free-space and log-distance path loss, geographic distance, link budget.

All path losses are in dB, powers in dBm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

SPEED_OF_LIGHT = 299_792_458.0  # m/s
EARTH_RADIUS_M = 6_371_000.0


def check_position(latitude: float, longitude: float) -> None:
    """Raise ValueError unless latitude is in [-90, 90] and longitude in
    [-180, 180] decimal degrees (NaN is in neither)."""
    if not -90.0 <= latitude <= 90.0:
        raise ValueError(f"latitude {latitude} outside [-90, 90]")
    if not -180.0 <= longitude <= 180.0:
        raise ValueError(f"longitude {longitude} outside [-180, 180]")


# GeoPoint's fields; a NamedTuple body may not define __new__, a subclass may.
class _LatLon(NamedTuple):
    latitude: float
    longitude: float


class GeoPoint(_LatLon):
    """A WGS-84-style latitude/longitude pair in decimal degrees."""

    __slots__ = ()

    def __new__(cls, latitude: float, longitude: float) -> "GeoPoint":
        check_position(latitude, longitude)
        return super().__new__(cls, latitude, longitude)

    @classmethod
    def _make(cls, iterable) -> "GeoPoint":
        # The base's _make, which _replace calls, would build without __new__.
        return cls(*iterable)


def haversine_distance(p: GeoPoint, q: GeoPoint) -> float:
    """Great-circle distance between two points, in meters.

    Uses a spherical earth of radius 6371.0 km.
    """
    lat1, lon1 = math.radians(p.latitude), math.radians(p.longitude)
    lat2, lon2 = math.radians(q.latitude), math.radians(q.longitude)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return EARTH_RADIUS_M * 2 * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def friis_path_loss(distance_m: float, frequency_hz: float) -> float:
    """Free-space path loss in dB.

    ``20*log10(d) + 20*log10(f) + 20*log10(4*pi/c)`` with c the vacuum
    speed of light; exactly 20 dB per decade of distance or frequency.

    Raises:
        ValueError: if distance or frequency is not positive and finite.
    """
    if not 0 < distance_m < math.inf:
        raise ValueError(f"distance must be positive and finite, got {distance_m}")
    if not 0 < frequency_hz < math.inf:
        raise ValueError(f"frequency must be positive and finite, got {frequency_hz}")
    return (
        20.0 * math.log10(distance_m)
        + 20.0 * math.log10(frequency_hz)
        + 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT)
    )


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss: ``reference_loss_db + 10*exponent*log10(d)``.

    With ``exponent = 2`` and the free-space reference loss at 1 m this
    reproduces :func:`friis_path_loss` exactly.
    """

    reference_loss_db: float
    exponent: float
    frequency_hz: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.reference_loss_db):
            raise ValueError(f"reference loss must be finite, got {self.reference_loss_db}")
        if not 1.0 <= self.exponent < math.inf:
            raise ValueError(f"path-loss exponent must be finite and >= 1, got {self.exponent}")
        if not 0 < self.frequency_hz < math.inf:
            raise ValueError(f"frequency must be positive and finite, got {self.frequency_hz}")

    @classmethod
    def free_space(cls, frequency_hz: float) -> "PathLossModel":
        """Free-space model: exponent 2, reference loss at 1 m from Friis."""
        return cls(friis_path_loss(1.0, frequency_hz), 2.0, frequency_hz)

    def path_loss(self, distance_m: float) -> float:
        if distance_m <= 0:
            raise ValueError(f"distance must be positive, got {distance_m}")
        return self.reference_loss_db + 10.0 * self.exponent * math.log10(distance_m)


def received_power(eirp_dbm: float, path_loss_db: float) -> float:
    """Link budget: EIRP minus path loss, in dBm (0 dBi receive gain)."""
    return eirp_dbm - path_loss_db
