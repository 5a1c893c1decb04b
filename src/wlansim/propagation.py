"""Free-space path loss and geographic distance.

All path losses are in dB.
"""

from __future__ import annotations

import math

SPEED_OF_LIGHT = 299_792_458.0  # m/s
EARTH_RADIUS_M = 6_371_000.0


def check_position(
    latitude: float, longitude: float, names: tuple[str, str] = ("latitude", "longitude")
) -> None:
    """Raise ValueError unless latitude is in [-90, 90] and longitude in
    [-180, 180] decimal degrees (NaN is in neither); the message calls the
    two values by ``names``."""
    if not -90.0 <= latitude <= 90.0:
        raise ValueError(f"{names[0]} {latitude} outside [-90, 90]")
    if not -180.0 <= longitude <= 180.0:
        raise ValueError(f"{names[1]} {longitude} outside [-180, 180]")


def haversine_distance(lat_a: float, lon_a: float, lat_b: float, lon_b: float) -> float:
    """Great-circle distance between two points given in decimal degrees,
    in meters.

    Uses a spherical earth of radius 6371.0 km.
    """
    lat1, lon1 = math.radians(lat_a), math.radians(lon_a)
    lat2, lon2 = math.radians(lat_b), math.radians(lon_b)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    s_lat, s_lon = math.sin(dlat / 2), math.sin(dlon / 2)
    # Rounding can push a just past 1 for nearly antipodal points.
    a = min(1.0, s_lat * s_lat + math.cos(lat1) * math.cos(lat2) * s_lon * s_lon)
    return EARTH_RADIUS_M * 2 * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def friis_path_loss(distance_m: float, frequency_hz: float) -> float:
    """Free-space path loss in dB.

    ``20*log10(d) + 20*log10(f) + 20*log10(4*pi/c)`` with c the vacuum
    speed of light; exactly 20 dB per decade of distance or frequency.
    ``distance_m`` and ``frequency_hz`` are positive and finite.
    """
    return (
        20.0 * math.log10(distance_m)
        + 20.0 * math.log10(frequency_hz)
        + 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT)
    )
