"""PHY rate limits, modulation accounting, and throughput-vs-distance curves.

Peak client rates are the published single- and three-stream figures for
the two modelled standards.  No standard mandates an SNR-to-rate mapping;
the curve uses :func:`default_snr_staircase`, 8 even rungs up to the cap.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import IO

from .propagation import PathLossModel, received_power


class Standard(Enum):
    N80211 = "n"
    AC80211 = "ac"


class Modulation(Enum):
    QAM64 = 64
    QAM256 = 256


# Maximum client data rate in Mbps by (standard, spatial streams).
MAX_CLIENT_RATE_MBPS: dict[tuple[Standard, int], float] = {
    (Standard.N80211, 1): 150.0,
    (Standard.N80211, 3): 450.0,
    (Standard.AC80211, 1): 450.0,
    (Standard.AC80211, 3): 1300.0,
}

_N_WIDTHS = (20, 40)
# The published "106 MHz optional" entry is encoded as the 160 MHz option.
_AC_WIDTHS = (20, 40, 80, 160)

NOISE_FLOOR_20MHZ_DBM = -90.0

# Default staircase shape: 8 rate rungs up to the cap, 3 dB apart.
DEFAULT_STAIRCASE_STEPS = 8
DEFAULT_STAIRCASE_BASE_SNR_DB = 5.0
DEFAULT_STAIRCASE_STEP_DB = 3.0


@dataclass(frozen=True)
class PhyConfig:
    """A PHY operating point; construction enforces per-standard limits."""

    standard: Standard
    channel_width_mhz: int = 20
    spatial_streams: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.spatial_streams <= 8:
            raise ValueError(f"spatial_streams must be in 1..8, got {self.spatial_streams}")
        if self.standard is Standard.N80211:
            if self.channel_width_mhz not in _N_WIDTHS:
                raise ValueError(
                    f"802.11n supports 20/40 MHz widths, got {self.channel_width_mhz}"
                )
            if self.spatial_streams > 4:
                raise ValueError("802.11n supports at most 4 spatial streams")
        else:
            if self.channel_width_mhz not in _AC_WIDTHS:
                raise ValueError(
                    f"802.11ac supports 20/40/80/160 MHz widths, got {self.channel_width_mhz}"
                )


def max_client_rate(standard: Standard, streams: int) -> float:
    """Published peak client rate in Mbps.

    Raises:
        KeyError: when the (standard, streams) cell is not tabulated.
    """
    try:
        return MAX_CLIENT_RATE_MBPS[(standard, streams)]
    except KeyError:
        raise KeyError(
            f"no published rate for {standard.value} with {streams} streams"
        ) from None


def bits_per_symbol(modulation: Modulation) -> int:
    """Coded bits carried per symbol: log2 of the constellation size."""
    return int(math.log2(modulation.value))


def noise_floor_dbm(channel_width_mhz: int) -> float:
    """Thermal floor: -90 dBm in 20 MHz, +3 dB per width doubling."""
    if channel_width_mhz <= 0:
        raise ValueError("channel width must be positive")
    return NOISE_FLOOR_20MHZ_DBM + 3.0 * math.log2(channel_width_mhz / 20.0)


def default_snr_staircase(cap_mbps: float) -> list[tuple[float, float]]:
    """Evenly spaced rate rungs: 1/8 .. 8/8 of the cap at 5, 8, .. 26 dB."""
    steps = DEFAULT_STAIRCASE_STEPS
    return [
        (
            DEFAULT_STAIRCASE_BASE_SNR_DB + k * DEFAULT_STAIRCASE_STEP_DB,
            cap_mbps * (k + 1) / steps,
        )
        for k in range(steps)
    ]


def snr_to_rate(snr_db: float, staircase: Sequence[tuple[float, float]]) -> float:
    """Highest staircase rate whose threshold the SNR reaches, else 0.

    ``staircase`` must be in ascending order, as :func:`default_snr_staircase`
    builds it.
    """
    rate = 0.0
    for threshold, step_rate in staircase:
        if snr_db >= threshold:
            rate = step_rate
    return rate


def link_snr(
    model: PathLossModel,
    tx_eirp_dbm: float,
    distance_m: float,
    channel_width_mhz: int,
) -> float:
    """SNR at the receiver for one link distance, in dB."""
    rx_dbm = received_power(tx_eirp_dbm, model.path_loss(distance_m))
    return rx_dbm - noise_floor_dbm(channel_width_mhz)


class RateCurve(Sequence):
    """A throughput curve: a read-only sequence of ``(distance_m, rate_mbps)``
    points, with the link SNR in dB of each point in ``snr_db``.  Each
    column is an array of doubles, 8 bytes a point."""

    def __init__(self) -> None:
        # Imported here, not at module level: loading the extension module
        # adds ~0.05 MB to the peak RSS of every command, not only throughput.
        from array import array

        self.distance_m = array("d")
        self.rate_mbps = array("d")
        self.snr_db = array("d")

    def __len__(self) -> int:
        return len(self.distance_m)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(zip(self.distance_m[i], self.rate_mbps[i]))
        return self.distance_m[i], self.rate_mbps[i]

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return zip(self.distance_m, self.rate_mbps)


def throughput_vs_distance(
    cfg: PhyConfig,
    model: PathLossModel,
    tx_eirp_dbm: float,
    distances: Sequence[float],
) -> RateCurve:
    """Rate curve over distances, capped at the standard's peak client rate.

    Distances must be positive, finite and sorted ascending.  Rates follow
    :func:`default_snr_staircase` built on that cap, so the curve is
    monotone non-increasing in distance.

    Raises:
        ValueError: for a non-finite EIRP, or an empty, unsorted,
            non-positive or non-finite distance list.
        KeyError: when the config has no tabulated peak rate.
    """
    if not math.isfinite(tx_eirp_dbm):
        raise ValueError(f"tx_eirp_dbm must be finite, got {tx_eirp_dbm}")
    if len(distances) == 0:
        raise ValueError("distance list must be nonempty")
    if any(not 0 < d < math.inf for d in distances):
        raise ValueError("distances must be positive and finite")
    if any(b < a for a, b in zip(distances, distances[1:])):
        raise ValueError("distances must be sorted ascending")
    cap = max_client_rate(cfg.standard, cfg.spatial_streams)
    staircase = default_snr_staircase(cap)
    curve = RateCurve()
    for d in distances:
        snr = link_snr(model, tx_eirp_dbm, d, cfg.channel_width_mhz)
        curve.distance_m.append(d)
        curve.rate_mbps.append(min(snr_to_rate(snr, staircase), cap))
        curve.snr_db.append(snr)
    return curve


def curve_to_csv(curve: RateCurve, out: IO[str]) -> None:
    """Write a rate curve as CSV: distance_m,rate_mbps,snr_db."""
    writer = csv.writer(out)
    writer.writerow(["distance_m", "rate_mbps", "snr_db"])
    writer.writerows(zip(curve.distance_m, curve.rate_mbps, curve.snr_db))
