"""PHY rate limits, modulation accounting, and throughput-vs-distance curves.

Peak client rates are the published single- and three-stream figures for
the two modelled standards.  No standard mandates an SNR-to-rate mapping;
the curve uses :func:`default_snr_staircase`, 8 even rungs up to the cap.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator

# Maximum client data rate in Mbps by (standard, spatial streams); a
# standard is its 802.11 amendment letters, "n" or "ac".
MAX_CLIENT_RATE_MBPS: dict[tuple[str, int], float] = {
    ("n", 1): 150.0,
    ("n", 3): 450.0,
    ("ac", 1): 450.0,
    ("ac", 3): 1300.0,
}

# Channel widths in MHz by standard, the one list of standards.  The
# published "106 MHz optional" entry is encoded as the 160 MHz option.
WIDTHS_MHZ: dict[str, tuple[int, ...]] = {
    "n": (20, 40),
    "ac": (20, 40, 80, 160),
}

NOISE_FLOOR_20MHZ_DBM = -90.0

# Default staircase shape: 8 rate rungs up to the cap, 3 dB apart.
DEFAULT_STAIRCASE_STEPS = 8
DEFAULT_STAIRCASE_BASE_SNR_DB = 5.0
DEFAULT_STAIRCASE_STEP_DB = 3.0


def max_client_rate(standard: str, streams: int) -> float:
    """Published peak client rate in Mbps.

    Raises:
        ValueError: when the (standard, streams) cell is not tabulated.
    """
    rate = MAX_CLIENT_RATE_MBPS.get((standard, streams))
    if rate is None:
        raise ValueError(f"no published rate for {standard} with {streams} streams")
    return rate


def bits_per_symbol(constellation_size: int) -> int:
    """Coded bits carried per symbol of a QAM constellation of
    ``constellation_size`` points (64 or 256): log2 of the size."""
    return int(math.log2(constellation_size))


def noise_floor_dbm(channel_width_mhz: int) -> float:
    """Thermal floor: -90 dBm in 20 MHz, +3 dB per width doubling."""
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


def throughput_vs_distance(
    standard: str,
    streams: int,
    width_mhz: int,
    tx_eirp_dbm: float,
    reference_loss_db: float,
    exponent: float,
    first_m: float,
    step_m: float,
    points: int,
) -> Iterator[tuple[float, float, float]]:
    """Rate curve at ``first_m + k*step_m`` m for k in ``range(points)``,
    capped at the standard's peak client rate, as a lazy stream of
    ``(distance_m, rate_mbps, snr_db)`` rows; every check below runs before
    the stream is returned.

    Each point's link SNR is the EIRP minus the log-distance path loss
    ``reference_loss_db + 10*exponent*log10(d)`` minus the noise floor of
    the channel width, with 0 dBi receive gain; exponent 2 over the Friis
    loss at 1 m is free space.  The link budget is the caller's to check:
    ``tx_eirp_dbm`` and ``reference_loss_db`` finite, ``exponent`` finite
    and at least 1; the overflow check below names the exponent for any
    non-finite SNR.
    The grid is the caller's to check: ``first_m`` positive and finite,
    ``step_m`` non-negative, ``points`` at least 1 and the last distance
    finite, so every distance is positive, finite and non-decreasing.
    Rates follow :func:`default_snr_staircase` built on the cap, so the
    curve is monotone non-increasing in distance.

    Raises:
        ValueError: for a width the standard does not support, a
            (standard, streams) cell with no tabulated peak rate, or an
            exponent so large that the link SNR overflows.
    """
    if width_mhz not in WIDTHS_MHZ[standard]:
        widths = "/".join(map(str, WIDTHS_MHZ[standard]))
        raise ValueError(f"802.11{standard} supports {widths} MHz widths, got {width_mhz}")
    staircase = default_snr_staircase(max_client_rate(standard, streams))
    # The highest rung whose threshold the SNR reaches, by bisection:
    # rates[k] is the rate once k thresholds are reached.  A NaN SNR would
    # land on the top rung, but finite end points (checked below) rule NaN
    # out at every point.
    thresholds = [threshold for threshold, _ in staircase]
    rates = [0.0] + [rate for _, rate in staircase]
    floor_dbm = noise_floor_dbm(width_mhz)
    log10 = math.log10

    def row(d: float) -> tuple[float, float, float]:
        snr = tx_eirp_dbm - (reference_loss_db + 10.0 * exponent * log10(d)) - floor_dbm
        return d, rates[bisect_right(thresholds, snr)], snr

    # Path loss is monotone in distance, so finite end points bound every point.
    last_m = first_m + (points - 1) * step_m
    if not (math.isfinite(row(first_m)[2]) and math.isfinite(row(last_m)[2])):
        raise ValueError(
            f"path-loss exponent {exponent} overflows the link budget over {first_m}..{last_m} m"
        )
    return (row(first_m + k * step_m) for k in range(points))
