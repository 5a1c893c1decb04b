"""Static Wi-Fi channel plans for the 2.4 GHz ISM and 5 GHz UNII bands.

Encodes channel numbers, centre frequencies, bandwidths and regulatory
EIRP limits, and computes spectral overlap between channels using
idealized rectangular masks of the nominal bandwidth.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class Band(Enum):
    """Sub-band a channel belongs to."""

    ISM24 = "ism24"
    UNII_A = "unii_a"
    UNII_B = "unii_b"
    UNII_C = "unii_c"


class Plan(Enum):
    """Channel plan: a set of channels that may legitimately coexist."""

    ISM24 = "ism24"
    UNII = "unii"


_BAND_PLAN = {
    Band.ISM24: Plan.ISM24,
    Band.UNII_A: Plan.UNII,
    Band.UNII_B: Plan.UNII,
    Band.UNII_C: Plan.UNII,
}

_BAND_EIRP_MW = {Band.UNII_A: 200.0, Band.UNII_B: 1000.0, Band.UNII_C: 4000.0}

# 2.4 GHz ISM EIRP cap is not band-table data here; 100 mW is the common
# European limit used as the static default.
_ISM24_EIRP_MW = 100.0


class Channel(NamedTuple):
    """One Wi-Fi channel with its static plan attributes."""

    id: int
    center_hz: float
    bandwidth_hz: float
    band: Band
    eirp_mw: float

    @property
    def plan(self) -> Plan:
        return _BAND_PLAN[self.band]


def _ism24_channels() -> list[Channel]:
    chans = []
    for cid in range(1, 14):
        center = 2412e6 + (cid - 1) * 5e6
        chans.append(Channel(cid, center, 22e6, Band.ISM24, _ISM24_EIRP_MW))
    # Channel 14 sits 12 MHz above channel 13, not the usual 5 MHz.
    chans.append(Channel(14, chans[-1].center_hz + 12e6, 22e6, Band.ISM24, _ISM24_EIRP_MW))
    return chans


def _unii_channels() -> list[Channel]:
    rows = [
        (36, 5.18, Band.UNII_A), (40, 5.20, Band.UNII_A), (44, 5.22, Band.UNII_A),
        (48, 5.24, Band.UNII_A), (52, 5.26, Band.UNII_A), (56, 5.28, Band.UNII_A),
        (60, 5.30, Band.UNII_A), (64, 5.32, Band.UNII_A),
        (100, 5.50, Band.UNII_B), (104, 5.52, Band.UNII_B), (108, 5.54, Band.UNII_B),
        (112, 5.56, Band.UNII_B), (116, 5.58, Band.UNII_B), (120, 5.60, Band.UNII_B),
        (124, 5.62, Band.UNII_B), (128, 5.64, Band.UNII_B), (132, 5.66, Band.UNII_B),
        (136, 5.68, Band.UNII_B), (140, 5.70, Band.UNII_B),
        (149, 5.745, Band.UNII_C), (153, 5.765, Band.UNII_C),
        (157, 5.785, Band.UNII_C), (161, 5.805, Band.UNII_C),
    ]
    return [
        Channel(cid, ghz * 1e9, 20e6, band, _BAND_EIRP_MW[band])
        for cid, ghz, band in rows
    ]


# Channel ids of the two plans do not overlap (1-14 vs 36-161), so an id
# alone names its channel and its plan.
_CHANNELS: dict[int, Channel] = {c.id: c for c in (*_ism24_channels(), *_unii_channels())}
CHANNEL_IDS = _CHANNELS.keys()


def channels_in(name: str) -> list[Channel]:
    """Every channel of the band or plan with value ``name``, by channel id
    (``"ism24"`` names both a band and the plan that is only that band)."""
    return [c for c in _CHANNELS.values() if name in (c.band.value, c.plan.value)]


def channel_by_id(channel_id: int) -> Channel:
    """Look up one channel by id in either plan.

    Raises:
        ValueError: if the id is in no known plan.
    """
    channel = _CHANNELS.get(channel_id)
    if channel is None:
        raise ValueError(f"channel {channel_id} not in any known plan")
    return channel


def overlap_fraction(a: Channel, b: Channel) -> float:
    """Spectral overlap of two channels as a fraction of ``a``'s bandwidth.

    Channels are modelled as rectangular masks of their nominal bandwidth
    centred on their centre frequency.  The result is the overlapping
    width divided by ``a.bandwidth_hz``, so it is symmetric whenever both
    bandwidths are equal.

    Raises:
        ValueError: if the channels come from different plans.
    """
    if a.plan is not b.plan:
        raise ValueError(
            f"cannot compare channels from different plans "
            f"({a.plan.value} vs {b.plan.value})"
        )
    lo = max(a.center_hz - a.bandwidth_hz / 2, b.center_hz - b.bandwidth_hz / 2)
    hi = min(a.center_hz + a.bandwidth_hz / 2, b.center_hz + b.bandwidth_hz / 2)
    width = max(0.0, hi - lo)
    return width / a.bandwidth_hz
