"""Static Wi-Fi channel plans for the 2.4 GHz ISM and 5 GHz UNII bands.

Encodes channel numbers, centre frequencies, bandwidths and regulatory
EIRP limits, and computes spectral overlap between channels using
idealized rectangular masks of the nominal bandwidth.  Overlap is defined
for any two channels; a pair from different plans is refused only where a
user names one, by the ``channels --overlap`` command in ``cli``.
"""

from __future__ import annotations

from typing import NamedTuple

# Sub-band -> channel plan, a set of channels that may legitimately
# coexist.  Both are plain names: "ism24" names a band and the plan that
# is only that band.
BAND_PLAN = {"ism24": "ism24", "unii_a": "unii", "unii_b": "unii", "unii_c": "unii"}

_BAND_EIRP_MW = {"unii_a": 200.0, "unii_b": 1000.0, "unii_c": 4000.0}

# 2.4 GHz ISM EIRP cap is not band-table data here; 100 mW is the common
# European limit used as the static default.
_ISM24_EIRP_MW = 100.0


class Channel(NamedTuple):
    """One Wi-Fi channel with its static plan attributes; the fields are
    the columns of the ``channels`` table, in order."""

    id: int
    center_hz: float
    bandwidth_hz: float
    band: str
    eirp_mw: float

    @property
    def plan(self) -> str:
        return BAND_PLAN[self.band]


def _ism24_channels() -> list[Channel]:
    chans = []
    for cid in range(1, 14):
        center = 2412e6 + (cid - 1) * 5e6
        chans.append(Channel(cid, center, 22e6, "ism24", _ISM24_EIRP_MW))
    # Channel 14 sits 12 MHz above channel 13, not the usual 5 MHz.
    chans.append(Channel(14, chans[-1].center_hz + 12e6, 22e6, "ism24", _ISM24_EIRP_MW))
    return chans


def _unii_channels() -> list[Channel]:
    rows = [
        (36, 5.18, "unii_a"), (40, 5.20, "unii_a"), (44, 5.22, "unii_a"),
        (48, 5.24, "unii_a"), (52, 5.26, "unii_a"), (56, 5.28, "unii_a"),
        (60, 5.30, "unii_a"), (64, 5.32, "unii_a"),
        (100, 5.50, "unii_b"), (104, 5.52, "unii_b"), (108, 5.54, "unii_b"),
        (112, 5.56, "unii_b"), (116, 5.58, "unii_b"), (120, 5.60, "unii_b"),
        (124, 5.62, "unii_b"), (128, 5.64, "unii_b"), (132, 5.66, "unii_b"),
        (136, 5.68, "unii_b"), (140, 5.70, "unii_b"),
        (149, 5.745, "unii_c"), (153, 5.765, "unii_c"),
        (157, 5.785, "unii_c"), (161, 5.805, "unii_c"),
    ]
    return [
        Channel(cid, ghz * 1e9, 20e6, band, _BAND_EIRP_MW[band])
        for cid, ghz, band in rows
    ]


# Channel ids of the two plans do not overlap (1-14 vs 36-161), so an id
# alone names its channel and its plan.
_CHANNELS: dict[int, Channel] = {c.id: c for c in (*_ism24_channels(), *_unii_channels())}


def channels_in(name: str) -> list[Channel]:
    """Every channel of the band or plan ``name``, by channel id."""
    return [c for c in _CHANNELS.values() if name in (c.band, c.plan)]


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
    bandwidths are equal.  The 2.4 GHz and 5 GHz masks lie GHz apart and
    never meet, so a pair from different plans gives 0.0.
    """
    lo = max(a.center_hz - a.bandwidth_hz / 2, b.center_hz - b.bandwidth_hz / 2)
    hi = min(a.center_hz + a.bandwidth_hz / 2, b.center_hz + b.bandwidth_hz / 2)
    width = max(0.0, hi - lo)
    return width / a.bandwidth_hz
