"""Independent reference implementations shared across test modules.

These deliberately recompute results from first principles (breakpoint
integration, direct transform summation, forward-model synthesis) so the
code under test is checked against a second route, not against itself.
"""

import math
import random

import numpy as np

from wlansim.channels import channel_by_id


def mask_overlap_oracle(a, b) -> float:
    """Brute-force integration of two rectangular spectral masks.

    Decomposes the frequency axis at the mask edges and sums the width of
    every piece where both indicator masks are 1.
    """
    edges = sorted(
        {
            a.center_hz - a.bandwidth_hz / 2,
            a.center_hz + a.bandwidth_hz / 2,
            b.center_hz - b.bandwidth_hz / 2,
            b.center_hz + b.bandwidth_hz / 2,
        }
    )
    width = 0.0
    for lo, hi in zip(edges, edges[1:]):
        mid = (lo + hi) / 2
        in_a = abs(mid - a.center_hz) < a.bandwidth_hz / 2
        in_b = abs(mid - b.center_hz) < b.bandwidth_hz / 2
        if in_a and in_b:
            width += hi - lo
    return width / a.bandwidth_hz


def interference_oracle(summaries, threshold_dbm) -> list[tuple]:
    """Pair by pair, from the summaries alone: (a, b, overlap, co_located, interferes).

    An AP's channel is the id of most of its groups, the smaller id on a
    tie; its coverage is the cells whose mean RSSI reaches the threshold.
    Overlap integrates the two channels' masks, so a pair across plans
    (2.4 vs 5 GHz) gets 0 from the spectrum itself.
    """

    def channel(bssid):
        ids = [s.channel_id for s in summaries if s.bssid == bssid]
        most = max(ids.count(c) for c in ids)
        return channel_by_id(min(c for c in ids if ids.count(c) == most))

    def coverage(bssid):
        return {s.cell for s in summaries if s.bssid == bssid and s.mean_rssi_dbm >= threshold_dbm}

    aps = sorted({s.bssid for s in summaries})
    rows = []
    for i, a in enumerate(aps):
        for b in aps[i + 1 :]:
            overlap = mask_overlap_oracle(channel(a), channel(b))
            co_located = len(coverage(a) & coverage(b)) > 0
            rows.append((a, b, overlap, co_located, overlap > 0 and co_located))
    return rows


def dft_oracle(signal, size) -> np.ndarray:
    """Direct O(N^2) summation from the transform definition."""
    x = np.zeros(size, dtype=complex)
    x[: len(signal)] = signal
    mags = np.empty(size)
    for k in range(size):
        acc = 0j
        for n in range(size):
            acc += x[n] * np.exp(-2j * np.pi * k * n / size)
        mags[k] = abs(acc)
    return mags


def synth_fit_points(exponent, ref_loss=40.0, eirp=20.0, noise=None, seed=0, count=50):
    """Forward-model RSSI samples for the path-loss fit: 1 m .. 1 km."""
    rng = random.Random(seed)
    points = []
    for i in range(count):
        d = 10 ** (i / (count - 1) * 3)
        rssi = eirp - (ref_loss + 10.0 * exponent * math.log10(d))
        if noise:
            rssi += rng.gauss(0.0, noise)
        points.append((d, rssi))
    return points
