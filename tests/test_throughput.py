"""Tests for rate lookups, modulation accounting and distance curves."""

import csv
import io
import math
from fractions import Fraction
from itertools import cycle, islice
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlansim.cli import EXIT_OK, _curve_lines, _write_lines, main
from wlansim.propagation import SPEED_OF_LIGHT, friis_path_loss
from wlansim.throughput import (
    WIDTHS_MHZ,
    bits_per_symbol,
    default_snr_staircase,
    max_client_rate,
    noise_floor_dbm,
    throughput_vs_distance,
)

from oracles import staircase_rate

FREE_SPACE_5G = friis_path_loss(1.0, 5e9)


class Columns(NamedTuple):
    distance_m: list[float]
    rate_mbps: list[float]
    snr_db: list[float]


def curve(tx_eirp_dbm, first_m, step_m=1.0, points=1, *, standard="ac", streams=3,
          width_mhz=20, reference_loss_db=FREE_SPACE_5G, exponent=2.0):
    """The columns of a throughput curve at ``first_m + k*step_m`` m; by
    default one point, ac, 3 streams, 20 MHz, free space at 5 GHz."""
    rows = throughput_vs_distance(
        standard, streams, width_mhz, tx_eirp_dbm, reference_loss_db, exponent, first_m, step_m, points
    )
    return Columns(*map(list, zip(*rows)))


def standard_id(value):
    """A test id that names a standard by its amendment, as in ``Standard.AC80211``."""
    return f"Standard.{value.upper()}80211" if isinstance(value, str) else None


class TestRateTable:
    @pytest.mark.parametrize(
        "standard,streams,rate",
        [
            ("n", 1, 150.0),
            ("n", 3, 450.0),
            ("ac", 1, 450.0),
            ("ac", 3, 1300.0),
        ],
        ids=standard_id,
    )
    def test_published_cells(self, standard, streams, rate):
        assert max_client_rate(standard, streams) == rate

    def test_unsupported_combination(self):
        with pytest.raises(ValueError, match="ac with 2 streams"):
            max_client_rate("ac", 2)


class TestModulation:
    def test_bits_per_symbol(self):
        assert bits_per_symbol(64) == 6
        assert bits_per_symbol(256) == 8

    def test_upgrade_ratio_is_exactly_four_thirds(self):
        ratio = Fraction(bits_per_symbol(256), bits_per_symbol(64))
        assert ratio == Fraction(4, 3)

    def test_log2_consistency_with_constellation_size(self):
        for size in (64, 256):
            assert 2 ** bits_per_symbol(size) == size


class TestPhyConfig:
    @pytest.mark.parametrize("standard", list(WIDTHS_MHZ), ids=standard_id)
    def test_every_listed_width_sets_its_noise_floor(self, standard):
        for width in WIDTHS_MHZ[standard]:
            point = curve(20.0, 1.0, standard=standard, width_mhz=width, reference_loss_db=0.0)
            assert point.snr_db[0] == 20.0 - noise_floor_dbm(width)

    def test_n_rejects_wide_channels(self):
        for width in (80, 160):
            with pytest.raises(ValueError) as exc:
                curve(20.0, 1.0, standard="n", width_mhz=width)
            assert str(exc.value) == f"802.11n supports 20/40 MHz widths, got {width}"

    def test_ac_rejects_unlisted_widths(self):
        for width in (60, 0):
            with pytest.raises(ValueError) as exc:
                curve(20.0, 1.0, standard="ac", width_mhz=width)
            assert str(exc.value) == f"802.11ac supports 20/40/80/160 MHz widths, got {width}"

    # The rate table is the one stream check: a count it lacks has no rate.
    def test_n_rejects_more_than_four_streams(self):
        for streams in (5, 8):
            with pytest.raises(ValueError, match=f"n with {streams} streams"):
                curve(20.0, 1.0, standard="n", streams=streams)

    def test_stream_range(self):
        for streams in (0, 9):
            with pytest.raises(ValueError, match=f"ac with {streams} streams"):
                curve(20.0, 1.0, streams=streams)


class TestNoiseFloor:
    @pytest.mark.parametrize("width,floor", [(20, -90.0), (40, -87.0), (80, -84.0), (160, -81.0)])
    def test_three_db_per_doubling(self, width, floor):
        assert noise_floor_dbm(width) == pytest.approx(floor, abs=1e-12)


class TestDistanceCurves:
    def setup_method(self):
        self.distances = [float(d) for d in range(1, 31)]

    def test_cap_at_short_distance(self):
        points = curve(30.0, 0.1, 0.1, 2)
        assert points.distance_m == [0.1, 0.2]
        assert all(rate == 1300.0 for rate in points.rate_mbps)

    def test_outage_below_lowest_threshold(self):
        assert curve(-60.0, 1000.0).rate_mbps[0] == 0.0

    def test_monotone_non_increasing(self):
        points = curve(10.0, 1.0, 1.0, 30)
        assert points.distance_m == self.distances
        rates = points.rate_mbps
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_ac_dominates_n_pointwise(self):
        ac = curve(10.0, 1.0, 1.0, 30, standard="ac")
        n = curve(10.0, 1.0, 1.0, 30, standard="n")
        assert ac.distance_m == n.distance_m
        for rate_ac, rate_n in zip(ac.rate_mbps, n.rate_mbps):
            assert rate_ac >= rate_n

    def test_untabulated_streams_rejected(self):
        with pytest.raises(ValueError, match="ac with 2 streams"):
            curve(10.0, 1.0, streams=2)

    def test_staircase_rates_never_exceed_cap(self):
        stairs = default_snr_staircase(1300.0)
        assert len(stairs) == 8
        assert max(rate for _, rate in stairs) == 1300.0
        # With no path loss at 1 m the SNR is EIRP + 90 dB: 100 dB, then -10 dB.
        assert curve(10.0, 1.0, reference_loss_db=0.0).rate_mbps[0] == 1300.0
        assert curve(-100.0, 1.0, reference_loss_db=0.0).rate_mbps[0] == 0.0

    def test_curve_rates_follow_snr_to_rate(self):
        stairs = default_snr_staircase(max_client_rate("ac", 3))
        points = curve(-5.0, 1.0, 0.25, 400)
        assert points.distance_m == [1.0 + 0.25 * k for k in range(400)]
        assert len(set(points.rate_mbps)) == len(stairs) + 1  # every rung and the outage
        assert list(points.rate_mbps) == [staircase_rate(snr, stairs) for snr in points.snr_db]
        # With no path loss at 1 m the SNR is EIRP + 90 dB exactly: land on,
        # just below and just above every threshold.
        for threshold, _ in stairs:
            for snr in (threshold - 0.5, threshold, threshold + 0.5):
                point = curve(snr - 90.0, 1.0, reference_loss_db=0.0)
                assert point.snr_db[0] == snr
                assert point.rate_mbps[0] == staircase_rate(snr, stairs)

    def test_csv_computes_each_link_snr_once(self, tmp_path):
        # The defaults: 30 points from 1 m in 1 m steps, free space at 5 GHz,
        # 20 dBm EIRP over 20 MHz (a -90 dBm floor), ac with 3 streams.
        assert main(["throughput", "--out", str(tmp_path)]) == EXIT_OK
        rows = [line.split(",") for line in (tmp_path / "throughput.csv").read_text().splitlines()[1:]]
        assert [float(d) for d, _, _ in rows] == self.distances
        stairs = default_snr_staircase(1300.0)
        for d, rate, snr in rows:
            closed_form = 20.0 + 90.0 - 20.0 * math.log10(4.0 * math.pi * float(d) * 5e9 / SPEED_OF_LIGHT)
            assert float(snr) == pytest.approx(closed_form, abs=1e-9)
            assert float(rate) == staircase_rate(float(snr), stairs)


# Floats at the edges of float formatting: subnormals, exponent form at
# 1e16 and above and at 1e-5 and below, negatives, -0.0 and integral floats.
EDGE_FLOATS = st.sampled_from([
    5e-324, 2.2250738585072014e-308, 1e-300, 1e-5, 9.999999999999999e-06, 0.0001, -0.0, 0.0,
    1300.0, 1e16, 1.0000000000000002e16, 9999999999999998.0, 1.7976931348623157e308,
    -5e-324, -1e-5, -17.5, -1e16, -1300.0,
]) | st.floats()
# A curve's rates: 0.0, the rungs of each cap, and other non-negative floats
# (never -0.0, which a rate's text shares with 0.0).
RATES = st.sampled_from(
    [0.0, *(rate for cap in (150.0, 450.0, 1300.0) for _, rate in default_snr_staircase(cap))]
) | st.floats(min_value=0.0)


@settings(max_examples=100, deadline=None)
@given(
    drawn=st.lists(st.tuples(EDGE_FLOATS, RATES, EDGE_FLOATS), min_size=1, max_size=12),
    count=st.sampled_from([0, 1, 7, 8, 9]),
)
def test_rendered_curve_matches_csv_writer(drawn, count):
    # The drawn rows repeat when the count exceeds them.
    rows = list(islice(cycle(drawn), count))
    got = io.StringIO()
    _write_lines(got, (["distance_m", "rate_mbps", "snr_db"], _curve_lines(rows)))
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["distance_m", "rate_mbps", "snr_db"])
    writer.writerows(rows)
    # Compared line by line: pytest would diff a failing long text whole.
    assert got.getvalue().splitlines(keepends=True) == expected.getvalue().splitlines(keepends=True)
