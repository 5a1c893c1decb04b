"""Tests for rate lookups, modulation accounting and distance curves."""

from fractions import Fraction

import pytest

from wlansim.cli import EXIT_OK, main
from wlansim.propagation import PathLossModel
from wlansim.throughput import (
    Modulation,
    PhyConfig,
    Standard,
    bits_per_symbol,
    default_snr_staircase,
    link_snr,
    max_client_rate,
    noise_floor_dbm,
    throughput_vs_distance,
)

from oracles import staircase_rate


class TestRateTable:
    @pytest.mark.parametrize(
        "standard,streams,rate",
        [
            (Standard.N80211, 1, 150.0),
            (Standard.N80211, 3, 450.0),
            (Standard.AC80211, 1, 450.0),
            (Standard.AC80211, 3, 1300.0),
        ],
    )
    def test_published_cells(self, standard, streams, rate):
        assert max_client_rate(standard, streams) == rate

    def test_unsupported_combination(self):
        with pytest.raises(KeyError):
            max_client_rate(Standard.AC80211, 2)


class TestModulation:
    def test_bits_per_symbol(self):
        assert bits_per_symbol(Modulation.QAM64) == 6
        assert bits_per_symbol(Modulation.QAM256) == 8

    def test_upgrade_ratio_is_exactly_four_thirds(self):
        ratio = Fraction(bits_per_symbol(Modulation.QAM256), bits_per_symbol(Modulation.QAM64))
        assert ratio == Fraction(4, 3)

    def test_log2_consistency_with_constellation_size(self):
        for mod in Modulation:
            assert 2 ** bits_per_symbol(mod) == mod.value


class TestPhyConfig:
    def test_n_rejects_wide_channels(self):
        with pytest.raises(ValueError, match="20/40"):
            PhyConfig(Standard.N80211, channel_width_mhz=80)

    def test_n_rejects_more_than_four_streams(self):
        with pytest.raises(ValueError, match="4 spatial"):
            PhyConfig(Standard.N80211, spatial_streams=5)

    def test_ac_allows_160mhz_and_eight_streams(self):
        cfg = PhyConfig(Standard.AC80211, channel_width_mhz=160, spatial_streams=8)
        assert cfg.channel_width_mhz == 160

    def test_stream_range(self):
        with pytest.raises(ValueError):
            PhyConfig(Standard.AC80211, spatial_streams=0)
        with pytest.raises(ValueError):
            PhyConfig(Standard.AC80211, spatial_streams=9)


class TestNoiseFloor:
    @pytest.mark.parametrize("width,floor", [(20, -90.0), (40, -87.0), (80, -84.0), (160, -81.0)])
    def test_three_db_per_doubling(self, width, floor):
        assert noise_floor_dbm(width) == pytest.approx(floor, abs=1e-12)


class TestDistanceCurves:
    def setup_method(self):
        self.model = PathLossModel.free_space(5e9)
        self.distances = [float(d) for d in range(1, 31)]

    def test_cap_at_short_distance(self):
        cfg = PhyConfig(Standard.AC80211, spatial_streams=3)
        curve = throughput_vs_distance(cfg, self.model, 30.0, [0.1, 0.2])
        assert all(rate == 1300.0 for rate in curve.rate_mbps)

    def test_outage_below_lowest_threshold(self):
        cfg = PhyConfig(Standard.AC80211, spatial_streams=3)
        curve = throughput_vs_distance(cfg, self.model, -60.0, [1000.0])
        assert curve.rate_mbps[0] == 0.0

    def test_monotone_non_increasing(self):
        cfg = PhyConfig(Standard.AC80211, spatial_streams=3)
        curve = throughput_vs_distance(cfg, self.model, 10.0, self.distances)
        rates = curve.rate_mbps
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_ac_dominates_n_pointwise(self):
        ac = throughput_vs_distance(
            PhyConfig(Standard.AC80211, spatial_streams=3), self.model, 10.0, self.distances
        )
        n = throughput_vs_distance(
            PhyConfig(Standard.N80211, spatial_streams=3), self.model, 10.0, self.distances
        )
        assert ac.distance_m == n.distance_m
        for rate_ac, rate_n in zip(ac.rate_mbps, n.rate_mbps):
            assert rate_ac >= rate_n

    def test_empty_distances_rejected(self):
        cfg = PhyConfig(Standard.AC80211, spatial_streams=3)
        with pytest.raises(ValueError, match="nonempty"):
            throughput_vs_distance(cfg, self.model, 10.0, [])

    def test_unsorted_distances_rejected(self):
        cfg = PhyConfig(Standard.AC80211, spatial_streams=3)
        with pytest.raises(ValueError, match="sorted"):
            throughput_vs_distance(cfg, self.model, 10.0, [3.0, 1.0])

    def test_nonpositive_distances_rejected(self):
        cfg = PhyConfig(Standard.AC80211, spatial_streams=3)
        with pytest.raises(ValueError, match="positive"):
            throughput_vs_distance(cfg, self.model, 10.0, [0.0, 1.0])

    def test_untabulated_streams_rejected(self):
        cfg = PhyConfig(Standard.AC80211, spatial_streams=2)
        with pytest.raises(KeyError):
            throughput_vs_distance(cfg, self.model, 10.0, [1.0])

    def test_staircase_rates_never_exceed_cap(self):
        stairs = default_snr_staircase(1300.0)
        assert len(stairs) == 8
        assert max(rate for _, rate in stairs) == 1300.0
        # With no path loss at 1 m the SNR is EIRP + 90 dB: 100 dB, then -10 dB.
        cfg = PhyConfig(Standard.AC80211, spatial_streams=3)
        lossless = PathLossModel(0.0, 2.0, 5e9)
        assert throughput_vs_distance(cfg, lossless, 10.0, [1.0]).rate_mbps[0] == 1300.0
        assert throughput_vs_distance(cfg, lossless, -100.0, [1.0]).rate_mbps[0] == 0.0

    def test_curve_rates_follow_snr_to_rate(self):
        cfg = PhyConfig(Standard.AC80211, spatial_streams=3)
        stairs = default_snr_staircase(max_client_rate(cfg.standard, cfg.spatial_streams))
        curve = throughput_vs_distance(cfg, self.model, -5.0, [1.0 + 0.25 * k for k in range(400)])
        assert len(set(curve.rate_mbps)) == len(stairs) + 1  # every rung and the outage
        assert list(curve.rate_mbps) == [staircase_rate(snr, stairs) for snr in curve.snr_db]
        # With no path loss at 1 m the SNR is EIRP + 90 dB exactly: land on,
        # just below and just above every threshold.
        lossless = PathLossModel(0.0, 2.0, 5e9)
        for threshold, _ in stairs:
            for snr in (threshold - 0.5, threshold, threshold + 0.5):
                point = throughput_vs_distance(cfg, lossless, snr - 90.0, [1.0])
                assert point.snr_db[0] == snr
                assert point.rate_mbps[0] == staircase_rate(snr, stairs)

    def test_csv_computes_each_link_snr_once(self, tmp_path, monkeypatch):
        import wlansim.throughput as throughput

        calls = []

        def counted(*args):
            calls.append(args)
            return link_snr(*args)

        monkeypatch.setattr(throughput, "link_snr", counted)
        # The defaults: 30 points from 1 m in 1 m steps, free space at 5 GHz,
        # 20 dBm EIRP over 20 MHz.
        assert main(["throughput", "--out", str(tmp_path)]) == EXIT_OK
        assert len(calls) == len(self.distances)
        rows = [line.split(",") for line in (tmp_path / "throughput.csv").read_text().splitlines()[1:]]
        assert [float(snr) for _, _, snr in rows] == [link_snr(self.model, 20.0, d, 20) for d in self.distances]
