"""Tests for rate lookups, modulation accounting and distance curves."""

import io
from fractions import Fraction

import pytest

from wlansim.propagation import PathLossModel
from wlansim.throughput import (
    Modulation,
    PhyConfig,
    Standard,
    bits_per_symbol,
    curve_to_csv,
    default_snr_staircase,
    link_snr,
    max_client_rate,
    noise_floor_dbm,
    snr_to_rate,
    throughput_vs_distance,
)


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
        assert all(rate == 1300.0 for _, rate in curve)

    def test_outage_below_lowest_threshold(self):
        cfg = PhyConfig(Standard.AC80211, spatial_streams=3)
        curve = throughput_vs_distance(cfg, self.model, -60.0, [1000.0])
        assert curve[0][1] == 0.0

    def test_monotone_non_increasing(self):
        cfg = PhyConfig(Standard.AC80211, spatial_streams=3)
        curve = throughput_vs_distance(cfg, self.model, 10.0, self.distances)
        rates = [rate for _, rate in curve]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_monotone_for_any_monotone_staircase(self):
        import random

        snrs = [link_snr(self.model, 10.0, d, 20) for d in self.distances]
        rng = random.Random(8)
        for _ in range(20):
            steps = sorted(rng.uniform(-5, 40) for _ in range(rng.randint(1, 10)))
            rates = sorted(rng.uniform(1, 1300) for _ in steps)
            stairs = list(zip(steps, rates))
            values = [snr_to_rate(snr, stairs) for snr in snrs]
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_ac_dominates_n_pointwise(self):
        ac = throughput_vs_distance(
            PhyConfig(Standard.AC80211, spatial_streams=3), self.model, 10.0, self.distances
        )
        n = throughput_vs_distance(
            PhyConfig(Standard.N80211, spatial_streams=3), self.model, 10.0, self.distances
        )
        for (d1, rate_ac), (d2, rate_n) in zip(ac, n):
            assert d1 == d2
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
        assert snr_to_rate(100.0, stairs) == 1300.0
        assert snr_to_rate(-10.0, stairs) == 0.0

    def test_csv_export_schema(self):
        cfg = PhyConfig(Standard.AC80211, spatial_streams=3)
        curve = throughput_vs_distance(cfg, self.model, 10.0, [1.0, 2.0])
        out = io.StringIO()
        curve_to_csv(curve, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "distance_m,rate_mbps,snr_db"
        assert len(lines) == 3

    def test_csv_computes_each_link_snr_once(self, monkeypatch):
        import wlansim.throughput as throughput

        cfg = PhyConfig(Standard.AC80211, spatial_streams=3)
        calls = []

        def counted(*args):
            calls.append(args)
            return link_snr(*args)

        monkeypatch.setattr(throughput, "link_snr", counted)
        curve = throughput_vs_distance(cfg, self.model, 10.0, self.distances)
        out = io.StringIO()
        curve_to_csv(curve, out)
        assert len(calls) == len(self.distances)
        rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
        assert [float(snr) for _, _, snr in rows] == [
            link_snr(self.model, 10.0, d, cfg.channel_width_mhz) for d in self.distances
        ]
