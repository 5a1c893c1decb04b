"""Tests for the static channel plans and spectral overlap."""

import itertools
from fractions import Fraction

import pytest
from oracles import mask_overlap_oracle

from wlansim.channels import channel_by_id, channels_in, overlap_fraction

PLANS = ["ism24", "unii"]


class TestPlanTables:
    def test_ism24_has_14_channels(self):
        chans = channels_in("ism24")
        assert [c.id for c in chans] == list(range(1, 15))

    def test_ism24_centers_follow_5mhz_raster(self):
        chans = {c.id: c for c in channels_in("ism24")}
        for cid in range(1, 14):
            assert chans[cid].center_hz == 2412e6 + (cid - 1) * 5e6
        assert chans[6].center_hz == 2437e6

    def test_channel_14_sits_12mhz_above_13(self):
        chans = {c.id: c for c in channels_in("ism24")}
        assert chans[14].center_hz - chans[13].center_hz == 12e6
        assert chans[14].center_hz == 2484e6

    def test_ism24_bandwidth_is_22mhz(self):
        assert all(c.bandwidth_hz == 22e6 for c in channels_in("ism24"))

    def test_unii_a_first_is_36_at_5p18(self):
        chans = channels_in("unii_a")
        assert len(chans) == 8
        assert chans[0].id == 36
        assert chans[0].center_hz == 5.18e9
        assert chans[0].eirp_mw == 200.0

    def test_unii_b_is_the_11_mid_channels(self):
        chans = channels_in("unii_b")
        assert [c.id for c in chans] == [100, 104, 108, 112, 116, 120, 124, 128, 132, 136, 140]
        assert all(c.eirp_mw == 1000.0 for c in chans)

    def test_unii_c_ids_and_eirp(self):
        chans = channels_in("unii_c")
        assert {c.id for c in chans} == {149, 153, 157, 161}
        assert all(c.eirp_mw == 4000.0 for c in chans)

    def test_unii_plan_has_23_rows(self):
        assert len(channels_in("unii")) == 23

    def test_unii_bandwidth_is_20mhz(self):
        assert all(c.bandwidth_hz == 20e6 for c in channels_in("unii"))

    def test_channels_sorted_by_id(self):
        for plan in PLANS:
            ids = [c.id for c in channels_in(plan)]
            assert ids == sorted(ids)


class TestEirpLimits:
    @pytest.mark.parametrize("cid,mw", [(36, 200.0), (100, 1000.0), (149, 4000.0)])
    def test_unii_limits(self, cid, mw):
        assert channel_by_id(cid).eirp_mw == mw

    def test_unknown_channel(self):
        with pytest.raises(ValueError, match="channel 37 not in any known plan"):
            channel_by_id(37)

    def test_all_limits_positive(self):
        for plan in PLANS:
            assert all(c.eirp_mw > 0 for c in channels_in(plan))


class TestOverlap:
    def test_identity_is_one(self):
        ch1 = channel_by_id(1)
        assert overlap_fraction(ch1, ch1) == 1.0

    def test_ch1_ch6_disjoint(self):
        ch1 = channel_by_id(1)
        ch6 = channel_by_id(6)
        assert overlap_fraction(ch1, ch6) == 0.0

    def test_ch1_ch2_is_17_over_22(self):
        ch1 = channel_by_id(1)
        ch2 = channel_by_id(2)
        # Adjacent 22 MHz rectangles offset by 5 MHz share 17 MHz.
        assert overlap_fraction(ch1, ch2) == pytest.approx(float(Fraction(17, 22)), abs=1e-12)

    def test_one_six_eleven_pairwise_disjoint(self):
        trio = [channel_by_id(i) for i in (1, 6, 11)]
        for a, b in itertools.combinations(trio, 2):
            assert overlap_fraction(a, b) == 0.0

    def test_all_unii_pairwise_disjoint(self):
        for a, b in itertools.combinations(channels_in("unii"), 2):
            assert overlap_fraction(a, b) == 0.0

    def test_symmetric_over_all_ism_pairs(self):
        chans = channels_in("ism24")
        for a, b in itertools.combinations(chans, 2):
            assert overlap_fraction(a, b) == overlap_fraction(b, a)

    def test_zero_iff_centers_separated_by_bandwidth(self):
        chans = channels_in("ism24")
        for a, b in itertools.product(chans, repeat=2):
            separated = abs(a.center_hz - b.center_hz) >= a.bandwidth_hz
            assert (overlap_fraction(a, b) == 0.0) == separated

    def test_matches_mask_integration_oracle(self):
        # Every pair of both plans, cross-plan pairs included.
        chans = [c for plan in PLANS for c in channels_in(plan)]
        for a, b in itertools.product(chans, repeat=2):
            assert overlap_fraction(a, b) == pytest.approx(mask_overlap_oracle(a, b), abs=1e-9)

    def test_mixed_plans_overlap_exactly_zero(self):
        for a, b in itertools.product(channels_in("ism24"), channels_in("unii")):
            assert overlap_fraction(a, b) == overlap_fraction(b, a) == 0.0

