"""Tests for geographic distance, position checks, path loss and the link budget."""

import math

import pytest

from wlansim.propagation import (
    EARTH_RADIUS_M,
    SPEED_OF_LIGHT,
    check_position,
    friis_path_loss,
    haversine_distance,
)
from wlansim.throughput import noise_floor_dbm, throughput_vs_distance

# (latitude, longitude) in decimal degrees.
LONDON = (51.5074, -0.1278)
PARIS = (48.8566, 2.3522)


def great_circle_oracle(p: tuple[float, float], q: tuple[float, float]) -> float:
    """Spherical law of cosines; independent of the haversine identity."""
    lat1, lat2 = math.radians(p[0]), math.radians(q[0])
    dlon = math.radians(q[1] - p[1])
    cos_angle = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(dlon)
    return EARTH_RADIUS_M * math.acos(max(-1.0, min(1.0, cos_angle)))


def friis_oracle(d: float, f: float) -> float:
    """Single-log closed form 20*log10(4*pi*d*f/c)."""
    return 20.0 * math.log10(4.0 * math.pi * d * f / SPEED_OF_LIGHT)


def log_distance_snr(reference_loss_db, exponent, distances, tx_eirp_dbm=20.0):
    """Link SNR over the 20 MHz floor at each distance, from the one curve
    that computes the log-distance loss (a one-point curve per distance)."""
    return [
        snr
        for d in distances
        for _, _, snr in throughput_vs_distance(
            "ac", 3, 20, tx_eirp_dbm, reference_loss_db, exponent, d, 0.0, 1
        )
    ]


class TestHaversine:
    def test_identical_points_give_exact_zero(self):
        assert haversine_distance(*LONDON, *LONDON) == 0.0

    def test_antipodal_points(self):
        assert haversine_distance(90.0, 0.0, -90.0, 0.0) == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-12)

    def test_exact_antipodes_on_a_quarter_degree_grid(self):
        # Rounding can push the haversine term past 1 here (at latitude 87.5,
        # say); near the antipode the formula is good to ~sqrt(eps), ~0.1 m.
        for k in range(721):
            lat = -90.0 + k / 4
            assert haversine_distance(lat, 0.0, -lat, 180.0) == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-7)

    def test_london_paris_against_great_circle_oracle(self):
        d = haversine_distance(*LONDON, *PARIS)
        assert d == pytest.approx(great_circle_oracle(LONDON, PARIS), rel=1e-3)
        assert d == pytest.approx(343.5e3, rel=1e-3)

    def test_symmetric(self):
        pts = [LONDON, PARIS, (-33.87, 151.21), (0.0, 0.0), (51.88, 0.94)]
        for p in pts:
            for q in pts:
                assert haversine_distance(*p, *q) == pytest.approx(haversine_distance(*q, *p), abs=1e-9)

    def test_zero_only_on_identical_points(self):
        assert haversine_distance(*LONDON, 51.5074, -0.1279) > 0

    def test_geopoint_bounds_accepted(self):
        for lat, lon in [(90.0, 180.0), (-90.0, -180.0), LONDON, (0.0, 0.0)]:
            check_position(lat, lon)

    def test_geopoint_range_validation(self):
        cases = [(91.0, 0.0, "latitude"), (math.nan, 0.0, "latitude"), (0.0, 181.0, "longitude"), (0.0, math.nan, "longitude")]
        for lat, lon, named in cases:
            with pytest.raises(ValueError, match=named):
                check_position(lat, lon)


class TestFriis:
    def test_one_meter_at_2g4(self):
        loss = friis_path_loss(1.0, 2.4e9)
        assert loss == pytest.approx(friis_oracle(1.0, 2.4e9), abs=1e-9)
        assert loss == pytest.approx(40.05, abs=0.01)

    def test_one_meter_at_5g(self):
        loss = friis_path_loss(1.0, 5e9)
        assert loss == pytest.approx(friis_oracle(1.0, 5e9), abs=1e-9)
        assert loss == pytest.approx(46.42, abs=0.01)

    def test_six_db_per_doubling(self):
        for d in [0.1, 1.0, 7.3, 120.0]:
            delta = friis_path_loss(2 * d, 2.4e9) - friis_path_loss(d, 2.4e9)
            assert delta == pytest.approx(6.0206, abs=1e-6)

    def test_twenty_db_per_decade(self):
        for f in (2.4e9, 5e9):
            for d in [0.1, 1.0, 10.0, 100.0]:
                delta = friis_path_loss(10 * d, f) - friis_path_loss(d, f)
                assert delta == pytest.approx(20.0, abs=1e-6)

    def test_strictly_increasing_in_distance_and_frequency(self):
        assert friis_path_loss(2.0, 2.4e9) > friis_path_loss(1.9, 2.4e9)
        assert friis_path_loss(2.0, 5e9) > friis_path_loss(2.0, 2.4e9)


class TestPathLossModel:
    def test_exponent_two_reproduces_friis(self):
        distances = [0.1, 0.5, 1.0, 3.0, 30.0, 1000.0]
        for f in (2.4e9, 5e9):
            snrs = log_distance_snr(friis_path_loss(1.0, f), 2.0, distances)
            for d, snr in zip(distances, snrs):
                assert snr == pytest.approx(20.0 - friis_path_loss(d, f) + 90.0, abs=1e-9)

    @pytest.mark.parametrize(
        "fields,named",
        [
            ((-math.inf, 2.4e9), "exponent"),
            ((math.nan, 2.4e9), "exponent"),
            ((math.inf, 2.4e9), "exponent"),
        ],
    )
    def test_non_finite_field_rejected(self, fields, named):
        # (exponent, frequency), the reference loss built as `throughput`
        # builds it.  `throughput` rejects these exponents first, and names
        # the flag; the curve's overflow check rejects them too, as every
        # SNR is then non-finite.
        exponent, frequency_hz = fields
        with pytest.raises(ValueError, match=named):
            log_distance_snr(friis_path_loss(1.0, frequency_hz), exponent, [1.0])


class TestLinkBudget:
    def test_received_power_examples(self):
        # At 1 m the loss is the reference loss: received power is EIRP minus loss.
        for eirp, loss, received in [(20.0, 40.0, -20.0), (23.0, 0.0, 23.0), (30.0, 46.42, -16.42)]:
            snr = log_distance_snr(loss, 2.0, [1.0], tx_eirp_dbm=eirp)[0]
            assert snr == pytest.approx(received - noise_floor_dbm(20), abs=1e-12)
