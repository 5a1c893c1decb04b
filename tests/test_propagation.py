"""Tests for geographic distance, path loss and the link budget."""

import math

import pytest

from wlansim.propagation import (
    EARTH_RADIUS_M,
    SPEED_OF_LIGHT,
    GeoPoint,
    PathLossModel,
    friis_path_loss,
    haversine_distance,
    received_power,
)

LONDON = GeoPoint(51.5074, -0.1278)
PARIS = GeoPoint(48.8566, 2.3522)


def great_circle_oracle(p: GeoPoint, q: GeoPoint) -> float:
    """Spherical law of cosines; independent of the haversine identity."""
    lat1, lat2 = math.radians(p.latitude), math.radians(q.latitude)
    dlon = math.radians(q.longitude - p.longitude)
    cos_angle = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(dlon)
    return EARTH_RADIUS_M * math.acos(max(-1.0, min(1.0, cos_angle)))


def friis_oracle(d: float, f: float) -> float:
    """Single-log closed form 20*log10(4*pi*d*f/c)."""
    return 20.0 * math.log10(4.0 * math.pi * d * f / SPEED_OF_LIGHT)


class TestHaversine:
    def test_identical_points_give_exact_zero(self):
        assert haversine_distance(LONDON, LONDON) == 0.0

    def test_antipodal_points(self):
        north = GeoPoint(90.0, 0.0)
        south = GeoPoint(-90.0, 0.0)
        assert haversine_distance(north, south) == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-12)

    def test_london_paris_against_great_circle_oracle(self):
        d = haversine_distance(LONDON, PARIS)
        assert d == pytest.approx(great_circle_oracle(LONDON, PARIS), rel=1e-3)
        assert d == pytest.approx(343.5e3, rel=1e-3)

    def test_symmetric(self):
        pts = [LONDON, PARIS, GeoPoint(-33.87, 151.21), GeoPoint(0.0, 0.0), GeoPoint(51.88, 0.94)]
        for p in pts:
            for q in pts:
                assert haversine_distance(p, q) == pytest.approx(haversine_distance(q, p), abs=1e-9)

    def test_zero_only_on_identical_points(self):
        assert haversine_distance(LONDON, GeoPoint(51.5074, -0.1279)) > 0

    def test_geopoint_range_validation(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, 181.0)


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

    @pytest.mark.parametrize(
        "d,f",
        [
            (0.0, 2.4e9), (-1.0, 2.4e9), (1.0, 0.0), (1.0, -5.0),
            (math.nan, 2.4e9), (math.inf, 2.4e9), (1.0, math.nan), (1.0, math.inf),
        ],
    )
    def test_domain_errors(self, d, f):
        with pytest.raises(ValueError):
            friis_path_loss(d, f)


class TestPathLossModel:
    def test_exponent_two_reproduces_friis(self):
        for f in (2.4e9, 5e9):
            model = PathLossModel.free_space(f)
            for d in [0.1, 0.5, 1.0, 3.0, 30.0, 1000.0]:
                assert model.path_loss(d) == pytest.approx(friis_path_loss(d, f), abs=1e-9)

    def test_exponent_below_one_rejected(self):
        with pytest.raises(ValueError):
            PathLossModel(40.0, 0.5, 2.4e9)

    @pytest.mark.parametrize(
        "fields,named",
        [
            ((math.nan, 2.0, 2.4e9), "reference loss"),
            ((40.0, math.nan, 2.4e9), "exponent"),
            ((40.0, math.inf, 2.4e9), "exponent"),
            ((40.0, 2.0, math.nan), "frequency"),
            ((40.0, 2.0, math.inf), "frequency"),
        ],
    )
    def test_non_finite_field_rejected(self, fields, named):
        with pytest.raises(ValueError, match=named):
            PathLossModel(*fields)


class TestLinkBudget:
    def test_received_power_examples(self):
        assert received_power(20.0, 40.0) == -20.0
        assert received_power(23.0, 0.0) == 23.0
        assert received_power(30.0, 46.42) == pytest.approx(-16.42, abs=1e-12)
