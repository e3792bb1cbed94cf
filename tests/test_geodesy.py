import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pvpipeline.geodesy import (EnuOffset, GeodesyError,
                                GeoPoint, GeoPolygon, MEAN_EARTH_RADIUS_M,
                                enu_to_geo, geo_to_enu, haversine_distance,
                                polygon_centroid)

R = MEAN_EARTH_RADIUS_M


def test_meridian_arc_closed_form():
    # 1 degree of latitude along a meridian is exactly R * pi / 180.
    a = GeoPoint(lat=10.0, lon=30.0, alt=0.0)
    b = GeoPoint(lat=11.0, lon=30.0, alt=0.0)
    expected = R * math.pi / 180.0
    assert abs(haversine_distance(a, b) - expected) / expected < 1e-9


def test_antipodal_distance():
    a = GeoPoint(lat=0.0, lon=0.0, alt=0.0)
    b = GeoPoint(lat=0.0, lon=180.0, alt=0.0)
    expected = math.pi * R
    assert abs(haversine_distance(a, b) - expected) / expected < 1e-9


def test_equator_arc_closed_form():
    a = GeoPoint(lat=0.0, lon=5.0, alt=0.0)
    b = GeoPoint(lat=0.0, lon=5.5, alt=0.0)
    expected = R * math.radians(0.5)
    assert abs(haversine_distance(a, b) - expected) / expected < 1e-9


def test_haversine_symmetry_and_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = GeoPoint(lat=float(rng.uniform(-89, 89)),
                     lon=float(rng.uniform(-180, 180)), alt=0.0)
        b = GeoPoint(lat=float(rng.uniform(-89, 89)),
                     lon=float(rng.uniform(-180, 180)), alt=0.0)
        assert haversine_distance(a, b) == pytest.approx(
            haversine_distance(b, a), rel=1e-12)
        assert haversine_distance(a, a) == 0.0


def test_longitude_normalized():
    p = GeoPoint(lat=10.0, lon=190.0, alt=0.0)
    assert p.lon == pytest.approx(-170.0)
    q = GeoPoint(lat=10.0, lon=-190.0, alt=0.0)
    assert q.lon == pytest.approx(170.0)


def test_invalid_latitude_rejected():
    with pytest.raises(GeodesyError):
        GeoPoint(lat=91.0, lon=0.0, alt=0.0)


@pytest.mark.parametrize("kwargs", [{"lat": 0, "lon": 10 ** 400},
                                    {"lat": 0, "lon": 0, "alt": -10 ** 400},
                                    {"lat": 10 ** 400, "lon": 0}])
def test_geopoint_rejects_an_int_past_the_float_range(kwargs):
    with pytest.raises(GeodesyError):
        GeoPoint(**kwargs)


@pytest.mark.parametrize("kwargs", [{"east": 10 ** 400, "north": 0},
                                    {"east": 0, "north": -10 ** 400},
                                    {"east": 0, "north": 0, "up": 10 ** 400}])
def test_enu_offset_rejects_an_int_past_the_float_range(kwargs):
    with pytest.raises(GeodesyError):
        EnuOffset(**kwargs)


def test_enu_round_trip_within_1e9_degrees():
    rng = np.random.default_rng(1)
    for _ in range(100):
        origin = GeoPoint(lat=float(rng.uniform(-60, 60)),
                          lon=float(rng.uniform(-180, 180)), alt=0.0)
        off = EnuOffset(east=float(rng.uniform(-5000, 5000)),
                        north=float(rng.uniform(-5000, 5000)),
                        up=float(rng.uniform(-10, 10)))
        p = enu_to_geo(origin, off)
        back = geo_to_enu(origin, p)
        assert back.east == pytest.approx(off.east, abs=1e-6)
        assert back.north == pytest.approx(off.north, abs=1e-6)
        p2 = enu_to_geo(origin, back)
        assert abs(p2.lat - p.lat) < 1e-9
        assert abs(p2.lon - p.lon) < 1e-9


@given(lat=st.floats(-85.0, 85.0), lon=st.floats(-1e-3, 1e-3),
       east=st.floats(-5000.0, 5000.0), north=st.floats(-5000.0, 5000.0))
def test_enu_round_trip_across_the_antimeridian(lat, lon, east, north):
    # The origin sits within 1e-3 degrees of lon +-180, so offsets of up to
    # 5 km east or west cross it.
    origin = GeoPoint(lat=lat, lon=180.0 + lon)
    off = EnuOffset(east=east, north=north)
    p = enu_to_geo(origin, off)
    assert -180.0 <= p.lon < 180.0
    back = geo_to_enu(origin, p)
    assert back.east == pytest.approx(off.east, abs=1e-6)
    assert back.north == pytest.approx(off.north, abs=1e-6)
    p2 = enu_to_geo(origin, back)
    assert abs(p2.lat - p.lat) < 1e-9
    assert abs((p2.lon - p.lon + 180.0) % 360.0 - 180.0) < 1e-9


def test_haversine_vs_enu_agreement_under_1km():
    rng = np.random.default_rng(2)
    for _ in range(100):
        origin = GeoPoint(lat=float(rng.uniform(-60, 60)),
                          lon=float(rng.uniform(-180, 180)), alt=0.0)
        east = float(rng.uniform(-700, 700))
        north = float(rng.uniform(-700, 700))
        if math.hypot(east, north) < 1.0:
            continue
        p = enu_to_geo(origin, EnuOffset(east=east, north=north, up=0.0))
        d_hav = haversine_distance(origin, p)
        d_enu = math.hypot(east, north)
        assert abs(d_hav - d_enu) / d_enu < 1e-6


def test_tangent_plane_range_guard():
    origin = GeoPoint(lat=0.0, lon=0.0, alt=0.0)
    with pytest.raises(GeodesyError):
        enu_to_geo(origin, EnuOffset(east=200_000.0, north=0.0, up=0.0))
    far = GeoPoint(lat=2.0, lon=0.0, alt=0.0)  # ~222 km north
    with pytest.raises(GeodesyError):
        geo_to_enu(origin, far)


def test_polygon_centroid_square_shoelace():
    origin = GeoPoint(lat=45.0, lon=7.0, alt=0.0)
    verts = [enu_to_geo(origin, EnuOffset(east=e, north=n))
             for e, n in [(0, 0), (10, 0), (10, 10), (0, 10)]]
    centroid = polygon_centroid(GeoPolygon(vertices=tuple(verts)))
    off = geo_to_enu(origin, centroid)
    assert off.east == pytest.approx(5.0, abs=1e-6)
    assert off.north == pytest.approx(5.0, abs=1e-6)


def test_polygon_centroid_weighted_not_vertex_mean():
    # L-shaped polygon: area centroid differs from the vertex average.
    origin = GeoPoint(lat=45.0, lon=7.0, alt=0.0)
    shape = [(0, 0), (4, 0), (4, 1), (1, 1), (1, 4), (0, 4)]
    verts = [enu_to_geo(origin, EnuOffset(east=e, north=n)) for e, n in shape]
    centroid = polygon_centroid(GeoPolygon(vertices=tuple(verts)))
    off = geo_to_enu(origin, centroid)
    # Shoelace centroid of this L-shape (computed by hand): (1.5, 1.5)...
    # decompose: rect 4x1 at y in [0,1] (area 4, centroid (2, .5)) plus
    # rect 1x3 at x in [0,1], y in [1,4] (area 3, centroid (.5, 2.5)).
    cx = (4 * 2.0 + 3 * 0.5) / 7
    cy = (4 * 0.5 + 3 * 2.5) / 7
    assert off.east == pytest.approx(cx, abs=1e-6)
    assert off.north == pytest.approx(cy, abs=1e-6)


def test_polygon_centroid_degenerate_falls_back_to_vertex_mean():
    origin = GeoPoint(lat=45.0, lon=7.0, alt=0.0)
    verts = [enu_to_geo(origin, EnuOffset(east=e, north=0.0))
             for e in (0.0, 1.0, 2.0)]
    centroid = polygon_centroid(GeoPolygon(vertices=tuple(verts)))
    off = geo_to_enu(origin, centroid)
    assert off.east == pytest.approx(1.0, abs=1e-6)


def test_polygon_requires_three_distinct_vertices():
    p = GeoPoint(lat=0.0, lon=0.0, alt=0.0)
    q = GeoPoint(lat=0.0, lon=0.001, alt=0.0)
    with pytest.raises(GeodesyError):
        GeoPolygon(vertices=(p, q))
    with pytest.raises(GeodesyError):
        GeoPolygon(vertices=(p, p, q))
