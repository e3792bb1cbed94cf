import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import enu_offset, enu_point, polygon_centroid_objects

from pvpipeline.geodesy import (EnuOffset, GeodesyError,
                                GeoPoint, GeoPolygon, MEAN_EARTH_RADIUS_M,
                                enu_to_geo, haversine_distance,
                                polygon_centroid, tangent_offset,
                                tangent_point)

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
        east, north = tangent_offset(origin.lat, origin.lon, p.lat, p.lon)
        assert east == pytest.approx(off.east, abs=1e-6)
        assert north == pytest.approx(off.north, abs=1e-6)
        p2 = enu_to_geo(origin, EnuOffset(east=east, north=north))
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
    east, north = tangent_offset(origin.lat, origin.lon, p.lat, p.lon)
    assert east == pytest.approx(off.east, abs=1e-6)
    assert north == pytest.approx(off.north, abs=1e-6)
    p2 = enu_to_geo(origin, EnuOffset(east=east, north=north))
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


def test_tangent_plane_float_helpers_match_object_forms():
    # tangent_offset, enu_to_geo and polygon_centroid run on floats; every
    # coordinate must keep the bits of the EnuOffset/GeoPoint forms, at the
    # antimeridian and near the poles too.
    rng = np.random.default_rng(5)
    for _ in range(300):
        origin = GeoPoint(lat=float(rng.choice([rng.uniform(-89.9, 89.9),
                                                89.9, -89.9])),
                          lon=float(rng.choice([rng.uniform(-180, 180),
                                                179.99999, -180.0])),
                          alt=float(rng.uniform(-50, 50)))
        # A quad around the origin, its corners in angle order.
        offsets = [EnuOffset(east=float(r * math.cos(a)),
                             north=float(r * math.sin(a)),
                             up=float(rng.uniform(-5, 5)))
                   for a, r in zip(np.sort(rng.uniform(0, 2 * np.pi, 4)),
                                   rng.uniform(1.0, 9e3, 4))]
        points = []
        for off in offsets:
            p, want = enu_to_geo(origin, off), enu_point(origin, off)
            assert (p.lat.hex(), p.lon.hex(), p.alt.hex()) == \
                (want.lat.hex(), want.lon.hex(), want.alt.hex())
            east, north = tangent_offset(origin.lat, origin.lon, p.lat, p.lon)
            want = enu_offset(origin, p)
            assert (east.hex(), north.hex()) == \
                (want.east.hex(), want.north.hex())
            points.append(p)
        c = polygon_centroid(GeoPolygon(vertices=tuple(points)))
        want = polygon_centroid_objects(GeoPolygon(vertices=tuple(points)))
        assert (c.lat.hex(), c.lon.hex(), c.alt.hex()) == \
            (want.lat.hex(), want.lon.hex(), want.alt.hex())


def test_tangent_plane_errors_name_the_fault():
    origin = GeoPoint(lat=0.0, lon=0.0, alt=0.0)
    with pytest.raises(GeodesyError, match="offset exceeds 100 km"):
        enu_to_geo(origin, EnuOffset(east=0.0, north=-1e300))
    with pytest.raises(GeodesyError, match="farther than 100 km"):
        tangent_offset(0.0, 0.0, -1.0, 0.0)
    for east in (math.nan, math.inf):
        with pytest.raises(GeodesyError, match="non-finite ENU component"):
            tangent_point(0.0, 0.0, east, 0.0)


def test_tangent_plane_range_guard():
    origin = GeoPoint(lat=0.0, lon=0.0, alt=0.0)
    with pytest.raises(GeodesyError):
        enu_to_geo(origin, EnuOffset(east=200_000.0, north=0.0, up=0.0))
    with pytest.raises(GeodesyError):  # ~222 km north
        tangent_offset(origin.lat, origin.lon, 2.0, 0.0)


def test_polygon_centroid_square_shoelace():
    origin = GeoPoint(lat=45.0, lon=7.0, alt=0.0)
    verts = [enu_to_geo(origin, EnuOffset(east=e, north=n))
             for e, n in [(0, 0), (10, 0), (10, 10), (0, 10)]]
    centroid = polygon_centroid(GeoPolygon(vertices=tuple(verts)))
    east, north = tangent_offset(origin.lat, origin.lon, centroid.lat,
                                 centroid.lon)
    assert east == pytest.approx(5.0, abs=1e-6)
    assert north == pytest.approx(5.0, abs=1e-6)


def test_polygon_centroid_weighted_not_vertex_mean():
    # L-shaped polygon: area centroid differs from the vertex average.
    origin = GeoPoint(lat=45.0, lon=7.0, alt=0.0)
    shape = [(0, 0), (4, 0), (4, 1), (1, 1), (1, 4), (0, 4)]
    verts = [enu_to_geo(origin, EnuOffset(east=e, north=n)) for e, n in shape]
    centroid = polygon_centroid(GeoPolygon(vertices=tuple(verts)))
    east, north = tangent_offset(origin.lat, origin.lon, centroid.lat,
                                 centroid.lon)
    # Shoelace centroid of this L-shape (computed by hand): (1.5, 1.5)...
    # decompose: rect 4x1 at y in [0,1] (area 4, centroid (2, .5)) plus
    # rect 1x3 at x in [0,1], y in [1,4] (area 3, centroid (.5, 2.5)).
    cx = (4 * 2.0 + 3 * 0.5) / 7
    cy = (4 * 0.5 + 3 * 2.5) / 7
    assert east == pytest.approx(cx, abs=1e-6)
    assert north == pytest.approx(cy, abs=1e-6)


def test_polygon_centroid_degenerate_falls_back_to_vertex_mean():
    origin = GeoPoint(lat=45.0, lon=7.0, alt=0.0)
    verts = [enu_to_geo(origin, EnuOffset(east=e, north=0.0))
             for e in (0.0, 1.0, 2.0)]
    centroid = polygon_centroid(GeoPolygon(vertices=tuple(verts)))
    east, north = tangent_offset(origin.lat, origin.lon, centroid.lat,
                                 centroid.lon)
    assert east == pytest.approx(1.0, abs=1e-6)


def test_polygon_requires_three_distinct_vertices():
    p = GeoPoint(lat=0.0, lon=0.0, alt=0.0)
    q = GeoPoint(lat=0.0, lon=0.001, alt=0.0)
    with pytest.raises(GeodesyError):
        GeoPolygon(vertices=(p, q))
    with pytest.raises(GeodesyError):
        GeoPolygon(vertices=(p, p, q))
