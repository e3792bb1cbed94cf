import math
from array import array

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (enu_offset, enu_point, haversine_distance,
                     polygon_centroid_objects)

from pvpipeline.geodesy import (GeodesyError, GeoPoint, MEAN_EARTH_RADIUS_M,
                                checked_point, checked_ring, polygon_centroid,
                                ring_pairs, tangent_offsets, tangent_point)

R = MEAN_EARTH_RADIUS_M


def _at(origin, east, north):
    return GeoPoint(*tangent_point(origin.lat, origin.lon, east, north))


def test_meridian_arc_closed_form():
    # 1 degree of latitude along a meridian is exactly R * pi / 180.
    a = GeoPoint(lat=10.0, lon=30.0)
    b = GeoPoint(lat=11.0, lon=30.0)
    expected = R * math.pi / 180.0
    assert abs(haversine_distance(a, b) - expected) / expected < 1e-9


def test_antipodal_distance():
    a = GeoPoint(lat=0.0, lon=0.0)
    b = GeoPoint(lat=0.0, lon=180.0)
    expected = math.pi * R
    assert abs(haversine_distance(a, b) - expected) / expected < 1e-9


def test_equator_arc_closed_form():
    a = GeoPoint(lat=0.0, lon=5.0)
    b = GeoPoint(lat=0.0, lon=5.5)
    expected = R * math.radians(0.5)
    assert abs(haversine_distance(a, b) - expected) / expected < 1e-9


def test_haversine_symmetry_and_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = GeoPoint(lat=float(rng.uniform(-89, 89)),
                     lon=float(rng.uniform(-180, 180)))
        b = GeoPoint(lat=float(rng.uniform(-89, 89)),
                     lon=float(rng.uniform(-180, 180)))
        assert haversine_distance(a, b) == pytest.approx(
            haversine_distance(b, a), rel=1e-12)
        assert haversine_distance(a, a) == 0.0


def test_longitude_normalized():
    p = GeoPoint(lat=10.0, lon=190.0)
    assert p.lon == pytest.approx(-170.0)
    q = GeoPoint(lat=10.0, lon=-190.0)
    assert q.lon == pytest.approx(170.0)


@given(lon=st.one_of(st.floats(-540.0, 540.0), st.integers(-540, 540),
                    st.sampled_from([-180.0, -0.0, 180.0,
                                     math.nextafter(180.0, 0.0)])))
def test_checked_point_wraps_as_one_fmod_does(lon):
    # In range the wrap skips fmod; its bits stay those of the fmod form,
    # 179.99999999999997 (whose sum with 180 rounds to 360) included.
    wrapped = math.fmod(lon + 180.0, 360.0)
    if wrapped < 0:
        wrapped += 360.0
    assert checked_point(0.0, lon)[1].hex() == (wrapped - 180.0).hex()


def test_invalid_latitude_rejected():
    with pytest.raises(GeodesyError):
        GeoPoint(lat=91.0, lon=0.0)


@pytest.mark.parametrize("kwargs", [{"lat": 0, "lon": 10 ** 400},
                                    {"lat": 0, "lon": -10 ** 400},
                                    {"lat": 10 ** 400, "lon": 0}])
def test_geopoint_rejects_an_int_past_the_float_range(kwargs):
    with pytest.raises(GeodesyError):
        GeoPoint(**kwargs)


def test_enu_round_trip_within_1e9_degrees():
    rng = np.random.default_rng(1)
    for _ in range(100):
        origin = GeoPoint(lat=float(rng.uniform(-60, 60)),
                          lon=float(rng.uniform(-180, 180)))
        east0 = float(rng.uniform(-5000, 5000))
        north0 = float(rng.uniform(-5000, 5000))
        p = _at(origin, east0, north0)
        east, north = tangent_offsets(origin.lat, origin.lon,
                                      [(p.lat, p.lon)])[0]
        assert east == pytest.approx(east0, abs=1e-6)
        assert north == pytest.approx(north0, abs=1e-6)
        p2 = _at(origin, east, north)
        assert abs(p2.lat - p.lat) < 1e-9
        assert abs(p2.lon - p.lon) < 1e-9


@given(lat=st.floats(-85.0, 85.0), lon=st.floats(-1e-3, 1e-3),
       east=st.floats(-5000.0, 5000.0), north=st.floats(-5000.0, 5000.0))
def test_enu_round_trip_across_the_antimeridian(lat, lon, east, north):
    # The origin sits within 1e-3 degrees of lon +-180, so offsets of up to
    # 5 km east or west cross it.
    origin = GeoPoint(lat=lat, lon=180.0 + lon)
    p = _at(origin, east, north)
    assert -180.0 <= p.lon < 180.0
    east2, north2 = tangent_offsets(origin.lat, origin.lon,
                                    [(p.lat, p.lon)])[0]
    assert east2 == pytest.approx(east, abs=1e-6)
    assert north2 == pytest.approx(north, abs=1e-6)
    p2 = _at(origin, east2, north2)
    assert abs(p2.lat - p.lat) < 1e-9
    assert abs((p2.lon - p.lon + 180.0) % 360.0 - 180.0) < 1e-9


def test_haversine_vs_enu_agreement_under_1km():
    rng = np.random.default_rng(2)
    for _ in range(100):
        origin = GeoPoint(lat=float(rng.uniform(-60, 60)),
                          lon=float(rng.uniform(-180, 180)))
        east = float(rng.uniform(-700, 700))
        north = float(rng.uniform(-700, 700))
        if math.hypot(east, north) < 1.0:
            continue
        p = _at(origin, east, north)
        d_hav = haversine_distance(origin, p)
        d_enu = math.hypot(east, north)
        assert abs(d_hav - d_enu) / d_enu < 1e-6


def test_tangent_plane_float_helpers_match_object_forms():
    # tangent_offsets, tangent_point and polygon_centroid must keep every
    # bit of the oracle's own tangent-plane forms, at the antimeridian and
    # near the poles too.
    rng = np.random.default_rng(5)
    for _ in range(300):
        origin = GeoPoint(lat=float(rng.choice([rng.uniform(-89.9, 89.9),
                                                89.9, -89.9])),
                          lon=float(rng.choice([rng.uniform(-180, 180),
                                                179.99999, -180.0])))
        # A quad around the origin, its corners in angle order.
        offsets = [(float(r * math.cos(a)), float(r * math.sin(a)))
                   for a, r in zip(np.sort(rng.uniform(0, 2 * np.pi, 4)),
                                   rng.uniform(1.0, 9e3, 4))]
        points = []
        for off in offsets:
            p, want = _at(origin, *off), enu_point(origin, *off)
            assert (p.lat.hex(), p.lon.hex()) == \
                (want.lat.hex(), want.lon.hex())
            east, north = tangent_offsets(origin.lat, origin.lon,
                                          [(p.lat, p.lon)])[0]
            want = enu_offset(origin, p)
            assert (east.hex(), north.hex()) == \
                (want[0].hex(), want[1].hex())
            points.append(p)
        lat, lon = polygon_centroid([(p.lat, p.lon) for p in points])
        want = polygon_centroid_objects(points)
        assert (lat.hex(), lon.hex()) == (want.lat.hex(), want.lon.hex())


def test_tangent_plane_errors_name_the_fault():
    origin = GeoPoint(lat=0.0, lon=0.0)
    with pytest.raises(GeodesyError, match="offset exceeds 100 km"):
        tangent_point(origin.lat, origin.lon, 0.0, -1e300)
    with pytest.raises(GeodesyError, match="farther than 100 km"):
        tangent_offsets(0.0, 0.0, [(-1.0, 0.0)])
    for east in (math.nan, math.inf):
        with pytest.raises(GeodesyError, match="non-finite ENU component"):
            tangent_point(0.0, 0.0, east, 0.0)


def test_tangent_plane_range_guard():
    origin = GeoPoint(lat=0.0, lon=0.0)
    with pytest.raises(GeodesyError):
        tangent_point(origin.lat, origin.lon, 200_000.0, 0.0)
    with pytest.raises(GeodesyError):  # ~222 km north
        tangent_offsets(origin.lat, origin.lon, [(2.0, 0.0)])


def test_polygon_centroid_square_shoelace():
    origin = GeoPoint(lat=45.0, lon=7.0)
    verts = [_at(origin, e, n) for e, n in [(0, 0), (10, 0), (10, 10), (0, 10)]]
    centroid = polygon_centroid([(v.lat, v.lon) for v in verts])
    east, north = tangent_offsets(origin.lat, origin.lon, [centroid])[0]
    assert east == pytest.approx(5.0, abs=1e-6)
    assert north == pytest.approx(5.0, abs=1e-6)


def test_polygon_centroid_weighted_not_vertex_mean():
    # L-shaped polygon: area centroid differs from the vertex average.
    origin = GeoPoint(lat=45.0, lon=7.0)
    shape = [(0, 0), (4, 0), (4, 1), (1, 1), (1, 4), (0, 4)]
    verts = [_at(origin, e, n) for e, n in shape]
    centroid = polygon_centroid([(v.lat, v.lon) for v in verts])
    east, north = tangent_offsets(origin.lat, origin.lon, [centroid])[0]
    # Shoelace centroid of this L-shape (computed by hand): (1.5, 1.5)...
    # decompose: rect 4x1 at y in [0,1] (area 4, centroid (2, .5)) plus
    # rect 1x3 at x in [0,1], y in [1,4] (area 3, centroid (.5, 2.5)).
    cx = (4 * 2.0 + 3 * 0.5) / 7
    cy = (4 * 0.5 + 3 * 2.5) / 7
    assert east == pytest.approx(cx, abs=1e-6)
    assert north == pytest.approx(cy, abs=1e-6)


def test_polygon_centroid_degenerate_falls_back_to_vertex_mean():
    origin = GeoPoint(lat=45.0, lon=7.0)
    verts = [_at(origin, e, 0.0) for e in (0.0, 1.0, 2.0)]
    centroid = polygon_centroid([(v.lat, v.lon) for v in verts])
    east, north = tangent_offsets(origin.lat, origin.lon, [centroid])[0]
    assert east == pytest.approx(1.0, abs=1e-6)


def test_polygon_requires_three_distinct_vertices():
    p = (0.0, 0.0)
    q = (0.0, 0.001)
    with pytest.raises(GeodesyError):
        checked_ring([p, q])
    with pytest.raises(GeodesyError):
        checked_ring([p, p, q])
    # A ring that passes is held flat, and ring_pairs reads it back.
    ring = checked_ring([p, q, p])
    assert ring == array("d", [0.0, 0.0, 0.0, 0.001, 0.0, 0.0])
    assert ring_pairs(ring) == (p, q, p)
