import math

import numpy as np
import pytest

from oracles import haversine_distance

from pvpipeline.dedup import Sightings
from pvpipeline.detector import Detection
from pvpipeline.geodesy import GeoPoint, tangent_offsets
from pvpipeline.geoprojection import (CameraView, ProjectionError,
                                      pixel_to_ground, project_detection)
from pvpipeline.reacquisition import (Attitude, CameraIntrinsics,
                                      camera_to_world_rotation)

INTR = CameraIntrinsics(fx=100.0, fy=100.0, cx=39.5, cy=31.5,
                        width=80, height=64)
ORIGIN = GeoPoint(lat=49.407, lon=26.984)


NADIR = Attitude(pitch=-math.pi / 2.0)


def _enu(point):
    return tangent_offsets(ORIGIN.lat, ORIGIN.lon, [(point.lat, point.lon)])[0]


def test_nadir_principal_point_hits_ground_below():
    pt = pixel_to_ground(INTR.cx, INTR.cy, INTR, ORIGIN, 10.0, NADIR)
    east, north = _enu(pt)
    assert abs(east) < 1e-9 and abs(north) < 1e-9


def test_nadir_pixel_offset_closed_form():
    # At nadir with yaw 0, image +u points east and +v south; a pixel
    # offset du maps to a ground offset h * du / fx.
    alt = 10.0
    du, dv = 7.0, -5.0
    pt = pixel_to_ground(INTR.cx + du, INTR.cy + dv, INTR, ORIGIN, alt, NADIR)
    east, north = _enu(pt)
    assert east == pytest.approx(alt * du / INTR.fx, rel=1e-9)
    assert north == pytest.approx(-alt * dv / INTR.fy, rel=1e-9)


def test_ground_offset_scales_with_altitude():
    du = 10.0
    e5, n5 = _enu(pixel_to_ground(INTR.cx + du, INTR.cy, INTR, ORIGIN, 5.0,
                                  NADIR))
    e20, n20 = _enu(pixel_to_ground(INTR.cx + du, INTR.cy, INTR, ORIGIN, 20.0,
                                    NADIR))
    assert e20 == pytest.approx(4.0 * e5, rel=1e-8)
    assert abs(n5) < 1e-8 and abs(n20) < 1e-8


def test_yaw_rotates_ground_offset():
    du = 10.0
    pt = pixel_to_ground(INTR.cx + du, INTR.cy, INTR, ORIGIN, 10.0,
                         Attitude(pitch=-math.pi / 2.0, yaw=math.pi / 2.0))
    east, north = _enu(pt)
    # A 90-degree yaw turns the eastward offset into a southward one.
    assert north == pytest.approx(-10.0 * du / INTR.fx, rel=1e-9)
    assert abs(east) < 1e-9


def test_ground_plane_elevation_reduces_height():
    # The height is taken above the ground point: a camera 10 m above the
    # datum over ground at 5 m is passed as 5 m.
    pt = pixel_to_ground(INTR.cx + 10.0, INTR.cy, INTR, ORIGIN, 10.0 - 5.0,
                         NADIR)
    east, _ = _enu(pt)
    assert east == pytest.approx(5.0 * 10.0 / INTR.fx, rel=1e-9)


def test_grazing_and_upward_rays_rejected():
    horizon = Attitude(pitch=0.0)  # boresight at the horizon
    with pytest.raises(ProjectionError):
        pixel_to_ground(INTR.cx, INTR.cy, INTR, ORIGIN, 10.0, horizon)
    with pytest.raises(ProjectionError):  # a NaN ray
        pixel_to_ground(INTR.cx, INTR.cy, INTR, ORIGIN, 10.0,
                        Attitude(pitch=math.nan))
    # A descending ray that meets the plane past the 100 km tangent range.
    with pytest.raises(ProjectionError):
        pixel_to_ground(INTR.cx, INTR.cy, INTR, ORIGIN, 1e5,
                        Attitude(pitch=-math.pi / 6.0))
    for height in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ProjectionError):
            pixel_to_ground(INTR.cx, INTR.cy, INTR, ORIGIN, height, NADIR)


def test_camera_rotation_closed_forms():
    # Boresight (camera +z) in NED: north at zero gimbal, east at yaw 90
    # degrees, down at pitch -90 degrees; image right (camera +x) is east.
    boresight, right = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    r = camera_to_world_rotation(Attitude())
    assert np.allclose(r @ boresight, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(r @ right, [0.0, 1.0, 0.0], atol=1e-12)
    r = camera_to_world_rotation(Attitude(yaw=math.pi / 2.0))
    assert np.allclose(r @ boresight, [0.0, 1.0, 0.0], atol=1e-12)
    r = camera_to_world_rotation(Attitude(pitch=-math.pi / 2.0))
    assert np.allclose(r @ boresight, [0.0, 0.0, 1.0], atol=1e-12)


def test_camera_rotation_is_orthonormal():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = camera_to_world_rotation(Attitude(
            pitch=rng.uniform(-1.5, 0.0), yaw=rng.uniform(-math.pi, math.pi)))
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)


def test_project_detection_polygon_and_centroid():
    det = Detection(x_min=30.0, y_min=22.0, x_max=50.0, y_max=42.0,
                    class_id="hotspot", confidence=0.8, peak_temp_c=40.0)
    proj = Sightings.of_rows([project_detection(det, CameraView(
        intr=INTR, ground=ORIGIN, height=10.0,
        rot=camera_to_world_rotation(NADIR), frame_id="f1",
        timestamp="2025-09-30T10:00:00Z", media_rgb="f1.jpg",
        media_tiff="f1.tiff"))])
    assert len(proj.ring(0)) == 4
    # The bbox center (40, 32) sits (0.5, 0.5) px from the principal point.
    east, north = _enu(GeoPoint(proj.lat[0], proj.lon[0]))
    assert east == pytest.approx(10.0 * 0.5 / INTR.fx, rel=1e-6)
    assert north == pytest.approx(-10.0 * 0.5 / INTR.fy, rel=1e-6)
    # 20 px at 10 m altitude and f=100 is a 2 m ground span.
    d = haversine_distance(*(GeoPoint(*v)
                             for v in proj.ring(0)[:2]))
    assert d == pytest.approx(2.0, rel=1e-6)
    assert proj.media_rgb == ["f1.jpg"]


def test_project_detection_takes_the_views_rotation(monkeypatch):
    # The rotation is built once per view, by whoever builds the view;
    # pixel_to_ground builds one for its gimbal.
    from pvpipeline import geoprojection
    calls = []

    def counted(*args):
        calls.append(args)
        return camera_to_world_rotation(*args)

    view = CameraView(intr=INTR, ground=ORIGIN, height=10.0,
                      rot=camera_to_world_rotation(NADIR), frame_id="f1",
                      timestamp="2025-09-30T10:00:00Z")
    monkeypatch.setattr(geoprojection, "camera_to_world_rotation", counted)
    det = Detection(x_min=30.0, y_min=22.0, x_max=50.0, y_max=42.0,
                    class_id="hotspot", confidence=0.8, peak_temp_c=40.0)
    proj = Sightings.of_rows([project_detection(det, view)])
    assert calls == []
    assert pixel_to_ground(30.0, 22.0, INTR, ORIGIN, 10.0, NADIR) == \
        GeoPoint(*proj.ring(0)[0])
    assert calls == [(NADIR,)]


def test_project_detection_corners_far_apart_raise_projection_error():
    # Each corner lies within 100 km of the nadir point, but the corners
    # are over 100 km from each other: the centroid, taken on the plane at
    # the first corner, cannot be formed. The project stage must see a
    # ProjectionError (a dropped detection), not a GeodesyError.
    wide = CameraIntrinsics(fx=20.0, fy=20.0, cx=39.5, cy=31.5,
                            width=80, height=64)
    det = Detection(x_min=0.0, y_min=0.0, x_max=80.0, y_max=64.0,
                    class_id="hotspot", confidence=0.8, peak_temp_c=40.0)
    with pytest.raises(ProjectionError, match="farther than 100 km"):
        project_detection(det, CameraView(
            intr=wide, ground=ORIGIN, height=30_000.0,
            rot=camera_to_world_rotation(NADIR), frame_id="f1",
            timestamp="2025-09-30T10:00:00Z"))
