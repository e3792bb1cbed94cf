import math

import numpy as np
import pytest

from pvpipeline.detector import BoundingBox, Detection
from pvpipeline.geodesy import GeoPoint, geo_to_enu, haversine_distance
from pvpipeline.geoprojection import (Attitude, GroundPlane, ProjectionError,
                                      UavPose, camera_to_world_rotation,
                                      euler_zyx, pixel_to_ground,
                                      project_detection)
from pvpipeline.reacquisition import CameraIntrinsics

INTR = CameraIntrinsics(fx=100.0, fy=100.0, cx=39.5, cy=31.5,
                        width=80, height=64)
ORIGIN = GeoPoint(lat=49.407, lon=26.984, alt=0.0)


def _nadir_pose(alt=10.0, yaw=0.0):
    return UavPose(position=GeoPoint(lat=ORIGIN.lat, lon=ORIGIN.lon, alt=alt),
                   attitude=Attitude(yaw=yaw),
                   gimbal=Attitude(pitch=-math.pi / 2.0))


def _enu(point):
    off = geo_to_enu(ORIGIN, point)
    return off.east, off.north


def test_nadir_principal_point_hits_ground_below():
    pt = pixel_to_ground(INTR.cx, INTR.cy, INTR, _nadir_pose(), GroundPlane())
    east, north = _enu(pt)
    assert abs(east) < 1e-9 and abs(north) < 1e-9
    assert pt.alt == 0.0


def test_nadir_pixel_offset_closed_form():
    # At nadir with yaw 0, image +u points east and +v south; a pixel
    # offset du maps to a ground offset h * du / fx.
    alt = 10.0
    du, dv = 7.0, -5.0
    pt = pixel_to_ground(INTR.cx + du, INTR.cy + dv, INTR, _nadir_pose(alt),
                         GroundPlane())
    east, north = _enu(pt)
    assert east == pytest.approx(alt * du / INTR.fx, rel=1e-9)
    assert north == pytest.approx(-alt * dv / INTR.fy, rel=1e-9)


def test_ground_offset_scales_with_altitude():
    du = 10.0
    e5, n5 = _enu(pixel_to_ground(INTR.cx + du, INTR.cy, INTR,
                                  _nadir_pose(5.0), GroundPlane()))
    e20, n20 = _enu(pixel_to_ground(INTR.cx + du, INTR.cy, INTR,
                                    _nadir_pose(20.0), GroundPlane()))
    assert e20 == pytest.approx(4.0 * e5, rel=1e-8)
    assert abs(n5) < 1e-8 and abs(n20) < 1e-8


def test_yaw_rotates_ground_offset():
    du = 10.0
    pt = pixel_to_ground(INTR.cx + du, INTR.cy, INTR,
                         _nadir_pose(10.0, yaw=math.pi / 2.0), GroundPlane())
    east, north = _enu(pt)
    # A 90-degree yaw turns the eastward offset into a southward one.
    assert north == pytest.approx(-10.0 * du / INTR.fx, rel=1e-9)
    assert abs(east) < 1e-9


def test_ground_plane_elevation_reduces_height():
    pt = pixel_to_ground(INTR.cx + 10.0, INTR.cy, INTR, _nadir_pose(10.0),
                         GroundPlane(elevation=5.0))
    east, _ = _enu(pt)
    assert east == pytest.approx(5.0 * 10.0 / INTR.fx, rel=1e-9)
    assert pt.alt == 5.0


def test_grazing_and_upward_rays_rejected():
    pose = UavPose(position=GeoPoint(lat=ORIGIN.lat, lon=ORIGIN.lon, alt=10.0),
                   gimbal=Attitude(pitch=0.0))  # boresight at the horizon
    with pytest.raises(ProjectionError):
        pixel_to_ground(INTR.cx, INTR.cy, INTR, pose, GroundPlane())
    with pytest.raises(ProjectionError):
        pixel_to_ground(INTR.cx, INTR.cy, INTR, _nadir_pose(alt=-1.0),
                        GroundPlane())


def test_euler_zyx_closed_forms():
    assert np.allclose(euler_zyx(Attitude()), np.eye(3))
    r = euler_zyx(Attitude(yaw=math.pi / 2.0))
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0],
                       atol=1e-12)
    r = euler_zyx(Attitude(pitch=-math.pi / 2.0))
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 0.0, 1.0],
                       atol=1e-12)


def test_camera_rotation_is_orthonormal():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pose = UavPose(position=GeoPoint(lat=49.0, lon=26.0, alt=10.0),
                       attitude=Attitude(*rng.uniform(-0.3, 0.3, 3)),
                       gimbal=Attitude(*rng.uniform(-1.5, 0.0, 3)))
        r = camera_to_world_rotation(pose.gimbal, pose.attitude)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)


def test_project_detection_polygon_and_centroid():
    det = Detection(bbox=BoundingBox(x_min=30.0, y_min=22.0,
                                     x_max=50.0, y_max=42.0),
                    class_id="hotspot", confidence=0.8, peak_temp_c=40.0)
    proj = project_detection(det, INTR, _nadir_pose(10.0), GroundPlane(),
                             frame_id="f1", timestamp="2025-09-30T10:00:00Z",
                             media_rgb="f1.jpg", media_tiff="f1.tiff")
    assert len(proj.polygon.vertices) == 4
    # The bbox center (40, 32) sits (0.5, 0.5) px from the principal point.
    east, north = _enu(proj.centroid)
    assert east == pytest.approx(10.0 * 0.5 / INTR.fx, rel=1e-6)
    assert north == pytest.approx(-10.0 * 0.5 / INTR.fy, rel=1e-6)
    # 20 px at 10 m altitude and f=100 is a 2 m ground span.
    d = haversine_distance(proj.polygon.vertices[0], proj.polygon.vertices[1])
    assert d == pytest.approx(2.0, rel=1e-6)
    assert proj.media_rgb == "f1.jpg"


def test_project_detection_builds_one_rotation(monkeypatch):
    from pvpipeline import geoprojection
    calls = []

    def counted(*args):
        calls.append(args)
        return camera_to_world_rotation(*args)

    monkeypatch.setattr(geoprojection, "camera_to_world_rotation", counted)
    det = Detection(bbox=BoundingBox(x_min=30.0, y_min=22.0,
                                     x_max=50.0, y_max=42.0),
                    class_id="hotspot", confidence=0.8, peak_temp_c=40.0)
    project_detection(det, INTR, _nadir_pose(10.0), GroundPlane(),
                      frame_id="f1", timestamp="2025-09-30T10:00:00Z")
    assert len(calls) == 1
