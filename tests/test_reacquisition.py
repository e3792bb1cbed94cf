import math

import numpy as np
import pytest

from pvpipeline.detector import BoundingBox, Detection
from pvpipeline.reacquisition import (AxisAngle, CameraIntrinsics,
                                      GeometryError, ReacqPolicy, backproject,
                                      compute_reacq_command, pointing_angles,
                                      reacquisition_decision, rodrigues_rotate,
                                      solve_axis_angle, to_gimbal_command,
                                      unit, wrap_angle)

from oracles import axis_angle_matrix

INTR = CameraIntrinsics(fx=100.0, fy=100.0, cx=39.5, cy=31.5,
                        width=80, height=64)


def _random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def test_rodrigues_matches_matrix_oracle_1000_rotations():
    """Criterion check: the Rodrigues formula must agree with the explicit
    rotation-matrix construction to 1e-12 over random axes/angles/vectors."""
    rng = np.random.default_rng(0)
    for _ in range(1000):
        aa = AxisAngle(axis=_random_unit(rng),
                       angle=float(rng.uniform(-math.pi, math.pi)))
        v = rng.standard_normal(3)
        direct = rodrigues_rotate(v, aa)
        via_matrix = axis_angle_matrix(aa) @ v
        assert np.max(np.abs(direct - via_matrix)) < 1e-12


def test_rodrigues_preserves_norm():
    rng = np.random.default_rng(1)
    for _ in range(200):
        aa = AxisAngle(axis=_random_unit(rng),
                       angle=float(rng.uniform(-math.pi, math.pi)))
        v = rng.standard_normal(3)
        assert np.linalg.norm(rodrigues_rotate(v, aa)) == pytest.approx(
            np.linalg.norm(v), rel=1e-12)


def test_solve_then_rotate_reaches_target():
    rng = np.random.default_rng(2)
    for _ in range(500):
        c = _random_unit(rng)
        t = _random_unit(rng)
        aa = solve_axis_angle(c, t)
        assert np.max(np.abs(rodrigues_rotate(c, aa) - t)) < 1e-10
        # Minimal rotation: axis is perpendicular to both endpoints.
        if aa.angle not in (0.0, math.pi):
            assert abs(np.dot(aa.axis, c)) < 1e-9
            assert abs(np.dot(aa.axis, t)) < 1e-9


def test_solve_axis_angle_degenerate_branches():
    c = np.array([0.0, 0.0, 1.0])
    aa = solve_axis_angle(c, c)
    assert aa.angle == 0.0
    aa = solve_axis_angle(c, -c)
    assert aa.angle == pytest.approx(math.pi)
    assert np.max(np.abs(rodrigues_rotate(c, aa) + c)) < 1e-12
    # Antiparallel along +x exercises the fallback probe.
    x = np.array([1.0, 0.0, 0.0])
    aa = solve_axis_angle(x, -x)
    assert np.max(np.abs(rodrigues_rotate(x, aa) + x)) < 1e-12


def test_axis_angle_validation():
    with pytest.raises(GeometryError):
        AxisAngle(axis=np.array([1.0, 1.0, 0.0]), angle=0.5)  # not unit


def test_backproject_principal_point_is_boresight():
    ray = backproject(INTR.cx, INTR.cy, INTR)
    assert np.allclose(ray, [0.0, 0.0, 1.0])
    # One-pixel offset tilts by atan(1/fx).
    ray = backproject(INTR.cx + 1.0, INTR.cy, INTR)
    assert math.atan2(ray[0], ray[2]) == pytest.approx(math.atan(1.0 / INTR.fx))


def test_pointing_angles_closed_forms():
    assert pointing_angles([1.0, 0.0, 0.0]) == pytest.approx((0.0, 0.0))
    assert pointing_angles([0.0, 1.0, 0.0]) == pytest.approx((0.0, math.pi / 2))
    pitch, yaw = pointing_angles([0.0, 0.0, 1.0])  # straight down (NED)
    assert pitch == pytest.approx(-math.pi / 2)
    assert yaw == 0.0
    pitch, _ = pointing_angles([1.0, 0.0, 1.0])
    assert pitch == pytest.approx(-math.pi / 4)


def test_wrap_angle_range():
    for a in np.linspace(-10, 10, 101):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-12)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-12)


def test_gimbal_command_deltas_match_target_angles():
    # Boresight along north, target north-east-down; the command's deltas
    # must equal the target's pointing angles relative to the boresight.
    c_new = unit(np.array([1.0, 1.0, 1.0]))
    cmd = to_gimbal_command(c_new, current_pitch=0.0, current_yaw=0.0)
    pitch, yaw = pointing_angles(c_new)
    assert cmd.delta_pitch == pytest.approx(pitch)
    assert cmd.delta_yaw == pytest.approx(yaw)


def test_compute_reacq_command_recenters_to_subpixel():
    """Applying the commanded rotation to the camera must land the original
    detection on the principal point (the re-centering guarantee)."""
    rng = np.random.default_rng(3)
    from pvpipeline.geoprojection import Attitude, camera_to_world_rotation
    for _ in range(100):
        # A heading over the full circle plus a small gimbal yaw offset.
        heading = float(rng.uniform(-math.pi, math.pi))
        gimbal = Attitude(pitch=float(rng.uniform(-1.5, -0.6)),
                          yaw=heading + float(rng.uniform(-0.5, 0.5)))
        rot = camera_to_world_rotation(gimbal)
        u = float(rng.uniform(2, INTR.width - 2))
        v = float(rng.uniform(2, INTR.height - 2))
        det = Detection(bbox=BoundingBox(x_min=u - 1, y_min=v - 1,
                                         x_max=u + 1, y_max=v + 1),
                        class_id="hotspot", confidence=0.3, peak_temp_c=40.0)
        cmd = compute_reacq_command(det, INTR, rot)
        # Re-point the gimbal by the commanded deltas and re-project the
        # same world line of sight into the new camera.
        target_world = rot @ backproject(u, v, INTR)
        bore = rot @ np.array([0.0, 0.0, 1.0])
        p0, y0 = pointing_angles(bore)
        new_bore_pitch = p0 + cmd.delta_pitch
        new_bore_yaw = y0 + cmd.delta_yaw
        # The new boresight must coincide with the target line of sight.
        c = np.array([math.cos(new_bore_pitch) * math.cos(new_bore_yaw),
                      math.cos(new_bore_pitch) * math.sin(new_bore_yaw),
                      -math.sin(new_bore_pitch)])
        aa = solve_axis_angle(bore, c)
        rot_new = axis_angle_matrix(aa) @ rot
        ray_cam = rot_new.T @ target_world
        u_new = INTR.cx + INTR.fx * ray_cam[0] / ray_cam[2]
        v_new = INTR.cy + INTR.fy * ray_cam[1] / ray_cam[2]
        assert abs(u_new - INTR.cx) < 1.0
        assert abs(v_new - INTR.cy) < 1.0


def test_reacquisition_decision_policy():
    frame_area = float(INTR.width * INTR.height)
    small = Detection(bbox=BoundingBox(x_min=0, y_min=0, x_max=3, y_max=3),
                      class_id="hotspot", confidence=0.3, peak_temp_c=40.0)
    big = Detection(bbox=BoundingBox(x_min=0, y_min=0, x_max=30, y_max=30),
                    class_id="hotspot", confidence=0.3, peak_temp_c=40.0)
    sure = small.with_confidence(0.9)

    for enabled in (True, False):
        policy = ReacqPolicy(tau_ra=0.5, min_area_frac=0.01, max_rounds=2,
                             enabled=enabled)
        assert reacquisition_decision(sure, frame_area, policy, 0) == "accept"
        # Disabled, the policy rejects what it would re-acquire.
        assert reacquisition_decision(small, frame_area, policy, 0) == \
            ("reacquire" if enabled else "reject")
        # Low confidence but not small: no re-acquisition round is spent.
        assert reacquisition_decision(big, frame_area, policy, 0) == "reject"
        # Round budget exhausted.
        assert reacquisition_decision(small, frame_area, policy, 2) == \
            "reject"
        with pytest.raises(GeometryError):
            reacquisition_decision(small, frame_area, policy, 3)


def test_intrinsics_validation():
    with pytest.raises(GeometryError):
        CameraIntrinsics(fx=0.0, fy=100.0, cx=10.0, cy=10.0)
