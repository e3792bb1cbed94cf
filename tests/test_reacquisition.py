import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pvpipeline.detector import Detection
from pvpipeline.reacquisition import (Attitude, AxisAngle, CameraIntrinsics,
                                      GeometryError, ReacqPolicy, backproject,
                                      camera_to_world_rotation,
                                      pointing_angles, reacquisition_decision,
                                      repoint, rodrigues_rotate,
                                      solve_axis_angle, unit, wrap_angle)

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


@given(pitch=st.floats(-1.5707, 1.5707), yaw=st.floats(-10.0, 10.0))
def test_pointing_angles_invert_the_camera_rotation(pitch, yaw):
    # The gimbal convention in one place: the boresight of an attitude
    # reads back as that attitude.
    bore = camera_to_world_rotation(Attitude(pitch=pitch, yaw=yaw)) @ \
        np.array([0.0, 0.0, 1.0])
    p, y = pointing_angles(bore)
    assert abs(p - pitch) < 1e-12
    assert abs(wrap_angle(y - wrap_angle(yaw))) < 1e-12


def test_repoint_from_a_level_gimbal_takes_the_target_angles():
    # Boresight along north, target north-east-down: the new attitude is
    # the target's pointing angles.
    c_new = unit(np.array([1.0, 1.0, 1.0]))
    new = repoint(Attitude(), c_new)
    assert (new.pitch, new.yaw) == pytest.approx(pointing_angles(c_new))


def test_repoint_keeps_the_yaw_for_a_nadir_line_of_sight():
    gimbal = Attitude(pitch=-1.2, yaw=0.7)
    new = repoint(gimbal, np.array([0.0, 0.0, 1.0]))
    assert new.yaw == gimbal.yaw
    assert new.pitch == pytest.approx(-math.pi / 2.0, abs=1e-12)


def test_repoint_recenters_to_subpixel():
    """The line of sight to a detection, projected into the camera of the
    re-pointed gimbal, lands on the principal point (the re-centering
    guarantee), from any gimbal: over the top or looking straight down
    with a yaw."""
    rng = np.random.default_rng(3)
    gimbals = [Attitude(pitch=float(rng.uniform(-2 * math.pi, 2 * math.pi)),
                        yaw=float(rng.uniform(-2 * math.pi, 2 * math.pi)))
               for _ in range(100)]
    gimbals += [Attitude(pitch=p, yaw=float(rng.uniform(-math.pi, math.pi)))
                for p in (-math.pi / 2.0, math.pi / 2.0, 1.5 * math.pi)
                for _ in range(10)]
    for gimbal in gimbals:
        u = float(rng.uniform(2, INTR.width - 2))
        v = float(rng.uniform(2, INTR.height - 2))
        los = camera_to_world_rotation(gimbal) @ backproject(u, v, INTR)
        ray_cam = camera_to_world_rotation(repoint(gimbal, los)).T @ los
        assert abs(INTR.fx * ray_cam[0] / ray_cam[2]) < 1e-6
        assert abs(INTR.fy * ray_cam[1] / ray_cam[2]) < 1e-6


def test_reacquisition_decision_policy():
    frame_area = float(INTR.width * INTR.height)
    small = Detection(x_min=0, y_min=0, x_max=3, y_max=3, class_id="hotspot",
                      confidence=0.3, peak_temp_c=40.0)
    big = Detection(x_min=0, y_min=0, x_max=30, y_max=30, class_id="hotspot",
                    confidence=0.3, peak_temp_c=40.0)
    sure = replace(small, confidence=0.9)

    for max_rounds in (2, 0):
        policy = ReacqPolicy(tau_ra=0.5, min_area_frac=0.01,
                             max_rounds=max_rounds)
        assert reacquisition_decision(sure, frame_area, policy, 0) == "accept"
        # With no rounds, the policy rejects what it would re-acquire.
        assert reacquisition_decision(small, frame_area, policy, 0) == \
            ("reacquire" if max_rounds else "reject")
        # Low confidence but not small: no re-acquisition round is spent.
        assert reacquisition_decision(big, frame_area, policy, 0) == "reject"
        # Round budget exhausted.
        assert reacquisition_decision(small, frame_area, policy,
                                      max_rounds) == "reject"
        with pytest.raises(GeometryError):
            reacquisition_decision(small, frame_area, policy, max_rounds + 1)
    with pytest.raises(GeometryError):
        ReacqPolicy(max_rounds=-1)


def test_intrinsics_validation():
    with pytest.raises(GeometryError):
        CameraIntrinsics(fx=0.0, fy=100.0, cx=10.0, cy=10.0)
