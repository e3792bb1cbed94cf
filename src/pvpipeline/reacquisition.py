"""Adaptive re-acquisition geometry: pixel back-projection, world-frame
line-of-sight, minimal axis-angle solution, Rodrigues rotation, and the
gimbal that points the camera.

Conventions: world frame is NED (north, east, down); camera frame has +z
along the optical axis, +x right, +y down in the image. The gimbal turns by
yaw, then pitch (Z-Y intrinsic) in NED; the camera optical axis lies along
+x (north) at zero gimbal angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import Detection

PARALLEL_EPS = 1e-12

# Camera axes in the gimbal frame at zero gimbal: optical (+z cam) along
# +x, image right (+x cam) along +y, image down (+y cam) along +z.
CAM_TO_MOUNT = np.array([[0.0, 0.0, 1.0],
                         [1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0]])


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int = 0    # sensor size in pixels; optional (0 = unspecified)
    height: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.fx, self.fy, self.cx, self.cy))):
            raise GeometryError("intrinsics fx, fy, cx, cy must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise GeometryError("focal lengths must be positive")
        if self.width < 0 or self.height < 0:
            raise GeometryError("sensor dimensions must be non-negative")


@dataclass(frozen=True)
class AxisAngle:
    axis: np.ndarray  # unit vector (3,)
    angle: float      # radians in [0, pi]

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=np.float64)
        if self.angle != 0.0 and abs(np.linalg.norm(axis) - 1.0) > 1e-12:
            raise GeometryError("axis must be a unit vector")
        object.__setattr__(self, "axis", axis)


@dataclass(frozen=True)
class Attitude:
    pitch: float = 0.0
    yaw: float = 0.0


@dataclass(frozen=True)
class ReacqPolicy:
    tau_ra: float = 0.5
    min_area_frac: float = 0.01
    max_rounds: int = 2  # 0: reject where the policy would re-acquire

    def __post_init__(self):
        if not (0.0 < self.tau_ra < 1.0):
            raise GeometryError("tau_ra must lie in (0, 1)")
        if self.min_area_frac <= 0 or self.max_rounds < 0:
            raise GeometryError("invalid re-acquisition policy")


def unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    n = math.sqrt(v.dot(v))  # what np.linalg.norm computes for a 1-D array
    if n == 0.0:
        raise GeometryError("cannot normalize the zero vector")
    return v / n


def backproject(u: float, v: float, intr: CameraIntrinsics) -> np.ndarray:
    """Unit direction in the camera frame for pixel (u, v). A ray whose
    length overflows (a focal length so small that the pixel offset over it
    leaves the float range) raises GeometryError."""
    x = (u - intr.cx) / intr.fx
    y = (v - intr.cy) / intr.fy
    if not x * x + y * y < math.inf:  # NaN fails too
        raise GeometryError(f"ray of pixel ({u}, {v}) is not finite")
    return unit(np.array([x, y, 1.0]))


def solve_axis_angle(c: np.ndarray, c_target: np.ndarray) -> AxisAngle:
    """Minimal rotation taking unit vector c to unit vector c_target:
    axis = c x c' / |c x c'|, angle = arccos(c . c').

    Degenerate branches: parallel vectors give angle 0 with a +z axis;
    antiparallel vectors use a deterministic perpendicular axis.
    """
    c = np.asarray(c, dtype=np.float64)
    t = np.asarray(c_target, dtype=np.float64)
    cross = np.cross(c, t)
    norm = np.linalg.norm(cross)
    dot = float(np.clip(np.dot(c, t), -1.0, 1.0))
    if norm < PARALLEL_EPS:
        if dot > 0.0:
            return AxisAngle(axis=np.array([0.0, 0.0, 1.0]), angle=0.0)
        # Antiparallel: project +x onto c's orthogonal complement; fall back
        # to +y when c is (anti)parallel to +x.
        probe = np.array([1.0, 0.0, 0.0])
        perp = probe - np.dot(probe, c) * c
        if np.linalg.norm(perp) < 1e-6:
            probe = np.array([0.0, 1.0, 0.0])
            perp = probe - np.dot(probe, c) * c
        return AxisAngle(axis=unit(perp), angle=math.pi)
    return AxisAngle(axis=cross / norm, angle=math.acos(dot))


def rodrigues_rotate(c: np.ndarray, aa: AxisAngle) -> np.ndarray:
    """c cos(t) + (k x c) sin(t) + k (k . c)(1 - cos(t))."""
    c = np.asarray(c, dtype=np.float64)
    k = aa.axis
    ct = math.cos(aa.angle)
    st = math.sin(aa.angle)
    return c * ct + np.cross(k, c) * st + k * np.dot(k, c) * (1.0 - ct)


def pointing_angles(c: np.ndarray):
    """(pitch, yaw) that point a boresight along NED direction c.

    yaw = atan2(east, north); pitch = atan2(-down, horizontal). The nadir
    singularity (no horizontal component) reports yaw 0 by convention.
    """
    n, e, d = np.asarray(c, dtype=np.float64)
    horiz = math.hypot(n, e)
    if horiz < PARALLEL_EPS:
        return (-math.pi / 2.0 if d > 0 else math.pi / 2.0), 0.0
    return math.atan2(-d, horiz), math.atan2(e, n)


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


def _rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=np.float64)


def _rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float64)


def camera_to_world_rotation(gimbal: Attitude) -> np.ndarray:
    """Camera-to-NED rotation R = Rz(yaw) @ Ry(pitch) @ R_cam->gimbal."""
    return _rot_z(gimbal.yaw) @ _rot_y(gimbal.pitch) @ CAM_TO_MOUNT


def repoint(gimbal: Attitude, los) -> Attitude:
    """The attitude whose boresight points along NED direction ``los``; a
    nadir line of sight keeps the gimbal's yaw."""
    pitch, yaw = pointing_angles(los)
    bore = camera_to_world_rotation(gimbal) @ np.array([0.0, 0.0, 1.0])
    cur_pitch, cur_yaw = pointing_angles(bore)
    # Over the top (cos pitch < 0) the boresight looks along yaw + pi and a
    # rise in gimbal pitch lowers it; a vertical one has the gimbal's yaw.
    over = math.cos(gimbal.pitch) < 0.0
    if math.hypot(bore[0], bore[1]) < PARALLEL_EPS:
        cur_yaw = gimbal.yaw + (math.pi if over else 0.0)
    n, e, _ = np.asarray(los, dtype=np.float64)
    d_pitch = wrap_angle(pitch - cur_pitch)
    d_yaw = 0.0 if math.hypot(n, e) < PARALLEL_EPS else wrap_angle(yaw - cur_yaw)
    # A step from the gimbal's own angles keeps the mission's frames bit
    # for bit; pointing_angles(los) taken outright would not.
    return Attitude(pitch=gimbal.pitch + (-d_pitch if over else d_pitch),
                    yaw=gimbal.yaw + d_yaw)


def reacquisition_decision(det: Detection, frame_area: float, policy: ReacqPolicy,
                           round_index: int) -> str:
    """The action for one detection: "accept" when it is confident,
    "reacquire" when it is small and not confident while rounds remain
    (:func:`repoint` gives the new gimbal), else "reject"."""
    if round_index > policy.max_rounds:
        raise GeometryError("round exceeds policy budget")
    if det.confidence >= policy.tau_ra:
        return "accept"
    small = det.area / frame_area < policy.min_area_frac
    if small and round_index < policy.max_rounds:
        return "reacquire"
    return "reject"
