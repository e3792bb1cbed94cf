"""Pixel-to-WGS84 projection: full pose chain (body attitude, gimbal,
camera mounting), ray-ground-plane intersection on a flat terrain model,
and detection polygon projection.

Attitude uses aviation order (yaw-pitch-roll, Z-Y-X intrinsic) in NED.
The camera optical axis lies along body +x at zero gimbal angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import Detection
from .geodesy import EnuOffset, GeoPoint, GeoPolygon, enu_to_geo, polygon_centroid
from .reacquisition import CameraIntrinsics, GeometryError, backproject

# Rays within this angle of the horizontal are rejected as unreliable.
MIN_INCIDENCE_RAD = math.radians(1.0)

# Camera axes in the gimbal/body frame at zero gimbal: optical (+z cam)
# along +x, image right (+x cam) along +y, image down (+y cam) along +z.
CAM_TO_MOUNT = np.array([[0.0, 0.0, 1.0],
                         [1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0]])


class ProjectionError(GeometryError):
    pass


@dataclass(frozen=True)
class Attitude:
    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0


@dataclass(frozen=True)
class UavPose:
    position: GeoPoint  # altitude is AGL (height above the ground plane)
    attitude: Attitude = Attitude()
    gimbal: Attitude = Attitude()


@dataclass(frozen=True)
class GroundPlane:
    elevation: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.elevation):
            raise ProjectionError("non-finite ground elevation")


@dataclass(frozen=True)
class ProjectedDetection:
    detection: Detection
    polygon: GeoPolygon
    centroid: GeoPoint
    frame_id: str
    timestamp: str
    media_rgb: str = ""
    media_tiff: str = ""


def _rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=np.float64)


def _rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=np.float64)


def _rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float64)


def euler_zyx(att: Attitude) -> np.ndarray:
    """Body-to-NED rotation for yaw-pitch-roll (Z-Y-X intrinsic) angles."""
    return _rot_z(att.yaw) @ _rot_y(att.pitch) @ _rot_x(att.roll)


def camera_to_world_rotation(gimbal: Attitude,
                             attitude: Attitude = Attitude()) -> np.ndarray:
    """R = R_body->NED(attitude) @ R_gimbal->body(gimbal) @ R_cam->gimbal."""
    return euler_zyx(attitude) @ euler_zyx(gimbal) @ CAM_TO_MOUNT


def _ground_points(pixels, intr: CameraIntrinsics, pose: UavPose,
                   plane: GroundPlane) -> list:
    """Intersect each pixel's world ray with the horizontal ground plane.

    The rotation, height and anchor are shared by all pixels of the pose.
    The local frame is anchored at the UAV's ground-projected position;
    pose altitude is height above the ground plane.
    """
    height = pose.position.alt - plane.elevation
    if height <= 0:
        raise ProjectionError("UAV is not above the ground plane")
    rot = camera_to_world_rotation(pose.gimbal, pose.attitude)
    anchor = GeoPoint(lat=pose.position.lat, lon=pose.position.lon, alt=plane.elevation)
    points = []
    for u, v in pixels:
        ray = rot @ backproject(u, v, intr)  # NED
        if ray[2] < math.sin(MIN_INCIDENCE_RAD):
            raise ProjectionError("ray does not descend toward the ground "
                                  "(horizon/upward or grazing incidence)")
        t = height / ray[2]
        north = t * ray[0]
        east = t * ray[1]
        points.append(enu_to_geo(anchor, EnuOffset(east=east, north=north,
                                                   up=0.0)))
    return points


def pixel_to_ground(u: float, v: float, intr: CameraIntrinsics, pose: UavPose,
                    plane: GroundPlane) -> GeoPoint:
    """Ground point of one pixel (see :func:`_ground_points`)."""
    return _ground_points([(u, v)], intr, pose, plane)[0]


def project_detection(det: Detection, intr: CameraIntrinsics, pose: UavPose,
                      plane: GroundPlane, frame_id: str, timestamp: str,
                      media_rgb: str = "", media_tiff: str = "") -> ProjectedDetection:
    """Project all four bbox corners to the ground; any failing corner raises
    ProjectionError (the mission's project stage drops the detection and
    counts it)."""
    b = det.bbox
    corners = [(b.x_min, b.y_min), (b.x_max, b.y_min),
               (b.x_max, b.y_max), (b.x_min, b.y_max)]
    polygon = GeoPolygon(vertices=tuple(
        _ground_points(corners, intr, pose, plane)))
    centroid = polygon_centroid(polygon)
    return ProjectedDetection(detection=det, polygon=polygon, centroid=centroid,
                              frame_id=frame_id, timestamp=timestamp,
                              media_rgb=media_rgb, media_tiff=media_tiff)
