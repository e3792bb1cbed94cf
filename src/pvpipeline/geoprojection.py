"""Pixel-to-WGS84 projection: a camera on a pitch/yaw gimbal (its
convention is :func:`reacquisition.camera_to_world_rotation`),
ray-ground-plane intersection on a flat terrain model, and detection
polygon projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import Detection
from .geodesy import GeoPoint, GeodesyError, checked_point, checked_ring, \
    polygon_centroid, tangent_point
from .reacquisition import Attitude, CameraIntrinsics, GeometryError, \
    backproject, camera_to_world_rotation

# Rays within this angle of the horizontal are rejected as unreliable.
MIN_INCIDENCE_RAD = math.radians(1.0)
_MIN_DESCENT = math.sin(MIN_INCIDENCE_RAD)  # least down component of a ray


class ProjectionError(GeometryError):
    pass


@dataclass(frozen=True)
class CameraView:
    """One camera view, set up once for all the detections seen in it: the
    ground point below the camera, the camera's height above it, the
    camera-to-world rotation of its gimbal, and the frame id, timestamp and
    media names each sighting projected in it carries."""
    intr: CameraIntrinsics
    ground: GeoPoint
    height: float
    rot: np.ndarray
    frame_id: str
    timestamp: str
    media_rgb: str = ""
    media_tiff: str = ""


def _ground_points(pixels, intr: CameraIntrinsics, ground: GeoPoint,
                   height: float, rot: np.ndarray) -> list:
    """Intersect each pixel's world ray with the horizontal ground plane.

    ``ground`` is the point of the plane below the camera, ``height`` the
    camera's height above it and ``rot`` its camera-to-world rotation. A
    ray that does not descend, or meets the plane beyond the tangent-plane
    range, raises ProjectionError. Returns (lat, lon) pairs held to
    :func:`geodesy.checked_point`.
    """
    if not 0.0 < height < math.inf:
        raise ProjectionError("camera is not above the ground plane")
    points = []
    for u, v in pixels:
        ray_n, ray_e, ray_d = (rot @ backproject(u, v, intr)).tolist()  # NED
        if not ray_d >= _MIN_DESCENT:  # NaN fails too
            raise ProjectionError("ray does not descend toward the ground "
                                  "(horizon/upward or grazing incidence)")
        t = height / ray_d
        try:
            points.append(checked_point(
                *tangent_point(ground.lat, ground.lon, t * ray_e, t * ray_n)))
        except GeodesyError as exc:
            raise ProjectionError(str(exc)) from exc
    return points


def pixel_to_ground(u: float, v: float, intr: CameraIntrinsics,
                    ground: GeoPoint, height: float,
                    gimbal: Attitude) -> GeoPoint:
    """Ground point of one pixel seen through the gimbal (see
    :func:`_ground_points`)."""
    return GeoPoint(*_ground_points([(u, v)], intr, ground, height,
                                    camera_to_world_rotation(gimbal))[0])


def project_detection(det: Detection, view: CameraView) -> tuple:
    """The :class:`dedup.Sightings` row of ``det`` in ``view``, its box
    four numbers and its ring flat, the ring the four bbox corners
    projected to the ground. A failing corner raises ProjectionError and a
    repeated vertex GeodesyError (the mission's project stage drops the
    detection and counts it)."""
    x0, y0, x1, y1 = box = (det.x_min, det.y_min, det.x_max, det.y_max)
    corners = _ground_points([(x0, y0), (x1, y0), (x1, y1), (x0, y1)],
                             view.intr, view.ground, view.height, view.rot)
    ring = checked_ring(corners)
    try:
        lat, lon = polygon_centroid(corners)
    except GeodesyError as exc:  # corners over 100 km apart
        raise ProjectionError(str(exc)) from exc
    return (box, det.class_id, det.confidence, det.peak_temp_c,
            ring, lat, lon, view.frame_id, view.timestamp,
            view.media_rgb, view.media_tiff)
