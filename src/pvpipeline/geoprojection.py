"""Pixel-to-WGS84 projection: a camera on a pitch/yaw gimbal (its
convention is :func:`reacquisition.camera_to_world_rotation`),
ray-ground-plane intersection on a flat terrain model, and detection
polygon projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .detector import Detection
from .geodesy import GeoPoint, GeoPolygon, GeodesyError, polygon_centroid, \
    tangent_point
from .reacquisition import Attitude, CameraIntrinsics, GeometryError, \
    backproject, camera_to_world_rotation

# Rays within this angle of the horizontal are rejected as unreliable.
MIN_INCIDENCE_RAD = math.radians(1.0)


class ProjectionError(GeometryError):
    pass


@dataclass(frozen=True)
class ProjectedDetection:
    detection: Detection
    polygon: GeoPolygon
    centroid: GeoPoint
    frame_id: str
    timestamp: str
    media_rgb: str = ""
    media_tiff: str = ""


def _ground_points(pixels, intr: CameraIntrinsics, ground: GeoPoint,
                   height: float, gimbal: Attitude) -> list:
    """Intersect each pixel's world ray with the horizontal ground plane.

    ``ground`` is the point of the plane below the camera and ``height``
    the camera's height above it; the rotation is shared by all pixels. A
    ray that does not descend, or meets the plane beyond the tangent-plane
    range, raises ProjectionError.
    """
    if not 0.0 < height < math.inf:
        raise ProjectionError("camera is not above the ground plane")
    rot = camera_to_world_rotation(gimbal)
    points = []
    for u, v in pixels:
        ray = rot @ backproject(u, v, intr)  # NED
        if not ray[2] >= math.sin(MIN_INCIDENCE_RAD):  # NaN fails too
            raise ProjectionError("ray does not descend toward the ground "
                                  "(horizon/upward or grazing incidence)")
        t = height / ray[2]
        north = t * ray[0]
        east = t * ray[1]
        try:
            points.append(GeoPoint(
                *tangent_point(ground.lat, ground.lon, east, north)))
        except GeodesyError as exc:
            raise ProjectionError(str(exc)) from exc
    return points


def pixel_to_ground(u: float, v: float, intr: CameraIntrinsics,
                    ground: GeoPoint, height: float,
                    gimbal: Attitude) -> GeoPoint:
    """Ground point of one pixel (see :func:`_ground_points`)."""
    return _ground_points([(u, v)], intr, ground, height, gimbal)[0]


def project_detection(det: Detection, intr: CameraIntrinsics,
                      ground: GeoPoint, height: float, gimbal: Attitude,
                      frame_id: str, timestamp: str, media_rgb: str = "",
                      media_tiff: str = "") -> ProjectedDetection:
    """Project all four bbox corners to the ground; any failing corner raises
    ProjectionError (the mission's project stage drops the detection and
    counts it)."""
    b = det.bbox
    corners = [(b.x_min, b.y_min), (b.x_max, b.y_min),
               (b.x_max, b.y_max), (b.x_min, b.y_max)]
    polygon = GeoPolygon(vertices=tuple(
        _ground_points(corners, intr, ground, height, gimbal)))
    try:
        centroid = polygon_centroid(polygon)
    except GeodesyError as exc:  # corners over 100 km apart
        raise ProjectionError(str(exc)) from exc
    return ProjectedDetection(detection=det, polygon=polygon, centroid=centroid,
                              frame_id=frame_id, timestamp=timestamp,
                              media_rgb=media_rgb, media_tiff=media_tiff)
