"""Reference forms the tests compare the package against; the program
itself has no use for them."""

import math

import numpy as np

from pvpipeline.dedup import DefectEvent, convex_hull
from pvpipeline.fusion import encode
from pvpipeline.geodesy import (MAX_TANGENT_RANGE_M, MEAN_EARTH_RADIUS_M,
                                GeodesyError, GeoPoint, GeoPolygon,
                                plane_centroid)


def axis_angle_matrix(aa) -> np.ndarray:
    """Rotation matrix of an AxisAngle, R = I + sin(t) [k]x + (1 - cos(t))
    [k]x^2: the matrix oracle for the Rodrigues formula."""
    kx, ky, kz = aa.axis
    k_cross = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(aa.angle) * k_cross \
        + (1.0 - math.cos(aa.angle)) * (k_cross @ k_cross)


def mean_pairwise_distance(members) -> float:
    """Mean Euclidean distance over the pairs of rows of ``members``."""
    mats = np.asarray(members, dtype=np.float64)
    m = mats.shape[0]
    acc = 0.0
    cnt = 0
    for i in range(m):
        for j in range(i + 1, m):
            acc += float(np.linalg.norm(mats[i] - mats[j]))
            cnt += 1
    return acc / max(cnt, 1)


def palette_spread(model, x_t) -> float:
    """Mean pairwise distance between a FusionModel's per-palette thermal
    embeddings, averaged over the K samples of a (K, M, in_dim) palette
    input array: the measurement behind criterion 7."""
    vals = [mean_pairwise_distance(encode(x, model.params, "t")[0])
            for x in x_t]
    return float(np.mean(vals))


def enu_offset(origin, p):
    """The tangent-plane offset (east, north) of GeoPoint ``p`` from
    ``origin``, written out on its own: geodesy.tangent_offset's reference."""
    lat_mid = math.radians((origin.lat + p.lat) / 2.0)
    dlon = p.lon - origin.lon
    if abs(dlon) > 180.0:
        dlon -= math.copysign(360.0, dlon)
    east = MEAN_EARTH_RADIUS_M * math.cos(lat_mid) * math.radians(dlon)
    north = MEAN_EARTH_RADIUS_M * math.radians(p.lat - origin.lat)
    if math.hypot(east, north) > MAX_TANGENT_RANGE_M:
        raise GeodesyError("points farther than 100 km apart")
    return east, north


def enu_point(origin, east, north):
    """The GeoPoint at offset (east, north) from ``origin``, the inverse of
    enu_offset written out on its own: geodesy.tangent_point's reference."""
    if math.hypot(east, north) > MAX_TANGENT_RANGE_M:
        raise GeodesyError("offset exceeds 100 km")
    lat = origin.lat + math.degrees(north / MEAN_EARTH_RADIUS_M)
    lat_mid = math.radians((origin.lat + lat) / 2.0)
    lon = origin.lon + math.degrees(
        east / (MEAN_EARTH_RADIUS_M * math.cos(lat_mid)))
    return GeoPoint(lat=lat, lon=lon)


def polygon_centroid_objects(poly):
    """polygon_centroid through enu_offset per vertex and enu_point back."""
    anchor = poly.vertices[0]
    x, y = plane_centroid([enu_offset(anchor, v) for v in poly.vertices])
    return enu_point(anchor, x, y)


def merge_cluster_objects(members, member_ids, event_id):
    """merge_cluster through enu_offset per member vertex, then enu_point
    per hull vertex and for the hull's centroid."""
    anchor = members[0].polygon.vertices[0]
    points = [enu_offset(anchor, v)
              for det in members for v in det.polygon.vertices]
    hull = convex_hull(points)
    best = max(members, key=lambda d: d.detection.confidence)
    if len(hull) < 3:
        hull_poly = best.polygon
        centroid = polygon_centroid_objects(hull_poly)
    else:
        hull_poly = GeoPolygon(vertices=tuple(
            enu_point(anchor, x, y) for x, y in hull))
        centroid = enu_point(anchor, *plane_centroid(hull))
    return DefectEvent(
        id=event_id, class_id=best.detection.class_id,
        confidence=max(d.detection.confidence for d in members),
        peak_temp_c=max(d.detection.peak_temp_c for d in members),
        centroid=centroid, polygon=hull_poly, member_ids=tuple(member_ids),
        media_rgb=best.media_rgb, media_tiff=best.media_tiff)
