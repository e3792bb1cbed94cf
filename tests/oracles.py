"""Reference forms the tests compare the package against; the program
itself has no use for them."""

import math

import numpy as np

from pvpipeline.dedup import DefectEvent, convex_hull
from pvpipeline.fusion import encode
from pvpipeline.geodesy import (MAX_TANGENT_RANGE_M, MEAN_EARTH_RADIUS_M,
                                EnuOffset, GeodesyError, GeoPoint, GeoPolygon,
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


def palette_spread(model, samples) -> float:
    """Mean pairwise distance between a FusionModel's per-palette thermal
    embeddings, averaged over samples: the measurement behind criterion 7."""
    vals = [mean_pairwise_distance(
        encode(s.palette_inputs, model.params, "t")[0]) for s in samples]
    return float(np.mean(vals))


def enu_offset(origin, p):
    """The tangent-plane offset of ``p`` from ``origin`` as an EnuOffset,
    written out on its own: the object form of geodesy.tangent_offset."""
    lat_mid = math.radians((origin.lat + p.lat) / 2.0)
    dlon = p.lon - origin.lon
    if abs(dlon) > 180.0:
        dlon -= math.copysign(360.0, dlon)
    east = MEAN_EARTH_RADIUS_M * math.cos(lat_mid) * math.radians(dlon)
    north = MEAN_EARTH_RADIUS_M * math.radians(p.lat - origin.lat)
    if math.hypot(east, north) > MAX_TANGENT_RANGE_M:
        raise GeodesyError("points farther than 100 km apart")
    return EnuOffset(east=east, north=north, up=p.alt - origin.alt)


def enu_point(origin, off):
    """The inverse of enu_offset, written out on its own: the object form
    of geodesy.enu_to_geo."""
    if math.hypot(off.east, off.north) > MAX_TANGENT_RANGE_M:
        raise GeodesyError("offset exceeds 100 km")
    lat = origin.lat + math.degrees(off.north / MEAN_EARTH_RADIUS_M)
    lat_mid = math.radians((origin.lat + lat) / 2.0)
    lon = origin.lon + math.degrees(
        off.east / (MEAN_EARTH_RADIUS_M * math.cos(lat_mid)))
    return GeoPoint(lat=lat, lon=lon, alt=origin.alt + off.up)


def polygon_centroid_objects(poly):
    """polygon_centroid through one EnuOffset per vertex and back."""
    anchor = poly.vertices[0]
    offsets = [enu_offset(anchor, v) for v in poly.vertices]
    x, y = plane_centroid([(o.east, o.north) for o in offsets])
    return enu_point(anchor, EnuOffset(east=x, north=y))


def merge_cluster_objects(members, member_ids, event_id):
    """merge_cluster in its object form: an EnuOffset per member vertex,
    then a GeoPoint per hull vertex and for the hull's centroid."""
    anchor = members[0].polygon.vertices[0]
    points = []
    for det in members:
        for v in det.polygon.vertices:
            off = enu_offset(anchor, v)
            points.append((off.east, off.north))
    hull = convex_hull(points)
    best = max(members, key=lambda d: d.detection.confidence)
    if len(hull) < 3:
        hull_poly = best.polygon
        centroid = polygon_centroid_objects(hull_poly)
    else:
        hull_poly = GeoPolygon(vertices=tuple(
            enu_point(anchor, EnuOffset(east=x, north=y)) for x, y in hull))
        x, y = plane_centroid(hull)
        centroid = enu_point(anchor, EnuOffset(east=x, north=y))
    return DefectEvent(
        id=event_id, class_id=best.detection.class_id,
        confidence=max(d.detection.confidence for d in members),
        peak_temp_c=max(d.detection.peak_temp_c for d in members),
        centroid=centroid, polygon=hull_poly, member_ids=tuple(member_ids),
        media_rgb=best.media_rgb, media_tiff=best.media_tiff)
