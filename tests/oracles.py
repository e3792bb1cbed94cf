"""Reference forms the tests compare the package against; the program
itself has no use for them."""

import json
import math
from array import array
from collections import namedtuple

import numpy as np

from pvpipeline.dedup import Sightings, convex_hull
from pvpipeline.detector import Detection
from pvpipeline.fusion import PROB_EPS, FusionError, encode
from pvpipeline.geodesy import (MAX_TANGENT_RANGE_M, MEAN_EARTH_RADIUS_M,
                                GeodesyError, GeoPoint, checked_ring,
                                haversine, plane_centroid)
from pvpipeline.telemetry import (TelemetryError, _bbox, _field, _lat_lon,
                                  _list, _number, _object, _string)


def haversine_distance(a, b) -> float:
    """geodesy.haversine between two GeoPoints."""
    return haversine(a.lat, a.lon, b.lat, b.lon)


def parse_detection_record_lines_objects(data: bytes) -> Sightings:
    """parse_detection_record_lines in object form: per line, the box,
    class, confidence and temperature types, a GeoPoint per vertex, then
    checked_ring of their coordinates, the centroid GeoPoint and the
    strings, and last a Detection, each held to its own checks in that
    order; the table holds the box and ring flat. Lines end at
    "\\n" only, and a line of JSON whitespace (space, tab, CR) only is
    skipped."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TelemetryError(f"input is not UTF-8: {exc}") from exc
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip(" \t\r"):
            continue
        try:
            obj = _object(json.loads(line), "record")
            media = _object(obj.get("media", {}), "media")
            box = _field(obj, "bbox", _bbox)
            class_id = _field(obj, "class", _string)
            conf = _field(obj, "conf", _number)
            temp = _field(obj, "temp_C", _number)
            polygon = checked_ring(
                (v.lat, v.lon) for v in (
                    GeoPoint(*_lat_lon(p, "polygon_wgs84"))
                    for p in _field(obj, "polygon_wgs84", _list)))
            centroid = GeoPoint(*_field(obj, "centroid_wgs84", _lat_lon))
            strings = (_string(obj.get("frame_id", ""), "frame_id"),
                       _string(obj.get("timestamp", ""), "timestamp"),
                       _string(media.get("rgb", ""), "media.rgb"),
                       _string(media.get("tiff", ""), "media.tiff"))
            Detection(*box, class_id, conf, temp)
            rows.append((array("d", box), class_id, conf, temp, polygon,
                         centroid.lat, centroid.lon, *strings))
        except (KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(f"line {lineno}: {exc}") from exc
    return Sightings.of_rows(rows)


def sighting_rows_objects(rows) -> list:
    """Sightings rows held one by one as objects: each row's values in
    field order, its box a tuple of four numbers and its ring a tuple of
    (lat, lon) pairs, read from the row's own flat ring two values at a
    time."""
    objects = []
    for (box, class_id, conf, temp, ring, lat, lon, frame_id, timestamp,
         rgb, tiff) in rows:
        pairs = tuple((ring[k], ring[k + 1]) for k in range(0, len(ring), 2))
        objects.append((tuple(box), class_id, conf, temp, pairs, lat, lon,
                        frame_id, timestamp, rgb, tiff))
    return objects


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
    ``origin``, written out on its own: geodesy.tangent_offsets'
    reference."""
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


def polygon_centroid_objects(vertices):
    """polygon_centroid of a ring of GeoPoints, through enu_offset per
    vertex and enu_point back."""
    anchor = vertices[0]
    x, y = plane_centroid([enu_offset(anchor, v) for v in vertices])
    return enu_point(anchor, x, y)


# A merged event as an object: its centroid a GeoPoint and its polygon a
# tuple of (lat, lon) pairs.
Event = namedtuple("Event", "id class_id confidence peak_temp_c centroid "
                            "polygon media_rgb media_tiff member_ids")


def merge_cluster_objects(members, member_ids, event_id):
    """merge_cluster through enu_offset per member vertex, then enu_point
    per hull vertex and for the hull's centroid, over the Sightings rows
    ``members``, one per member id, each polygon vertex read as a
    GeoPoint from its flat ring; an Event."""
    table = Sightings.of_rows(members)
    rings = [row[4] for row in members]
    polygons = [[GeoPoint(ring[k], ring[k + 1])
                 for k in range(0, len(ring), 2)] for ring in rings]
    anchor = polygons[0][0]
    points = [enu_offset(anchor, v) for ring in polygons for v in ring]
    hull = convex_hull(points)
    best = max(range(len(members)), key=table.confidence.__getitem__)
    if len(hull) < 3:
        hull_poly = polygons[best]
        centroid = polygon_centroid_objects(hull_poly)
    else:
        hull_poly = [enu_point(anchor, x, y) for x, y in hull]
        checked_ring((v.lat, v.lon) for v in hull_poly)
        centroid = enu_point(anchor, *plane_centroid(hull))
    return Event(
        id=event_id, class_id=table.class_id[best],
        confidence=max(table.confidence),
        peak_temp_c=max(table.peak_temp_c),
        centroid=centroid,
        polygon=tuple((v.lat, v.lon) for v in hull_poly),
        member_ids=tuple(member_ids),
        media_rgb=table.media_rgb[best], media_tiff=table.media_tiff[best])


def maybe_in_view(defects, pose, rot, intr) -> list:
    """The defects that can pass render_frame's camera-z and 4-sigma tests:
    the full-set cull the renderer used before its ground-box index, the
    oracle the index's candidates must contain.

    All defects are projected in one (N, 3) @ rot product. Each component
    differs from the per-defect ``rot.T @ ned`` by less than err = 1e-12 *
    |ned|_1 (three products with rotation entries of size at most 1).
    Carried through u0 - cx = fx * x / z, v0 - cy and margin = 4 * sigma *
    fx / z, that moves each test by at most err / z * (max(fx, fy) + 1)
    times ``size`` = 1 + |u0 - cx| + |v0 - cy| + margin + |cx| + |cy| +
    width + height. The tests are widened by that much plus 1e-9 * size for
    the rounding of the formulas, and only defects that fail a widened test
    are dropped."""
    if not defects:
        return []
    ned = np.empty((len(defects), 3))
    ned[:, 0] = [d.north for d in defects]
    ned[:, 1] = [d.east for d in defects]
    ned[:, :2] -= (pose.north, pose.east)
    ned[:, 2] = pose.altitude
    sigma_m = np.array([d.sigma_m for d in defects])
    x, y, z = (ned @ rot).T
    err = 1e-12 * np.abs(ned).sum(axis=1)
    near = z > 0.1 - err
    z = np.where(near, z, 1.0)
    du = intr.fx * x / z
    dv = intr.fy * y / z
    margin = 4.0 * intr.fx * sigma_m / z
    size = np.abs(du) + np.abs(dv) + margin + (
        1.0 + abs(intr.cx) + abs(intr.cy) + intr.width + intr.height)
    reach = margin + (err / z * (max(intr.fx, intr.fy) + 1.0) + 1e-9) * size
    half_w, half_h = intr.width / 2.0, intr.height / 2.0
    keep = (near & (np.abs(du + (intr.cx - half_w)) <= half_w + reach)
            & (np.abs(dv + (intr.cy - half_h)) <= half_h + reach))
    return [defects[i] for i in np.flatnonzero(keep)]


# The fusion terms as they were written before their call-count trims; the
# tests hold the package's forms to these byte for byte.

def sigmoid_masked(x: np.ndarray) -> np.ndarray:
    """fusion._sigmoid_vec through a boolean-mask scatter: 1 / (1 + e^-x)
    where x >= 0, e^x / (1 + e^x) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def focal_loss_grad_reference(pred_prob, is_positive, alpha: float = 0.25,
                              gamma: float = 2.0):
    """fusion.focal_loss_grad with each power of (1 - pt) taken anew."""
    p = np.clip(np.atleast_1d(np.asarray(pred_prob, dtype=np.float64)),
                PROB_EPS, 1.0 - PROB_EPS)
    positive = np.asarray(is_positive, dtype=bool)
    pt = np.where(positive, p, 1.0 - p)
    log_pt = np.log(pt)
    loss = -alpha * (1.0 - pt) ** gamma * log_pt
    d_pt = -alpha * (1.0 - pt) ** gamma / pt
    if gamma > 0:
        d_pt += alpha * gamma * (1.0 - pt) ** (gamma - 1.0) * log_pt
    d_p = np.where(positive, d_pt, -d_pt)
    if np.ndim(pred_prob) == 0:
        return float(loss[0]), float(d_p[0])
    return loss, d_p


_SIDE = np.array([-1.0, -1.0, 1.0, 1.0])


def giou_loss_grad_reference(a, b):
    """fusion.giou_loss_grad with each box's extents and partials built on
    their own, through np.tile and np.where."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.shape[-1:] != (4,) or a.ndim > 2:
        raise FusionError("boxes must be (4,) or (K, 4) arrays of one shape")
    a2, b2 = np.atleast_2d(a), np.atleast_2d(b)
    size_a = a2[:, 2:] - a2[:, :2]
    size_b = b2[:, 2:] - b2[:, :2]
    if np.any(size_a <= 0.0) or np.any(size_b <= 0.0):
        raise FusionError("degenerate box")
    size_i = np.maximum(np.minimum(a2[:, 2:], b2[:, 2:])
                        - np.maximum(a2[:, :2], b2[:, :2]), 0.0)
    size_c = np.maximum(a2[:, 2:], b2[:, 2:]) - np.minimum(a2[:, :2], b2[:, :2])
    inter = size_i[:, 0] * size_i[:, 1]
    union = size_a[:, 0] * size_a[:, 1] + size_b[:, 0] * size_b[:, 1] - inter
    hull = size_c[:, 0] * size_c[:, 1]
    loss = 1.0 - (inter / union - (hull - union) / hull)
    side = (a2 - b2) * _SIDE
    d_area = _SIDE * np.tile(size_a[:, ::-1], 2)
    overlap = (size_i > 0.0).all(axis=1, keepdims=True)
    d_inter = np.where(overlap & (side < 0.0),
                       _SIDE * np.tile(size_i[:, ::-1], 2), 0.0)
    d_hull = np.where(side > 0.0, _SIDE * np.tile(size_c[:, ::-1], 2), 0.0)
    d_union = d_area - d_inter
    union, inter, hull = union[:, None], inter[:, None], hull[:, None]
    d_iou = (d_inter * union - inter * d_union) / union ** 2
    d_giou = d_iou + (d_union * hull - union * d_hull) / hull ** 2
    if a.ndim == 1:
        return float(loss[0]), -d_giou[0]
    return loss, -d_giou
