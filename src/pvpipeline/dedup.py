"""Geo-spatial de-duplication: DBSCAN over haversine distances between
detection centroids, per-class cluster merging into canonical defect
events, and the duplicate-induced false-positive (Dup-FP) metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geodesy import (GeoPoint, neighbours_within, plane_centroid,
                      polygon_centroid, tangent_offset, tangent_point)

NOISE = -1


class DedupError(ValueError):
    pass


@dataclass(frozen=True)
class DbscanParams:
    epsilon: float = 1.0  # meters
    min_pts: int = 2

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise DedupError("epsilon must be positive and finite")
        if self.min_pts < 1:
            raise DedupError("min_pts must be at least 1")


@dataclass(frozen=True)
class DefectEvent:
    """One de-duplicated defect: a detection record of the mission report."""
    id: str
    class_id: str
    confidence: float       # max over members
    peak_temp_c: float      # max over members
    centroid: GeoPoint
    polygon: tuple          # ((lat, lon), ...), as the report writes it
    media_rgb: str = ""
    media_tiff: str = ""
    member_ids: tuple = ()  # indices into the input detection list


def dbscan_labels(points, epsilon: float, min_pts: int) -> list:
    """Standard DBSCAN over a list of GeoPoints with haversine distances.

    Labels are cluster indices (contiguous from 0) or NOISE. Core-point
    expansion proceeds in input order, so labels are deterministic.

    Epsilon-neighbourhoods come from the grid index of
    :func:`geodesy.neighbours_within`: one haversine per pair in adjacent
    epsilon-sized cells, O(n + neighbour pairs) memory, in place of the
    n x n distance matrix. Each list is ascending and holds the point
    itself, so the labels equal those of the brute-force O(n^2) version,
    which the tests keep as the oracle.
    """
    n = len(points)
    neighbors = [[j for j, _ in found]
                 for found in neighbours_within(points, epsilon)]

    labels = [None] * n
    cluster = 0
    for i in range(n):
        if labels[i] is not None:
            continue
        if len(neighbors[i]) < min_pts:
            labels[i] = NOISE
            continue
        labels[i] = cluster
        queue = list(neighbors[i])
        k = 0
        while k < len(queue):
            j = queue[k]
            k += 1
            if labels[j] == NOISE:
                labels[j] = cluster  # border point
            if labels[j] is not None:
                continue
            labels[j] = cluster
            if len(neighbors[j]) >= min_pts:
                queue.extend(neighbors[j])
        cluster += 1
    return labels


def convex_hull(points):
    """Andrew's monotone chain on 2-D (x, y) tuples; returns hull CCW."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(iterable):
        chain = []
        for p in iterable:
            while len(chain) >= 2:
                ox, oy = chain[-2]
                ax, ay = chain[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def merge_cluster(members, member_ids, event_id: str) -> DefectEvent:
    """Merge detections of one cluster into a canonical event.

    Geometry is the convex hull of all member polygon vertices on the local
    ENU plane (a robust surrogate for the exact polygon union; members are
    near-coincident quads); the centroid is the hull's, taken on that same
    plane. Confidence and peak temperature take the max.
    """
    if not members:
        raise DedupError("cannot merge an empty cluster")
    anchor = members[0].polygon.vertices[0]
    lat0, lon0 = anchor.lat, anchor.lon
    hull = convex_hull([tangent_offset(lat0, lon0, v.lat, v.lon)
                        for det in members for v in det.polygon.vertices])
    best = max(members, key=lambda d: d.confidence)
    if len(hull) < 3:
        # Collinear degenerate geometry: keep the best member's polygon.
        vertices = best.polygon.vertices
        centroid = polygon_centroid(best.polygon)
    else:
        vertices = [GeoPoint(*tangent_point(lat0, lon0, *xy)) for xy in hull]
        centroid = GeoPoint(*tangent_point(lat0, lon0, *plane_centroid(hull)))
    return DefectEvent(
        id=event_id,
        class_id=best.class_id,
        confidence=max(d.confidence for d in members),
        peak_temp_c=max(d.peak_temp_c for d in members),
        centroid=centroid,
        polygon=tuple((v.lat, v.lon) for v in vertices),
        media_rgb=best.media_rgb,
        media_tiff=best.media_tiff,
        member_ids=tuple(member_ids),
    )


def deduplicate(detections, params: DbscanParams = DbscanParams()) -> list:
    """Consolidate per-frame detections into unique defect events.

    Detections are partitioned by class and clustered independently; noise
    points become singleton events. Event ids are assigned after sorting
    clusters by (class, centroid lat, centroid lon).
    """
    groups = {}
    for idx, det in enumerate(detections):
        groups.setdefault(det.class_id, []).append(idx)

    raw_events = []
    for class_id in sorted(groups):
        idxs = groups[class_id]
        members = [detections[i] for i in idxs]
        labels = dbscan_labels([d.centroid for d in members], params.epsilon,
                               params.min_pts)
        clusters = {}
        singletons = []
        for local, lab in enumerate(labels):
            if lab == NOISE:
                singletons.append(local)
            else:
                clusters.setdefault(lab, []).append(local)
        for lab in sorted(clusters):
            local_ids = clusters[lab]
            raw_events.append(([members[i] for i in local_ids],
                               [idxs[i] for i in local_ids]))
        for local in singletons:
            raw_events.append(([members[local]], [idxs[local]]))

    merged = sorted((merge_cluster(m, ids, "") for m, ids in raw_events),
                    key=lambda e: (e.class_id, e.centroid.lat, e.centroid.lon))
    for rank, event in enumerate(merged):
        # Each event is new and not yet shared: name it in place, the way a
        # frozen dataclass's own __init__ sets its fields.
        object.__setattr__(event, "id", f"clu_{rank:03d}")
    return merged


def nearest_ground_truth(points, ground_truth, match_radius: float,
                         classes=None) -> list:
    """For each GeoPoint in ``points``, the index of the nearest ground
    truth within match_radius meters, or None. Reads each ground truth's
    .position, and its .class_id only when ``classes`` (one class id per
    point) is given; then only ground truth of the point's class counts.
    On equal distance the later ground truth wins. One grid index over the
    ground truth serves all points (see :func:`geodesy.neighbours_within`).
    """
    found = neighbours_within(points, match_radius,
                              [gt.position for gt in ground_truth])
    out = []
    for k, near in enumerate(found):
        best, best_d = None, math.inf
        for gi, d in near:
            if classes is not None and ground_truth[gi].class_id != classes[k]:
                continue
            if d <= best_d:
                best, best_d = gi, d
        out.append(best)
    return out


def duplicate_rate(matches) -> float:
    """Dup-FP rate of one ground-truth index, or None, per item: a ground
    truth matched m >= 1 times adds m - 1 duplicate FPs, over the items."""
    hits = [gi for gi in matches if gi is not None]
    return (len(hits) - len(set(hits))) / len(matches) if matches else 0.0


def dup_fp_rate(items, ground_truth, match_radius: float) -> float:
    """Duplicate-induced false-positive rate.

    Items (sightings or events; each read for .centroid and .class_id) are
    greedily matched to the nearest same-class ground-truth defect (read for
    .position and .class_id) within match_radius, and the matches are
    counted by :func:`duplicate_rate`.
    """
    if not (math.isfinite(match_radius) and match_radius > 0):
        raise DedupError("match_radius must be positive and finite")
    return duplicate_rate(nearest_ground_truth(
        [item.centroid for item in items], ground_truth, match_radius,
        [item.class_id for item in items]))
