"""Grid-indexed radius search and DBSCAN against brute-force oracles.

`geodesy.neighbours_within` and everything built on it (ground-truth
matching by `dedup.nearest`, and `simulator.evaluate`'s recall and Dup-FP),
and DBSCAN over `geodesy.radius_groups`, must give exactly what an O(n * m)
scan over every pair gives. The oracles below are those scans.
"""

import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import haversine_distance

from pvpipeline import dedup
from pvpipeline.dedup import NOISE, Events, dbscan_labels, floats, nearest
from pvpipeline.geodesy import (MEAN_EARTH_RADIUS_M, GeodesyError, GeoPoint,
                                far_apart, haversine, neighbours_within,
                                point_columns, radius_groups)
from pvpipeline.simulator import MissionConfig, MissionTrace, evaluate

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _cross_neighbours_oracle(queries, targets, radius):
    out = []
    for q in queries:
        dists = [haversine_distance(q, t) for t in targets]
        out.append([(j, d) for j, d in enumerate(dists) if d <= radius])
    return out


def _dbscan_oracle(points, epsilon, min_pts):
    """DBSCAN over a dense n x n haversine matrix."""
    n = len(points)
    if n == 0:
        return []
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = haversine_distance(points[i], points[j])
            dist[i, j] = dist[j, i] = d
    neighbors = [np.nonzero(dist[i] <= epsilon)[0] for i in range(n)]

    labels = [None] * n
    cluster = 0
    for i in range(n):
        if labels[i] is not None:
            continue
        if neighbors[i].size < min_pts:
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
            if neighbors[j].size >= min_pts:
                queue.extend(neighbors[j])
        cluster += 1
    return labels


def _nearest_gt_oracle(point, ground_truth, match_radius, cls=None):
    best, best_d = None, match_radius
    for i, gt in enumerate(ground_truth):
        if cls is not None and gt.class_id != cls:
            continue
        dist = haversine_distance(point, gt.position)
        if dist <= best_d:
            best, best_d = i, dist
    return best


def _dup_fp_oracle(items, ground_truth, match_radius):
    match_counts = [0] * len(ground_truth)
    for item in items:
        best = _nearest_gt_oracle(item.centroid, ground_truth, match_radius,
                                  item.class_id)
        if best is not None:
            match_counts[best] += 1
    dups = sum(max(m - 1, 0) for m in match_counts)
    return dups / len(items) if items else 0.0


def _recall_oracle(items, ground_truth, match_radius):
    """Share of the ground truth some same-class item lies within
    match_radius of; 1.0 when there is none."""
    hit = [any(item.class_id == gt.class_id and haversine_distance(
        item.centroid, gt.position) <= match_radius for item in items)
        for gt in ground_truth]
    return sum(hit) / len(hit) if hit else 1.0


# ---------------------------------------------------------------------------
# Point sets
# ---------------------------------------------------------------------------

MAX_LAT = 89.99


def _offset(lat0, lon0, east, north):
    """A point `east`/`north` meters from (lat0, lon0) on the sphere's local
    scale. Longitude is left to GeoPoint to wrap, so sets near lon +-180
    straddle the antimeridian."""
    lat = min(max(lat0 + math.degrees(north / MEAN_EARTH_RADIUS_M),
                  -MAX_LAT), MAX_LAT)
    lon = lon0 + math.degrees(
        east / (MEAN_EARTH_RADIUS_M * math.cos(math.radians(lat0))))
    return GeoPoint(lat=lat, lon=lon)


_meters = st.floats(-1.0, 1.0)


@st.composite
def scenes(draw):
    """(points, epsilon): a cloud around one centre, some exact duplicates,
    some partners at a common nominal distance, shuffled; epsilon either
    drawn or set to one pair's distance times 1 - 1e-12, 1 or 1 + 1e-12."""
    kind = draw(st.sampled_from(["plant", "antimeridian", "polar", "global"]))
    lat0 = draw(st.floats(-60.0, 60.0))
    lon0 = draw(st.floats(-180.0, 180.0, exclude_max=True))
    span = draw(st.sampled_from([2.0, 20.0, 200.0]))
    if kind == "antimeridian":
        lon0 = 180.0 + draw(st.floats(-1e-4, 1e-4))
    elif kind == "polar":
        lat0 = draw(st.sampled_from([-1.0, 1.0])) * draw(
            st.floats(89.9, MAX_LAT))
    if kind == "global":
        points = [GeoPoint(lat=lat, lon=lon) for lat, lon in draw(st.lists(
            st.tuples(st.floats(-MAX_LAT, MAX_LAT),
                      st.floats(-180.0, 180.0, exclude_max=True)),
            min_size=1, max_size=25))]
    else:
        points = [_offset(lat0, lon0, span * e, span * n)
                  for e, n in draw(st.lists(st.tuples(_meters, _meters),
                                            min_size=1, max_size=25))]
    partner_d = span * draw(st.floats(0.05, 0.5))
    for i in draw(st.lists(st.integers(0, len(points) - 1), max_size=6)):
        bearing = draw(st.floats(0.0, 2.0 * math.pi))
        p = points[i]
        points.append(_offset(p.lat, p.lon, partner_d * math.sin(bearing),
                              partner_d * math.cos(bearing)))
    points += [points[i] for i in draw(
        st.lists(st.integers(0, len(points) - 1), max_size=4))]
    points = [points[i] for i in draw(st.permutations(range(len(points))))]

    epsilon = None
    if len(points) >= 2 and draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.integers(0, len(points) - 1),
                                    min_size=2, max_size=2, unique=True)))
        d = haversine_distance(points[i], points[j])
        if d > 0.0:
            epsilon = d * draw(st.sampled_from([1 - 1e-12, 1.0, 1 + 1e-12]))
    if epsilon is None:
        high = 2.5e7 if kind == "global" else span
        epsilon = draw(st.floats(0.01, high))
    return points, epsilon


# Origins of the clumped scenes: a plant, the antimeridian (clumps straddle
# it) and latitudes 89.95 N and S, where the sub-cells are over a thousand
# times wider in degrees of longitude than of latitude.
_ORIGINS = [(49.407, 26.984), (-33.9, 180.0), (89.95, 10.0), (-89.95, -170.0)]


@st.composite
def clumped_scenes(draw):
    """(points, epsilon): up to 6 clumps of up to 12 points each, every
    clump within a square of side 0 to 2 m around a centre up to 2 epsilon
    from the origin, shuffled. Clumps fill sub-cells past min_pts, join
    across sub-cells, and leave border points between two clusters."""
    lat0, lon0 = draw(st.sampled_from(_ORIGINS))
    epsilon = draw(st.sampled_from([0.3, 1.0, 2.5]))
    points = []
    for _ in range(draw(st.integers(1, 6))):
        east, north = draw(st.tuples(st.floats(-2.0, 2.0),
                                     st.floats(-2.0, 2.0)))
        centre = _offset(lat0, lon0, east * epsilon, north * epsilon)
        spread = draw(st.floats(0.0, 1.0))
        points += [_offset(centre.lat, centre.lon, spread * e, spread * n)
                   for e, n in draw(st.lists(st.tuples(_meters, _meters),
                                             min_size=1, max_size=12))]
    points = [points[i] for i in draw(st.permutations(range(len(points))))]
    return points, epsilon


@st.composite
def dense_clump_pairs(draw):
    """(points, epsilon, first, second): two clumps of 9 to 16 points, so
    that their pair count passes geodesy._BOX_TEST_PAIRS, each within a
    square of side 0 to 2 epsilon, the second 0.5 to 3 epsilon from the
    first in a drawn direction, at one of _ORIGINS; first and second index
    the two clumps in the shuffled points."""
    lat0, lon0 = draw(st.sampled_from(_ORIGINS))
    epsilon = draw(st.sampled_from([0.3, 1.0, 2.5]))
    gap = draw(st.floats(0.5, 3.0)) * epsilon
    bearing = draw(st.floats(0.0, 2.0 * math.pi))
    centres = [GeoPoint(lat0, lon0), _offset(lat0, lon0, gap * math.sin(bearing),
                                             gap * math.cos(bearing))]
    clumps = []
    for centre in centres:
        spread = draw(st.floats(0.0, 1.0)) * epsilon
        clumps.append([_offset(centre.lat, centre.lon, spread * e, spread * n)
                       for e, n in draw(st.lists(st.tuples(_meters, _meters),
                                                 min_size=9, max_size=16))])
    points = clumps[0] + clumps[1]
    order = draw(st.permutations(range(len(points))))
    at = {k: pos for pos, k in enumerate(order)}
    first = sorted(at[k] for k in range(len(clumps[0])))
    second = sorted(at[k] for k in range(len(clumps[0]), len(points)))
    return [points[k] for k in order], epsilon, first, second


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(scenes(), st.integers(1, 4))
def test_dbscan_labels_equal_brute_force(scene, min_pts):
    points, epsilon = scene
    assert dbscan_labels(*point_columns(points), epsilon, min_pts) == \
        _dbscan_oracle(points, epsilon, min_pts)


@given(scenes(), st.sampled_from([0, 1, 10 ** 20]))
def test_dbscan_labels_from_the_point_count_on_equal_brute_force(scene,
                                                                 extra):
    # min_pts of n, n + 1 and past sys.maxsize: from n + 1 on no point is
    # core, and all are noise.
    points, epsilon = scene
    min_pts = len(points) + extra
    assert dbscan_labels(*point_columns(points), epsilon, min_pts) == \
        _dbscan_oracle(points, epsilon, min_pts)


@settings(max_examples=300)
@given(clumped_scenes(), st.integers(1, 7))
def test_dbscan_labels_on_clumps_equal_brute_force(scene, min_pts):
    points, epsilon = scene
    assert dbscan_labels(*point_columns(points), epsilon, min_pts) == \
        _dbscan_oracle(points, epsilon, min_pts)


@settings(max_examples=300)
@given(dense_clump_pairs(), st.integers(1, 4))
def test_far_apart_only_for_lists_with_no_pair_within_radius(pair, min_pts):
    points, epsilon, first, second = pair
    columns = point_columns(points)
    if far_apart(*columns, epsilon)(first, second):
        assert all(haversine_distance(points[i], points[j]) > epsilon
                   for i in first for j in second)
    assert dbscan_labels(*columns, epsilon, min_pts) == \
        _dbscan_oracle(points, epsilon, min_pts)


@given(scenes(), st.data())
def test_cross_neighbours_equal_brute_force(scene, data):
    points, radius = scene
    split = data.draw(st.integers(0, len(points)))
    queries, targets = points[:split], points[split:]
    assert neighbours_within(*point_columns(queries), radius,
                             point_columns(targets)) == \
        _cross_neighbours_oracle(queries, targets, radius)


_classes = st.sampled_from(["hotspot", "diode_fault"])


# Events and defects as evaluate reads them: a centroid and a class, and
# a position, a class and whether the defect is small.
_Item = namedtuple("_Item", "centroid class_id")
_GroundTruth = namedtuple("_GroundTruth", "position class_id is_small",
                          defaults=(False,))


def _found(centroids, ground_truth, radius):
    return neighbours_within(*point_columns(centroids), radius, point_columns(
        [gt.position for gt in ground_truth]))


def _evaluate(items, ground_truth, radius):
    """evaluate on a one-frame trace of events ``items``: an Events table
    of their centroids and classes, the columns evaluate reads."""
    events = Events(class_id=[item.class_id for item in items],
                    lat=floats(item.centroid.lat for item in items),
                    lon=floats(item.centroid.lon for item in items))
    return evaluate(MissionTrace(
        config=MissionConfig(match_radius_m=radius), defects=ground_truth,
        frames=1, events=events))


@given(scenes(), st.data())
def test_ground_truth_matching_equals_brute_force(scene, data):
    points, radius = scene
    split = data.draw(st.integers(1, len(points)))
    labels = data.draw(st.lists(_classes, min_size=len(points),
                                max_size=len(points)))
    items = [_Item(p, c) for p, c in zip(points[:split], labels)]
    gt = [_GroundTruth(position=p, class_id=c)
          for p, c in zip(points[split:], labels[split:])]
    found = _found([item.centroid for item in items], gt, radius)
    assert [nearest(f) for f in found] == \
        [_nearest_gt_oracle(item.centroid, gt, radius) for item in items]
    assert [nearest([(i, d) for i, d in f if gt[i].class_id == item.class_id])
            for f, item in zip(found, items)] == \
        [_nearest_gt_oracle(item.centroid, gt, radius, item.class_id)
         for item in items]


@given(scenes(), st.data())
def test_evaluate_equals_brute_force(scene, data):
    points, radius = scene
    split = data.draw(st.integers(0, len(points)))
    n = len(points)
    labels = data.draw(st.lists(_classes, min_size=n, max_size=n))
    small = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    items = [_Item(p, c) for p, c in zip(points[:split], labels)]
    gt = [_GroundTruth(*row) for row in
          zip(points[split:], labels[split:], small[split:])]
    metrics = _evaluate(items, gt, radius)
    assert metrics.recall == _recall_oracle(items, gt, radius)
    assert metrics.recall_small == _recall_oracle(
        items, [g for g in gt if g.is_small], radius)
    assert metrics.dup_fp_dedup == _dup_fp_oracle(items, gt, radius)


# ---------------------------------------------------------------------------
# Hand cases
# ---------------------------------------------------------------------------

# 2**-20 degrees: query longitude +- this is exact, so the two ground truths
# below are at exactly equal haversine distance from the query.
_STEP = 2.0 ** -20


def test_equidistant_tie_goes_to_later_ground_truth():
    query = GeoPoint(lat=49.5, lon=26.5)
    west = GeoPoint(lat=49.5, lon=26.5 - _STEP)
    east = GeoPoint(lat=49.5, lon=26.5 + _STEP)
    assert haversine_distance(query, west) == haversine_distance(query, east)
    for order in ((west, east), (east, west), (east, east)):
        gt = [_GroundTruth(position=p, class_id="hotspot") for p in order]
        assert [nearest(f) for f in _found([query], gt, 1.0)] == [1]
        assert _nearest_gt_oracle(query, gt, 1.0) == 1
    # Same class only: the later, other-class ground truth is skipped, so
    # both events match the first and only it counts for recall.
    gt = [_GroundTruth(position=west, class_id="hotspot"),
          _GroundTruth(position=east, class_id="diode_fault")]
    metrics = _evaluate([_Item(query, "hotspot")] * 2, gt, 1.0)
    assert (metrics.recall, metrics.dup_fp_dedup) == (0.5, 0.5)


def test_pair_exactly_at_radius_is_a_neighbour():
    a = GeoPoint(lat=10.0, lon=179.99999)
    b = GeoPoint(lat=10.0, lon=-179.99999)
    d = haversine_distance(a, b)
    assert 2.0 < d < 2.5
    below = math.nextafter(d, 0.0)
    columns = point_columns([a, b])
    assert dbscan_labels(*columns, d, 2) == [0, 0]
    assert dbscan_labels(*columns, below, 2) == [NOISE, NOISE]
    assert dbscan_labels(*columns, below, 1) == [0, 1]
    assert neighbours_within([a.lat], [a.lon], d, ([b.lat], [b.lon])) == \
        [[(0, d)]]
    assert neighbours_within([a.lat], [a.lon], below, ([b.lat], [b.lon])) == \
        [[]]


def test_across_the_pole_and_empty_inputs():
    # 180 degrees of longitude apart, 2.2 m apart through the pole.
    a = GeoPoint(lat=89.99999, lon=0.0)
    b = GeoPoint(lat=89.99999, lon=180.0)
    d = haversine_distance(a, b)
    assert d < 2.5
    assert dbscan_labels(*point_columns([a, b]), 2.5, 2) == [0, 0]
    assert neighbours_within([a.lat], [a.lon], 2.5, ([b.lat], [b.lon])) == \
        [[(0, d)]]
    assert neighbours_within([], [], 1.0, ([a.lat], [a.lon])) == []
    assert neighbours_within([a.lat], [a.lon], 1.0, ([], [])) == [[]]
    assert dbscan_labels([], [], 1.0, 2) == []


def test_dbscan_work_is_linear_in_co_located_points(monkeypatch):
    # 20,000 points in a 0.2 m square fill at most four sub-cells, each all
    # core with no distance computed; the unions stop at their first pair.
    # At the pole the cells have one column and no sub-cells, but equal
    # points still share a group.
    calls = []

    def counted(*args):
        calls.append(1)
        return haversine(*args)

    monkeypatch.setattr(dedup, "haversine", counted)
    rng = np.random.default_rng(0)
    n = 20_000
    points = [_offset(49.407, 26.984, e, north)
              for e, north in rng.uniform(0.0, 0.2, size=(n, 2))]
    assert dbscan_labels(*point_columns(points), 1.0, 4) == [0] * n
    assert dbscan_labels([90.0] * n, [10.0] * n, 1.0, 4) == [0] * n
    assert len(calls) <= n


@pytest.mark.parametrize("east,north", [(0.0, 1.05), (0.0, 1.45),
                                        (1.05, 0.0), (-0.8, 0.8), (0.0, 0.95)])
def test_dbscan_skips_scans_between_dense_groups_too_far_apart(
        monkeypatch, east, north):
    # Two clumps of 300 equal points each, one sub-cell each, all core. Their
    # union scan would take 90,000 haversines where no pair is within
    # epsilon; the bounding-box gap rules it out first, or, 0.95 m apart,
    # the first pair joins them.
    calls = []

    def counted(*args):
        calls.append(1)
        return haversine(*args)

    monkeypatch.setattr(dedup, "haversine", counted)
    points = [GeoPoint(49.407, 26.984)] * 300 + [
        _offset(49.407, 26.984, east, north)] * 300
    labels = dbscan_labels(*point_columns(points), 1.0, 2)
    assert len(calls) <= 4 * len(points)
    assert labels == _dbscan_oracle(points, 1.0, 2)
    assert len(set(labels)) == (1 if math.hypot(east, north) <= 1.0 else 2)


@pytest.mark.parametrize("east", [1.05, 1.45])
def test_dbscan_skips_scans_between_dense_groups_across_the_antimeridian(
        monkeypatch, east):
    # Two clumps of 300 equal points at 33.9 S, one either side of the
    # antimeridian, apart only east-west. Their boxes span almost 360
    # degrees together, so the bound takes the gap across the line.
    calls = []

    def counted(*args):
        calls.append(1)
        return haversine(*args)

    monkeypatch.setattr(dedup, "haversine", counted)
    west, east_point = (_offset(-33.9, 180.0, side * east / 2.0, 0.0)
                        for side in (-1.0, 1.0))
    assert west.lon > 179.0 and east_point.lon < -179.0
    points = [west] * 300 + [east_point] * 300
    columns = point_columns(points)
    assert far_apart(*columns, 1.0)(list(range(300)), list(range(300, 600)))
    labels = dbscan_labels(*columns, 1.0, 2)
    assert len(calls) <= 4 * len(points)
    assert labels == _dbscan_oracle(points, 1.0, 2)
    assert len(set(labels)) == 2


def test_far_apart_near_the_pole_and_across_the_antimeridian():
    # Nine points up a 0.6 m meridian at 89.95 N, and nine at the same
    # latitudes a longitude step east. Only the northern pairs, where the
    # cosine is smallest, are within 1 m: a bound taking the cosine at the
    # southern end would rule out the pair. A step 1% longer is ruled out.
    top = 89.95 + math.degrees(0.6 / MEAN_EARTH_RADIUS_M)
    lat = list(np.linspace(89.95, top, 9)) * 2
    step = math.degrees((1.0 - 5e-5) / (MEAN_EARTH_RADIUS_M
                                        * math.cos(math.radians(top))))
    first, second = list(range(9)), list(range(9, 18))
    for lon_step, apart in [(step, False), (1.01 * step, True)]:
        lon = [10.0] * 9 + [10.0 + lon_step] * 9
        dists = [haversine(lat[i], lon[i], lat[j], lon[j])
                 for i in first for j in second]
        assert (min(dists) > 1.0) == apart and max(dists) > 1.0
        assert far_apart(lat, lon, 1.0)(first, second) == apart
    # Nine points up to 1e-5 degrees west of the antimeridian, nine east of
    # it: the nearest pair is 0.92 m apart across the line, while the
    # longitude extents, read without the wrap, are 359.99997 degrees apart.
    lon = list(np.linspace(179.999985, 179.999995, 9))
    lon += [-x for x in lon]
    lat = [-33.9] * 18
    assert min(haversine(lat[i], lon[i], lat[j], lon[j])
               for i in first for j in second) < 1.0
    assert not far_apart(lat, lon, 1.0)(first, second)


@pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf])
def test_radius_must_be_finite_and_non_negative(radius):
    with pytest.raises(GeodesyError):
        neighbours_within([0.0], [0.0], radius, ([0.0], [0.0]))
    with pytest.raises(GeodesyError):
        radius_groups([0.0], [0.0], radius)
