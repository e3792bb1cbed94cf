import pathlib
import tracemalloc
from collections import namedtuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import Event, enu_offset, haversine_distance, \
    merge_cluster_objects
from test_frame_ranges import _no_child_left
from test_telemetry import sighting_rows

from pvpipeline import dedup, workers
from pvpipeline.dedup import (DbscanParams, DedupError, Events, NOISE,
                              Sightings, convex_hull, dbscan_labels,
                              deduplicate, duplicate_rate, floats,
                              merge_cluster)
from pvpipeline.geodesy import GeoPoint, point_columns, tangent_point
from pvpipeline.simulator import MissionConfig, MissionTrace, evaluate
from pvpipeline.telemetry import parse_detection_record_lines

ORIGIN = GeoPoint(lat=49.407, lon=26.984)


def _pt(east, north, origin=ORIGIN):
    return GeoPoint(*tangent_point(origin.lat, origin.lon, east, north))


def _sighting(verts, centroid, class_id, conf, temp, box=(0, 0, 2, 2),
              media_rgb="", media_tiff=""):
    """The Sightings row of a footprint with GeoPoint vertices ``verts``
    and GeoPoint ``centroid``, its box and ring flat."""
    return (floats(box), class_id, conf, temp,
            floats([c for v in verts for c in (v.lat, v.lon)]),
            centroid.lat, centroid.lon, "f", "2025-09-30T10:00:00Z",
            media_rgb, media_tiff)


def _proj(east, north, class_id="hotspot", conf=0.8, temp=40.0, half=0.2,
          media="a.jpg"):
    verts = [_pt(east + dx, north + dy)
             for dx, dy in ((-half, -half), (half, -half),
                            (half, half), (-half, half))]
    return _sighting(verts, _pt(east, north), class_id, conf, temp,
                     media_rgb=media, media_tiff=media + ".tiff")


# A table row's centroid, read as is (a GeoPoint would wrap it).
_Point = namedtuple("_Point", "lat lon")


def _event(events, k):
    """Row ``k`` of an Events table as the oracle's Event."""
    start = events.member_end[k - 1] if k else 0
    return Event(events.id[k], events.class_id[k], events.confidence[k],
                 events.peak_temp_c[k], _Point(events.lat[k], events.lon[k]),
                 events.ring(k), events.media_rgb[k], events.media_tiff[k],
                 tuple(events.member[start:events.member_end[k]]))


def _deduplicate(*args):
    """deduplicate's rows as Events."""
    events = deduplicate(*args)
    return [_event(events, k) for k in range(len(events))]


def _merge(table, member_ids):
    """merge_cluster's row as an Event."""
    events = Events()
    merge_cluster(table, member_ids, events)
    assert len(events) == 1
    return _event(events, 0)


def _components_oracle(points, epsilon):
    """For min_pts=2 DBSCAN reduces to connected components of the
    epsilon-graph, with isolated points as noise."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    isolated = [True] * n
    for i in range(n):
        for j in range(i + 1, n):
            if haversine_distance(points[i], points[j]) <= epsilon:
                isolated[i] = isolated[j] = False
                parent[find(i)] = find(j)
    comps = {}
    for i in range(n):
        if not isolated[i]:
            comps.setdefault(find(i), set()).add(i)
    noise = {i for i in range(n) if isolated[i]}
    return {frozenset(c) for c in comps.values()}, noise


def _partition(labels):
    comps = {}
    noise = set()
    for i, lab in enumerate(labels):
        if lab == NOISE:
            noise.add(i)
        else:
            comps.setdefault(lab, set()).add(i)
    return {frozenset(c) for c in comps.values()}, noise


def test_dbscan_matches_component_oracle_over_epsilon_sweep():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        points = [_pt(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
                  for _ in range(n)]
        for epsilon in (0.3, 1.0, 3.0, 8.0):
            got = _partition(dbscan_labels(*point_columns(points), epsilon,
                                           2))
            assert got == _components_oracle(points, epsilon)


def test_dbscan_border_points_min_pts_3():
    # Chain at 0, 1, 2 m with epsilon 1.2: only the middle point is core,
    # the ends are border points that join its cluster.
    points = [_pt(0.0, 0.0), _pt(1.0, 0.0), _pt(2.0, 0.0)]
    labels = dbscan_labels(*point_columns(points), 1.2, 3)
    assert labels == [0, 0, 0]
    # Remove the middle point: nobody is core any more.
    labels = dbscan_labels(*point_columns([points[0], points[2]]), 1.2, 3)
    assert labels == [NOISE, NOISE]


def test_dbscan_permutation_invariance():
    rng = np.random.default_rng(1)
    points = [_pt(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
              for _ in range(8)]
    base = _partition(dbscan_labels(*point_columns(points), 1.5, 2))
    for _ in range(10):
        perm = rng.permutation(len(points))
        labels = dbscan_labels(*point_columns([points[i] for i in perm]),
                               1.5, 2)
        comps, noise = _partition(labels)
        remapped = ({frozenset(int(perm[i]) for i in c) for c in comps},
                    {int(perm[i]) for i in noise})
        assert remapped == base


def test_convex_hull_known_square():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.2, 0.7)]
    hull = convex_hull(pts)
    assert set(hull) == {(0, 0), (1, 0), (1, 1), (0, 1)}
    assert len(hull) == 4


def test_deduplicate_merges_near_duplicates():
    dets = [
        _proj(0.0, 0.0, conf=0.7, temp=41.0),
        _proj(0.3, 0.1, conf=0.9, temp=39.0, media="b.jpg"),
        _proj(-0.2, 0.2, conf=0.8, temp=43.5),
        _proj(8.0, 8.0, conf=0.6, temp=38.0),
    ]
    table = Sightings.of_rows(dets)
    events = _deduplicate(table, DbscanParams(epsilon=1.0, min_pts=2))
    assert len(events) == 2
    assert [e.id for e in events] == ["clu_000", "clu_001"]
    merged = min(events, key=lambda e: haversine_distance(e.centroid, ORIGIN))
    assert set(merged.member_ids) == {0, 1, 2}
    assert merged.confidence == pytest.approx(0.9)
    assert merged.peak_temp_c == pytest.approx(43.5)
    assert merged.media_rgb == "b.jpg"  # best-confidence member's media
    # The merged hull must contain every member centroid.
    for i in (0, 1, 2):
        assert haversine_distance(
            merged.centroid, GeoPoint(table.lat[i], table.lon[i])) < 1.0


def test_deduplicate_partitions_by_class():
    dets = [_proj(0.0, 0.0, class_id="hotspot"),
            _proj(0.1, 0.0, class_id="diode_fault")]
    events = _deduplicate(Sightings.of_rows(dets),
                          DbscanParams(epsilon=1.0, min_pts=2))
    assert len(events) == 2
    assert sorted(e.class_id for e in events) == ["diode_fault", "hotspot"]


def test_deduplicate_order_invariant_output():
    rng = np.random.default_rng(2)
    dets = [_proj(float(rng.uniform(-6, 6)), float(rng.uniform(-6, 6)),
                  conf=float(rng.uniform(0.3, 0.95))) for _ in range(12)]
    base = _deduplicate(Sightings.of_rows(dets))
    for _ in range(5):
        perm = list(rng.permutation(len(dets)))
        events = _deduplicate(Sightings.of_rows([dets[i] for i in perm]))
        assert len(events) == len(base)
        for got, want in zip(events, base):
            assert got.id == want.id
            assert got.class_id == want.class_id
            assert haversine_distance(got.centroid, want.centroid) < 1e-6
            assert got.confidence == pytest.approx(want.confidence)


def test_merge_cluster_collinear_fallback():
    # Degenerate members whose vertices all lie on one line keep the best
    # member's polygon instead of a hull.
    def line_proj(shift, conf):
        verts = [_pt(x + shift, 0.0) for x in (-0.2, -0.1, 0.1, 0.2)]
        return _sighting(verts, _pt(shift, 0.0), "hotspot", conf, 40.0,
                         box=(0, 0, 1, 1))

    table = Sightings.of_rows([line_proj(0.0, 0.5), line_proj(0.05, 0.9)])
    event = _merge(table, [0, 1])
    assert event.polygon == table.ring(1)


# Plants the merge oracle draws clusters at: a mid-latitude survey site,
# one straddling the antimeridian and one 50 m from the north pole.
MERGE_PLANTS = {"mid-latitude": GeoPoint(lat=49.407, lon=26.984),
                "antimeridian": GeoPoint(lat=-16.5, lon=179.999999),
                "high-latitude": GeoPoint(lat=89.99955, lon=-120.0)}


def _hex_event(event):
    """Every field of an event, each coordinate as its float hex."""
    def point(lat, lon):
        return lat.hex(), lon.hex()
    return (event.id, event.class_id, event.confidence.hex(),
            event.peak_temp_c.hex(),
            point(event.centroid.lat, event.centroid.lon),
            tuple(point(*v) for v in event.polygon),
            event.member_ids, event.media_rgb, event.media_tiff)


def _random_cluster(rng, origin, collinear, spread=40.0):
    """Near-coincident quads around a random spot within ``spread`` meters
    of the origin; collinear clusters put every vertex on one parallel, so
    the hull is degenerate."""
    east, north = rng.uniform(-spread, spread, size=2)
    members = []
    for _ in range(int(rng.integers(1, 6))):
        cx, cy = east + rng.normal(0.0, 0.1), north + rng.normal(0.0, 0.1)
        if collinear:
            cy = north
            offsets = [(t, 0.0) for t in (-0.2, -0.1, 0.1, 0.2)]
        else:
            half = rng.uniform(0.1, 0.3)
            offsets = [(-half, -half), (half, -half), (half, half),
                       (-half, half)]
        verts = [_pt(cx + dx, cy + dy, origin) for dx, dy in offsets]
        class_id = str(rng.choice(["hotspot", "soiling"]))
        conf = float(rng.uniform(0.5, 1.0))
        temp = float(rng.uniform(30.0, 45.0))
        members.append(_sighting(verts, _pt(cx, cy, origin), class_id, conf,
                                 temp, media_rgb=f"m{len(members)}.jpg"))
    return members


@pytest.mark.parametrize("plant", sorted(MERGE_PLANTS))
def test_merge_cluster_matches_object_form_oracle(plant):
    rng = np.random.default_rng(7)
    origin = MERGE_PLANTS[plant]
    degenerate = 0
    for k in range(60):
        # Spots within 1 m of the origin: clusters at the antimeridian
        # plant straddle it.
        members = _random_cluster(rng, origin, collinear=k % 4 == 0,
                                  spread=1.0)
        ids = list(range(len(members)))
        table = Sightings.of_rows(members)
        got = _merge(table, ids)
        want = merge_cluster_objects(members, ids, "")
        assert _hex_event(got) == _hex_event(want)
        anchor = GeoPoint(*table.ring(0)[0])
        degenerate += len(convex_hull([enu_offset(anchor, GeoPoint(*v))
                                       for i in ids
                                       for v in table.ring(i)])) < 3
    assert degenerate >= 10  # the collinear fallback was exercised


@pytest.mark.parametrize("plant", sorted(MERGE_PLANTS))
def test_deduplicate_events_match_object_form_oracle(plant):
    rng = np.random.default_rng(11)
    origin = MERGE_PLANTS[plant]
    detections = [d for k in range(40)
                  for d in _random_cluster(rng, origin, collinear=k % 4 == 0)]
    order = rng.permutation(len(detections))
    detections = [detections[i] for i in order]
    events = _deduplicate(Sightings.of_rows(detections),
                          DbscanParams(epsilon=1.0, min_pts=2))
    assert [e.id for e in events] == [f"clu_{r:03d}"
                                      for r in range(len(events))]
    assert sorted(i for e in events for i in e.member_ids) == \
        list(range(len(detections)))
    for event in events:
        members = [detections[i] for i in event.member_ids]
        want = merge_cluster_objects(members, event.member_ids, event.id)
        assert _hex_event(event) == _hex_event(want)


def test_events_hold_at_most_700_bytes_each():
    # 400 random clusters of one to five quads on a 300 m plant: the events
    # are one Events table, numbers and rings in flat arrays, the member
    # rows in one array('q'). As objects (a GeoPoint centroid, a tuple of
    # vertex tuples and a tuple of member ids each) they held about 1,270
    # bytes an event here; now about 500.
    rng = np.random.default_rng(3)
    table = Sightings.of_rows([
        d for _ in range(400)
        for d in _random_cluster(rng, ORIGIN, collinear=False, spread=300.0)])
    assert len(table) >= 1000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        events = deduplicate(table)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n = len(events)
    assert n > 300
    assert held - base <= 700 * n, (held - base) / n


# ---------------------------------------------------------------------------
# Class ranges in forked workers
# ---------------------------------------------------------------------------

GOLDEN_DETECTIONS = (pathlib.Path(__file__).parent / "data" / "golden_mission"
                     / "default" / "detections.jsonl")


def _deduplicate_on(cpus, table, params):
    """(ranges, result) of deduplicate with ``cpus`` usable CPUs and a range
    minimum of one sighting: the number of class ranges it ran and its
    Events table, or its error's type and message. No child is left."""
    forked_map, ranges = workers.forked_map, []

    def counted(fn, calls):
        ranges.append(len(calls))
        return forked_map(fn, calls)

    with mock.patch.object(dedup, "_MIN_RANGE_SIGHTINGS", 1), \
            mock.patch.object(workers, "usable_cpus", lambda: cpus), \
            mock.patch.object(workers, "forked_map", counted):
        try:
            result = deduplicate(table, params)
        except ValueError as exc:
            result = (type(exc), str(exc))
    _no_child_left()
    return ranges, result


def _same_on_any_cpu_count(table, params=DbscanParams()) -> list:
    """The class ranges deduplicate ran with 1, 2 and 3 usable CPUs, after
    asserting that every Events column, members included, or the error is
    the same for each."""
    counts, serial = _deduplicate_on(1, table, params)
    for cpus in (2, 3):
        ranges, result = _deduplicate_on(cpus, table, params)
        assert result == serial, cpus
        counts += ranges
    return counts


def _two_class_table():
    return Sightings.of_rows([_proj(0.0, 0.0), _proj(0.3, 0.0),
                              _proj(5.0, 0.0, class_id="diode_fault")])


@pytest.mark.parametrize("table,params,ranges", [
    (parse_detection_record_lines(GOLDEN_DETECTIONS.read_bytes()),
     DbscanParams(), [1, 2, 3]),
    (Sightings(), DbscanParams(), [1, 1, 1]),
    (Sightings.of_rows([_proj(x, 0.0) for x in (0.0, 0.3, 5.0)]),
     DbscanParams(), [1, 1, 1]),
    # More CPUs than classes: one class a range.
    (_two_class_table(), DbscanParams(), [1, 2, 2]),
    # min_pts past the sightings: every one is a noise event.
    (_two_class_table(), DbscanParams(min_pts=4), [1, 2, 2]),
], ids=["golden-default", "empty", "one-class", "more-cpus-than-classes",
        "all-noise"])
def test_deduplicate_does_not_depend_on_the_cpu_count(table, params, ranges):
    assert _same_on_any_cpu_count(table, params) == ranges


@st.composite
def _drawn_tables(draw):
    """A table of drawn sightings, some repeated so that they cluster. In
    half the tables each ring is shrunk towards its first vertex; in the
    other half a ring may be left as drawn, and most such span more than
    the 100 km tangent plane, so that their merge fails."""
    rows, wide = [], draw(st.booleans())
    for row in draw(st.lists(sighting_rows(), min_size=1, max_size=6)):
        if not (wide and draw(st.booleans())):
            ring = row[4]
            ring = floats(ring[k % 2] + (v - ring[k % 2]) * 1e-6
                          for k, v in enumerate(ring))
            row = (*row[:4], ring, *row[5:])
        rows += [row] * draw(st.integers(1, 3))
    order = draw(st.permutations(range(len(rows))))
    return Sightings.of_rows([rows[i] for i in order])


@settings(max_examples=30, deadline=None)
@given(_drawn_tables())
def test_deduplicate_of_drawn_tables_does_not_depend_on_the_cpu_count(table):
    _same_on_any_cpu_count(table)


# ---------------------------------------------------------------------------
# Duplicate false-positive rate
# ---------------------------------------------------------------------------

# Ground truth and items as evaluate reads them: a position, a class and
# whether the defect is small, and a centroid and a class.
_GroundTruth = namedtuple("_GroundTruth", "position class_id is_small",
                          defaults=(False,))
_Item = namedtuple("_Item", "centroid class_id")


def _item(east, north, class_id="hotspot"):
    return _Item(_pt(east, north), class_id)


def _metrics(items, gt, radius):
    """evaluate on a one-frame trace of events ``items``: an Events table
    of their centroids and classes, the columns evaluate reads."""
    events = Events(class_id=[item.class_id for item in items],
                    lat=floats(item.centroid.lat for item in items),
                    lon=floats(item.centroid.lon for item in items))
    return evaluate(MissionTrace(config=MissionConfig(match_radius_m=radius),
                                 defects=gt, frames=1, events=events))


def test_dup_fp_rate_hand_cases():
    gt = [_GroundTruth(position=_pt(0.0, 0.0), class_id="hotspot")]
    items = [_item(0.1, 0.0), _item(-0.1, 0.1), _item(0.0, -0.2)]
    # Three detections of one defect: two duplicates among three items.
    assert _metrics(items, gt, 1.0).dup_fp_dedup == pytest.approx(2.0 / 3.0)
    assert _metrics(items[:1], gt, 1.0).dup_fp_dedup == 0.0
    assert _metrics([], gt, 1.0).dup_fp_dedup == 0.0
    # The count itself, on ground-truth indices (None: unmatched).
    assert duplicate_rate([]) == 0.0
    assert duplicate_rate([None, None]) == 0.0
    assert duplicate_rate([0, 0, 1, None]) == 0.25


def test_dup_fp_rate_unmatched_and_denominator():
    gt = [_GroundTruth(position=_pt(0.0, 0.0), class_id="hotspot")]
    items = [_item(0.1, 0.0), _item(0.0, 0.1), _item(50.0, 50.0)]
    # One duplicate out of three items: the unmatched one counts too.
    assert _metrics(items, gt, 1.0).dup_fp_dedup == pytest.approx(1 / 3)


def test_dup_fp_rate_class_awareness():
    items = [_item(0.1, 0.0, class_id="diode_fault"),
             _item(0.0, 0.1, class_id="diode_fault")]
    other = [_GroundTruth(position=_pt(0.0, 0.0), class_id="hotspot")]
    same = [_GroundTruth(position=_pt(0.0, 0.0), class_id="diode_fault")]
    assert _metrics(items, other, 1.0).dup_fp_dedup == 0.0
    assert _metrics(items, same, 1.0).dup_fp_dedup == pytest.approx(0.5)
    assert _metrics(items, other, 1.0).recall == 0.0
    assert _metrics(items, same, 1.0).recall == 1.0


def test_dedup_validation_errors():
    with pytest.raises(DedupError):
        DbscanParams(epsilon=0.0)
    with pytest.raises(DedupError):
        DbscanParams(min_pts=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DedupError):
            DbscanParams(epsilon=bad)
