"""Geo-spatial de-duplication: DBSCAN over haversine distances between
sighting centroids and per-class cluster merging into canonical defect
events. The sightings are one :class:`Sightings` table and the events one
:class:`Events` table, in the same column layout; no object is built per
sighting or per event.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, fields
from itertools import islice

from .geodesy import (checked_point, far_apart, haversine,
                      plane_centroid, polygon_centroid, radius_groups,
                      ring_pairs, tangent_offsets, tangent_point)

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


def floats(values=()) -> array:
    """A float column: ``array('d')``."""
    return array("d", values)


def ends(values=()) -> array:
    """An index column: ``array('q')``."""
    return array("q", values)


class _Table:
    """The column tables' shared layout and readers. A number column is one
    ``array('d')`` and a string column a list of str; a list column, such
    as the rings, is one flat array of every row's values in row order with
    an ``array('q')`` of where each row's values end (the compressed-row
    layout; ``_LISTS`` names each such values, ends pair). No column holds
    a Python object per number, and arrays, like lists, compare and pickle,
    so tables do too; ``+`` and ``+=`` join them."""
    _LISTS = (("polygon", "ring_end"),)

    def columns(self) -> list:
        """The columns, in field order."""
        return [getattr(self, name) for name in self._names]

    def ring(self, i: int) -> tuple:
        """Row ``i``'s ring as (lat, lon) pairs."""
        ends = self.ring_end
        return ring_pairs(self.polygon, ends[i - 1] if i else 0, ends[i])

    def reorder(self, order):
        """Hold the rows in ``order``, a sequence of row indices, built one
        column at a time. A list column whose ends are empty (no row has
        one) stays empty."""
        for values, stops in self._LISTS:
            flat, bounds = getattr(self, values), getattr(self, stops)
            if bounds:
                taken, taken_ends = array(flat.typecode), ends()
                for i in order:
                    taken.extend(flat[bounds[i - 1] if i else 0:bounds[i]])
                    taken_ends.append(len(taken))
                setattr(self, values, taken)
                setattr(self, stops, taken_ends)
        listed = {name for pair in self._LISTS for name in pair}
        for name in self._names:
            if name not in listed:
                column = getattr(self, name)
                taken = map(column.__getitem__, order)
                setattr(self, name, array(column.typecode, taken)
                        if type(column) is array else list(taken))

    def __len__(self) -> int:
        return len(self.lat)

    def __iadd__(self, other):
        """Append ``other``'s rows in place, its list ends moved past the
        values already held."""
        moved = {stops: ends(len(getattr(self, values)) + end
                             for end in getattr(other, stops))
                 for values, stops in self._LISTS}
        for name in self._names:
            getattr(self, name).extend(moved[name] if name in moved
                                       else getattr(other, name))
        return self

    def __add__(self, other):
        joined = type(self)(*(column[:] for column in self.columns()))
        joined += other
        return joined


@dataclass
class Sightings(_Table):
    """Sightings as parallel columns (struct of arrays), row i of each
    holding sighting i. The boxes are one ``array('d')`` of four edges a
    row, and the rings one ``array('d')`` of every ring's lat, lon values,
    row i's ending at ``ring_end[i]``. A row is what
    geoprojection.project_detection returns and what telemetry reads from
    a detections.jsonl line: the values in field order, but not
    ``ring_end``, the box four numbers and the ring flat."""
    bbox: array = field(default_factory=floats)     # x_min, y_min, x_max, ...
    class_id: list = field(default_factory=list)
    confidence: array = field(default_factory=floats)
    peak_temp_c: array = field(default_factory=floats)
    polygon: array = field(default_factory=floats)  # lat, lon, lat, ... rings
    lat: array = field(default_factory=floats)      # centroid latitude
    lon: array = field(default_factory=floats)      # and wrapped longitude
    frame_id: list = field(default_factory=list)
    timestamp: list = field(default_factory=list)
    media_rgb: list = field(default_factory=list)
    media_tiff: list = field(default_factory=list)
    ring_end: array = field(default_factory=ends)   # row i's ring ends here

    @classmethod
    def of_rows(cls, rows) -> "Sightings":
        """The table of ``rows``, each one sighting's values in field
        order."""
        table = cls()
        table.extend(rows)
        return table

    def extend(self, rows):
        """Append ``rows``, each one sighting's values in field order, to
        the columns, which keep their types."""
        columns = list(zip(*rows))
        if not columns:
            return
        for box in columns[0]:
            self.bbox.extend(box)
        end = len(self.polygon)
        for ring in columns[4]:
            self.polygon.extend(ring)
            end += len(ring)
            self.ring_end.append(end)
        for k, column in enumerate(self.columns()[:-1]):
            if k not in (0, 4):
                column.extend(columns[k])


@dataclass
class Events(_Table):
    """De-duplicated defects, the mission report's records, as parallel
    columns in the layout of :class:`Sightings`: row k holds event k, its
    centroid in ``lat``, ``lon`` and its ring, the hull, ending at
    ``ring_end[k]``; ``member`` holds the input Sightings rows each event
    merged, row k's ending at ``member_end[k]`` (both empty for a parsed
    report, which has no members)."""
    id: list = field(default_factory=list)
    class_id: list = field(default_factory=list)
    confidence: array = field(default_factory=floats)   # max over members
    peak_temp_c: array = field(default_factory=floats)  # max over members
    lat: array = field(default_factory=floats)          # centroid latitude
    lon: array = field(default_factory=floats)          # and longitude
    polygon: array = field(default_factory=floats)      # as the report writes
    ring_end: array = field(default_factory=ends)
    media_rgb: list = field(default_factory=list)
    media_tiff: list = field(default_factory=list)
    member: array = field(default_factory=ends)
    member_end: array = field(default_factory=ends)

    _LISTS = (("polygon", "ring_end"), ("member", "member_end"))

    def append(self, id, class_id, confidence, peak_temp_c, lat, lon, ring,
               media_rgb, media_tiff):
        """Append one event's record, its ring flat; its members, if any,
        are the caller's to append."""
        self.id.append(id)
        self.class_id.append(class_id)
        self.confidence.append(confidence)
        self.peak_temp_c.append(peak_temp_c)
        self.lat.append(lat)
        self.lon.append(lon)
        self.polygon.extend(ring)
        self.ring_end.append(len(self.polygon))
        self.media_rgb.append(media_rgb)
        self.media_tiff.append(media_tiff)


Sightings._names = tuple(f.name for f in fields(Sightings))
Events._names = tuple(f.name for f in fields(Events))


def dbscan_labels(lat, lon, epsilon: float, min_pts: int) -> list:
    """Standard DBSCAN over columns ``lat``, ``lon``, haversine distances.

    Labels are cluster indices (contiguous from 0) or NOISE, by the rule
    that input-order core-point expansion follows:
    - a point is core when at least ``min_pts`` points, itself included,
      lie within epsilon;
    - the core components are unions over core-core pairs within epsilon;
    - clusters are numbered in order of each component's smallest core
      index;
    - a non-core point takes the lowest-numbered cluster among its core
      neighbours, or NOISE.

    The points come in the groups of :func:`geodesy.radius_groups`, whose
    members are within epsilon of each other. A group of ``min_pts`` or
    more is all core with no distance computed; a point of a smaller one
    counts its neighbours in the groups near it, up to ``min_pts``. A
    group's cores are one component, and two groups' components join at
    the first core pair within epsilon unless already joined or, for a long
    scan, their cores' bounding boxes are too far apart for any pair
    (:func:`geodesy.far_apart`). Memory is O(n): no neighbour list is
    stored. Every distance is haversine(lower index, higher index), so the
    labels equal those of the brute-force O(n^2) version, which the tests
    keep as the oracle.
    """
    if min_pts > len(lat):  # no point can be core
        return [NOISE] * len(lat)
    groups, near = radius_groups(lat, lon, epsilon)
    apart = far_apart(lat, lon, epsilon)

    def within(i, j):
        if i > j:
            i, j = j, i
        return haversine(lat[i], lon[i], lat[j], lon[j]) <= epsilon

    def is_core(i, g, need):
        hits = (j for h in near(g) for j in groups[h] if within(i, j))
        return len(list(islice(hits, need))) == need

    cores = [members if len(members) >= min_pts else
             [i for i in members if is_core(i, g, min_pts - len(members))]
             for g, members in enumerate(groups)]
    parent = list(range(len(groups)))

    def find(g):
        while parent[g] != g:
            parent[g] = g = parent[parent[g]]
        return g

    for g, mine in enumerate(cores):
        if mine:
            for h in near(g):
                theirs = cores[h]
                if h > g and theirs:
                    a, b = find(g), find(h)
                    if a != b and not apart(mine, theirs) and any(
                            within(i, j) for i in mine for j in theirs):
                        parent[b] = a

    # Number the components in order of their smallest core index.
    number = {}
    cluster = [NOISE] * len(groups)
    for _, g in sorted((mine[0], g) for g, mine in enumerate(cores) if mine):
        cluster[g] = number.setdefault(find(g), len(number))

    labels = [NOISE] * len(lat)
    for g, members in enumerate(groups):
        own = cluster[g]  # a group's cores are within epsilon of its points
        for i in cores[g]:
            labels[i] = own
        if len(cores[g]) < len(members):
            lower = sorted((cluster[h], h) for h in near(g) if cores[h]
                           and (own == NOISE or cluster[h] < own))
            for i in members:
                if i not in cores[g]:
                    labels[i] = next((c for c, h in lower if any(
                        within(i, j) for j in cores[h])), own)
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


def merge_cluster(sightings, members, events):
    """Merge the ``members`` rows of one cluster into one event, appended
    to ``events`` with its members and an empty id (:func:`deduplicate`
    names it).

    Geometry is the convex hull of all member polygon vertices on the local
    ENU plane (a robust surrogate for the exact polygon union; members are
    near-coincident quads); the centroid is the hull's, taken on that same
    plane. Confidence and peak temperature take the max.
    """
    if not members:
        raise DedupError("cannot merge an empty cluster")
    confidence = sightings.confidence
    rings = [sightings.ring(i) for i in members]
    lat0, lon0 = rings[0][0]
    hull = convex_hull(tangent_offsets(lat0, lon0,
                                       [v for ring in rings for v in ring]))
    best = max(members, key=confidence.__getitem__)
    if len(hull) < 3:
        # Collinear degenerate geometry: keep the best member's polygon.
        pairs = sightings.ring(best)
        ring = [c for vertex in pairs for c in vertex]
        lat, lon = polygon_centroid(pairs)
    else:
        ring = [c for xy in hull
                for c in checked_point(*tangent_point(lat0, lon0, *xy))]
        lat, lon = checked_point(*tangent_point(lat0, lon0,
                                                *plane_centroid(hull)))
    events.append("", sightings.class_id[best],
                  max([confidence[i] for i in members]),
                  max([sightings.peak_temp_c[i] for i in members]),
                  lat, lon, ring, sightings.media_rgb[best],
                  sightings.media_tiff[best])
    events.member.extend(members)
    events.member_end.append(len(events.member))


def deduplicate(sightings, params: DbscanParams = DbscanParams()) -> Events:
    """Consolidate per-frame sightings into unique defect events.

    Sightings are partitioned by class and clustered independently; noise
    points become singleton events. The events are merged class by class,
    each class's clusters in label order and then its noise points, into
    one :class:`Events` table, whose ``member`` column holds each cluster's
    rows in ascending order. A stable sort by (class, centroid lat,
    centroid lon) then reorders the table, and each event is named by its
    rank.
    """
    by_class = {}
    for i, class_id in enumerate(sightings.class_id):
        if class_id in by_class:
            by_class[class_id].append(i)
        else:
            by_class[class_id] = ends((i,))

    events = Events()
    for class_id in sorted(by_class):
        rows = by_class.pop(class_id)
        labels = dbscan_labels([sightings.lat[i] for i in rows],
                               [sightings.lon[i] for i in rows],
                               params.epsilon, params.min_pts)
        clusters = {}  # label -> its rows, in ascending order
        for i, label in zip(rows, labels):
            if label in clusters:
                clusters[label].append(i)
            else:
                clusters[label] = ends((i,))
        noise = clusters.pop(NOISE, ())
        for label in sorted(clusters):
            merge_cluster(sightings, clusters[label], events)
        for i in noise:
            merge_cluster(sightings, (i,), events)

    class_of, lat, lon = events.class_id, events.lat, events.lon
    events.reorder(sorted(range(len(events)),
                          key=lambda k: (class_of[k], lat[k], lon[k])))
    events.id = [f"clu_{rank:03d}" for rank in range(len(events))]
    return events


def nearest(found):
    """The index of the nearest of ``found``, (index, distance) pairs in
    ascending index order, the later one on equal distance; None when
    ``found`` is empty."""
    best, best_d = None, math.inf
    for i, d in found:
        if d <= best_d:
            best, best_d = i, d
    return best


def duplicate_rate(matches) -> float:
    """Dup-FP rate of one ground-truth index, or None, per item: a ground
    truth matched m >= 1 times adds m - 1 duplicate FPs, over the items."""
    hits = [gi for gi in matches if gi is not None]
    return (len(hits) - len(set(hits))) / len(matches) if matches else 0.0
