"""Geodetic primitives: the WGS84 point and ring checks, local tangent-plane
(ENU) conversion, great-circle (haversine) distance on floats, a
grid-indexed radius search over latitude and longitude columns and a
grouping of points into sub-cells narrower than a radius.

All polygon geometry at plant scale is done on a local equirectangular
tangent plane; errors are negligible for sub-kilometer extents.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

# IUGG mean Earth radius, meters.
MEAN_EARTH_RADIUS_M = 6_371_008.8

# Local-tangent linearization is only trusted out to this range.
MAX_TANGENT_RANGE_M = 100_000.0


class GeodesyError(ValueError):
    """Raised for invalid geodetic inputs or out-of-range tangent-plane use."""


def checked_point(lat, lon) -> tuple:
    """The point check: (lat, lon), the longitude wrapped into [-180, 180);
    GeodesyError for a latitude past +-90 or a non-finite longitude."""
    if not (-90.0 <= lat <= 90.0):
        raise GeodesyError(f"latitude out of range: {lat}")
    if -180.0 <= lon < 180.0:  # the wrap below, where fmod is the identity
        wrapped = lon + 180.0
        if wrapped < 360.0:  # not rounded up to 360
            return lat, wrapped - 180.0
    try:
        finite = math.isfinite(lon)
    except OverflowError as exc:  # an int past the float range
        raise GeodesyError(f"{exc}: longitude") from None
    if not finite:
        raise GeodesyError("non-finite longitude")
    lon = math.fmod(lon + 180.0, 360.0)
    if lon < 0:
        lon += 360.0
    return lat, lon - 180.0


def checked_ring(vertices) -> array:
    """The ring check: ``vertices``, (lat, lon) pairs, at least three, no
    two consecutive ones equal; the closing edge is implied. Returns the
    ring flat: ``array('d')`` of lat, lon, lat, lon, ... in ring order."""
    vertices = tuple(vertices)
    if len(vertices) < 3:
        raise GeodesyError("polygon needs at least 3 vertices")
    flat, before = [], None
    for vertex in vertices:
        if vertex == before:
            raise GeodesyError("consecutive duplicate polygon vertices")
        flat += vertex
        before = vertex
    return array("d", flat)


def ring_pairs(flat, start: int = 0, stop: int | None = None) -> tuple:
    """The (lat, lon) pairs of a ring held flat, as checked_ring returns
    it, or of ``flat[start:stop]``, one ring of a column of them."""
    return tuple(zip(flat[start:stop:2], flat[start + 1:stop:2]))


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 point, held to :func:`checked_point` on construction."""

    lat: float
    lon: float

    def __post_init__(self):
        object.__setattr__(self, "lon", checked_point(self.lat, self.lon)[1])


def point_columns(points) -> tuple:
    """The latitude and longitude columns of a sequence of GeoPoints."""
    return [p.lat for p in points], [p.lon for p in points]


def haversine(lat1, lon1, lat2, lon2) -> float:
    """Great-circle distance in meters between two points on the mean sphere."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    s = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    # Guard tiny negative / >1 excursions from roundoff.
    s = min(1.0, max(0.0, s))
    return 2.0 * MEAN_EARTH_RADIUS_M * math.asin(math.sqrt(s))


# Slack on the grid cell bounds, relative and in degrees: roundoff in the
# haversine evaluation and in binning must never put a pair within the
# radius two cells apart.
_CELL_SLACK_REL = 1e-9
_CELL_SLACK_DEG = 1e-9


def _grid_cells(radius: float, max_abs_lat: float):
    """Row height in degrees and number of longitude columns such that two
    points within ``radius`` of each other, both at |lat| <= max_abs_lat,
    lie in the same or adjacent cells."""
    half = min(radius / (2.0 * MEAN_EARTH_RADIUS_M), math.pi / 2.0)
    # sin^2(dphi / 2) <= s <= sin^2(radius / 2R)  =>  |dphi| <= radius / R
    row = math.degrees(2.0 * half) * (1.0 + _CELL_SLACK_REL) + _CELL_SLACK_DEG
    # cos(phi1) cos(phi2) sin^2(dlmb / 2) <= sin^2(radius / 2R)
    #   =>  sin(|dlmb| / 2) <= sin(radius / 2R) / cos(phi_max)
    bound = (math.sin(half) / math.cos(math.radians(max_abs_lat))
             * (1.0 + _CELL_SLACK_REL))
    if bound >= 1.0:
        return row, 1
    col = math.degrees(2.0 * math.asin(bound)) * (1.0 + _CELL_SLACK_REL) \
        + _CELL_SLACK_DEG
    ncols = int(360.0 / col)
    return row, (ncols if ncols >= 3 else 1)


def neighbours_within(lat, lon, radius: float, targets) -> list:
    """Every target within ``radius`` meters of each point.

    Points and ``targets`` are (lat, lon) columns. Returns one list per
    point of (index, distance) pairs in ascending index order, holding each
    target with haversine(point, target) <= radius.

    Candidates come from a dict of cells: latitude rows by longitude
    columns, sized from the bounds every pair within the radius obeys,
    |dphi| <= radius / R and sin(|dlmb| / 2) <= sin(radius / 2R) /
    cos(phi_max), plus a fixed slack, so such a pair lies in the same or an
    adjacent cell. The columns split the full circle evenly and wrap, so a
    set across the antimeridian stays contiguous; where the longitude bound
    reaches 1 (near a pole) there is a single column. Cost: O(n + m) to bin
    and one haversine per candidate pair in the 3x3 cells around each
    point, instead of n * m; the sorted candidates of a cell are gathered
    once and shared by every point in it. The result equals the
    brute-force scan.
    """
    if not 0.0 <= radius < math.inf:
        raise GeodesyError("search radius must be finite and non-negative")
    t_lat, t_lon = targets
    out = [[] for _ in lat]
    if not lat or not t_lat:
        return out
    row, ncols = _grid_cells(radius, max(map(abs, [*lat, *t_lat])))
    col = 360.0 / ncols

    def cell(la, lo):
        return math.floor(la / row), math.floor((lo + 180.0) / col) % ncols

    grid = {}
    for j, key in enumerate(map(cell, t_lat, t_lon)):
        grid.setdefault(key, []).append(j)
    steps = (-1, 0, 1) if ncols > 1 else (0,)
    cands_of = {}
    for la, lo, key, found in zip(lat, lon, map(cell, lat, lon), out):
        cands = cands_of.get(key)
        if cands is None:
            r, c = key
            cands = cands_of[key] = sorted(
                j for dr in (-1, 0, 1) for dc in steps
                for j in grid.get((r + dr, (c + dc) % ncols), ()))
        for j in cands:
            d = haversine(la, lo, t_lat[j], t_lon[j])
            if d <= radius:
                found.append((j, d))
    return out


# Room left under hav(radius / R) by a sub-cell's bound, relative, for the
# roundoff of haversine(); and the binning error of a coordinate, relative
# to its magnitude plus 180 degrees.
_SUB_CELL_MARGIN = 1e-9
_BIN_ERROR_REL = 2.0 ** -50
# Pairs two lists must make before far_apart bounds their distance.
_BOX_TEST_PAIRS = 64
# Absolute slack on sin(dlmb / 2) for a longitude difference near 360
# degrees: haversine() takes the sine of an argument near pi, off by
# roundoff of about 1e-15 in the difference and its conversion to radians.
_WRAP_SIN_SLACK = 1e-14


def _hav(degrees: float) -> float:
    return math.sin(math.radians(degrees) / 2.0) ** 2


def _sub_cell_split(radius: float, row: float, col: float,
                    max_abs_lon: float):
    """The smallest k for which any two points binned into one (row / k) by
    (col / k) degree sub-cell are within ``radius``, or None when the
    binning error is over a quarter of radius / R. Each side is widened by
    that error; hav(d / R) = hav(dphi) + cos(phi1) cos(phi2) hav(dlmb) with
    the cosines at most 1, so the test is hav(row / k) + hav(col / k) <=
    hav(radius / R) (1 - margin)."""
    reach = math.degrees(radius / MEAN_EARTH_RADIUS_M)
    spread = (max_abs_lon + 180.0) * _BIN_ERROR_REL
    if 4.0 * spread > reach:
        return None
    limit = _hav(reach) * (1.0 - _SUB_CELL_MARGIN)
    # No smaller k passes, as hav(a) + hav(b) >= hav(hypot(a, b)); with the
    # spread under a quarter of reach, one under about 1.6 times it does.
    k = math.ceil(math.hypot(row, col) / reach)
    while _hav(row / k + spread) + _hav(col / k + spread) > limit:
        k += 1
    return k


def radius_groups(lat, lon, radius: float):
    """Points of columns ``lat``, ``lon`` in groups whose members are all
    within ``radius`` meters of each other, and a search for the groups
    near one.

    Returns (groups, near): groups are ascending lists of point indices, in
    order of their first index; near(g) yields every other group that may
    hold a point within ``radius`` of one of group g's.

    The :func:`neighbours_within` cells are split k by k into sub-cells,
    with the smallest k that puts any two points of one sub-cell within the
    radius with room for roundoff (see :func:`_sub_cell_split`); each
    occupied sub-cell is a group. A pair within the radius is at most k
    sub-cells apart in either direction, so near(g) yields the groups of
    the 3x3 cells around g's that are that close. Where the cells have a
    single column (near a pole), or no k gives that room (a radius down at
    the binning error), a group holds equal points only and near(g) yields
    every other group of the 3x3 cells. Memory is O(n).
    """
    if not 0.0 < radius < math.inf:
        raise GeodesyError("group radius must be positive and finite")
    if not lat:
        return [], lambda g: iter(())
    row, ncols = _grid_cells(radius, max(map(abs, lat)))
    col = 360.0 / ncols
    split = (_sub_cell_split(radius, row, col, max(map(abs, lon)))
             if ncols > 1 else None)
    k = split or 1
    sub_row, sub_col, total = row / k, col / k, ncols * k
    # Sub-cell columns are not wrapped, so one never spans the antimeridian.
    keys = [(math.floor(la / sub_row), math.floor((lo + 180.0) / sub_col))
            for la, lo in zip(lat, lon)]
    # Without a split, only equal points (at distance 0) share a group.
    members = {}
    for i, key in enumerate(keys if split else zip(lat, lon)):
        members.setdefault(key, []).append(i)
    groups = list(members.values())
    keys = [keys[first] for first, *_ in groups]
    cells = {}
    for g, (r, c) in enumerate(keys):
        cells.setdefault((r // k, c // k % ncols), []).append(g)
    steps = (-1, 0, 1) if ncols > 1 else (0,)
    rows, cols = [r for r, _ in keys], [c for _, c in keys]
    cands_of = {}

    def near(g):
        r, c = rows[g], cols[g]
        cell = r // k, c // k % ncols
        cands = cands_of.get(cell)
        if cands is None:
            cr, cc = cell
            cands = cands_of[cell] = [
                h for dr in (-1, 0, 1) for dc in steps
                for h in cells.get((cr + dr, (cc + dc) % ncols), ())]
        # Within k rows and, around the circle of total columns, k columns.
        return (h for h in cands if h != g and abs(rows[h] - r) <= k
                and (cols[h] - c + k) % total <= 2 * k)

    return groups, near


def far_apart(lat, lon, radius: float):
    """A test apart(first, second) of two lists of indices into columns
    ``lat``, ``lon``, True only when haversine() puts every pair, one point
    from each list, farther than ``radius``. No distance is computed; the
    cost is linear in the two lists, about six haversines' worth for short
    ones, so lists of at most _BOX_TEST_PAIRS pairs are not tested (False).

    hav(d / R) = hav(dphi) + cos(phi1) cos(phi2) hav(dlmb) is bounded from
    below by the latitude and longitude gaps between the lists' bounding
    boxes, with both cosines taken at the latitude farthest from the
    equator, and must pass hav(radius / R) by a margin for roundoff. A
    pair's longitude difference lies between the boxes' gap and their span,
    and hav over that interval is least at one end: hav(gap) where the span
    is at most 180 degrees, else the smaller of hav(gap) and hav(span), as a
    difference may then wrap round the antimeridian. Near 360 degrees
    haversine() takes the sine of an argument near pi, whose roundoff is
    absolute, not relative; so hav(span) is taken as sin^2 of half of
    360 - span, less _WRAP_SIN_SLACK on the sine.
    """
    if not radius < math.pi * MEAN_EARTH_RADIUS_M:  # every pair is within
        return lambda first, second: False
    limit = (_hav(math.degrees(radius / MEAN_EARTH_RADIUS_M))
             * (1.0 + _SUB_CELL_MARGIN))

    def bounds(points):
        la, lo = [lat[i] for i in points], [lon[i] for i in points]
        return min(la), max(la), min(lo), max(lo)

    def apart(first, second):
        if len(first) * len(second) <= _BOX_TEST_PAIRS:
            return False
        (s1, n1, w1, e1), (s2, n2, w2, e2) = bounds(first), bounds(second)
        cos_far = math.cos(math.radians(max(-s1, n1, -s2, n2)))
        west, east = min(w1, w2), max(e1, e2)
        lon_hav = _hav(max(w2 - e1, w1 - e2, 0.0))
        if east - west > 180.0:
            wrap = (west + 180.0) + (180.0 - east)  # 360 - span
            lon_hav = min(lon_hav, max(0.0, math.sin(math.radians(wrap) / 2.0)
                                       - _WRAP_SIN_SLACK) ** 2)
        return (_hav(max(s2 - n1, s1 - n2, 0.0))
                + cos_far * cos_far * lon_hav) > limit

    return apart


def _reject_offset(east: float, north: float, message: str):
    if not (math.isfinite(east) and math.isfinite(north)):
        raise GeodesyError("non-finite ENU component")
    raise GeodesyError(message)


def tangent_offsets(lat0: float, lon0: float, vertices) -> list:
    """Equirectangular tangent-plane offsets [(east, north), ...], in
    meters, of the (lat, lon) pairs ``vertices`` from (lat0, lon0), in
    order; GeodesyError at the first one past 100 km.

    East is scaled by the cosine of the *midpoint* latitude, which keeps the
    approximation second-order accurate (sub-1e-6 relative error against the
    great-circle distance for baselines under 1 km at survey latitudes).
    The longitude difference is wrapped across the antimeridian only when
    it exceeds 180 degrees, so a small difference keeps its low bits.
    """
    out = []
    for lat, lon in vertices:
        dlon = lon - lon0
        if abs(dlon) > 180.0:
            dlon -= math.copysign(360.0, dlon)
        east = (MEAN_EARTH_RADIUS_M
                * math.cos(math.radians((lat0 + lat) / 2.0))
                * math.radians(dlon))
        north = MEAN_EARTH_RADIUS_M * math.radians(lat - lat0)
        if not math.hypot(east, north) <= MAX_TANGENT_RANGE_M:
            _reject_offset(east, north, "points farther than 100 km apart: "
                                        "tangent plane invalid")
        out.append((east, north))
    return out


def tangent_point(lat0: float, lon0: float, east: float,
                  north: float) -> tuple:
    """(lat, lon) at the tangent-plane offset (east, north) from (lat0,
    lon0): the exact algebraic inverse of :func:`tangent_offsets`. The
    longitude is not wrapped; :func:`checked_point` wraps it."""
    if not math.hypot(east, north) <= MAX_TANGENT_RANGE_M:
        _reject_offset(east, north,
                       "offset exceeds 100 km: tangent plane invalid")
    lat = lat0 + math.degrees(north / MEAN_EARTH_RADIUS_M)
    lon = lon0 + math.degrees(east / (
        MEAN_EARTH_RADIUS_M * math.cos(math.radians((lat0 + lat) / 2.0))))
    return lat, lon


def plane_centroid(xy) -> tuple:
    """Area-weighted centroid (x, y) of the closed ring of (x, y) tuples by
    the shoelace formula, accumulated edge by edge in ring order.

    Zero-area rings fall back to the vertex mean.
    """
    area2 = 0.0
    cx = 0.0
    cy = 0.0
    n = len(xy)
    for i in range(n):
        x0, y0 = xy[i]
        x1, y1 = xy[(i + 1) % n]
        cross = x0 * y1 - x1 * y0
        area2 += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    if abs(area2) < 1e-12:
        return sum(x for x, _ in xy) / n, sum(y for _, y in xy) / n
    return cx / (3.0 * area2), cy / (3.0 * area2)


def polygon_centroid(vertices) -> tuple:
    """Area-weighted centroid (lat, lon) of a ring of (lat, lon) pairs,
    computed on the tangent plane anchored at the first vertex and mapped
    back to WGS84 (see :func:`plane_centroid`), held to
    :func:`checked_point`.
    """
    lat0, lon0 = vertices[0]
    x, y = plane_centroid(tangent_offsets(lat0, lon0, vertices))
    return checked_point(*tangent_point(lat0, lon0, x, y))
