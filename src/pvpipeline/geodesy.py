"""Geodetic primitives: the WGS84 point and ring checks, local tangent-plane
(ENU) conversion, great-circle (haversine) distance on floats and a
grid-indexed radius search over latitude and longitude columns.

All polygon geometry at plant scale is done on a local equirectangular
tangent plane; errors are negligible for sub-kilometer extents.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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


def checked_ring(vertices) -> tuple:
    """The ring check: ``vertices`` ((lat, lon) pairs or GeoPoints) as a
    tuple of at least three, no two consecutive ones equal; the closing
    edge is implied."""
    vertices = tuple(vertices)
    if len(vertices) < 3:
        raise GeodesyError("polygon needs at least 3 vertices")
    for a, b in zip(vertices, vertices[1:]):
        if a == b:
            raise GeodesyError("consecutive duplicate polygon vertices")
    return vertices


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


def neighbours_within(lat, lon, radius: float, targets=None) -> list:
    """Every target within ``radius`` meters of each point.

    Points and ``targets`` are (lat, lon) columns. Returns one list per
    point of (index, distance) pairs in ascending index order, holding each
    target with haversine(point, target) <= radius. With ``targets`` None
    the points are searched against themselves: each list holds the point
    itself at distance 0.0, and each pair i < j is evaluated once, as
    haversine(point i, point j).

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
    self_search = targets is None
    t_lat, t_lon = (lat, lon) if self_search else targets
    out = [[] for _ in lat]
    if not lat or not t_lat:
        return out
    row, ncols = _grid_cells(radius, max(map(abs, [*lat, *t_lat])))
    col = 360.0 / ncols

    def cell(la, lo):
        return math.floor(la / row), math.floor((lo + 180.0) / col) % ncols

    keys = list(map(cell, lat, lon))
    grid = {}
    for j, key in enumerate(keys if self_search else map(cell, t_lat, t_lon)):
        grid.setdefault(key, []).append(j)
    steps = (-1, 0, 1) if ncols > 1 else (0,)
    cands_of = {}
    for i, (la, lo, key) in enumerate(zip(lat, lon, keys)):
        cands = cands_of.get(key)
        if cands is None:
            r, c = key
            cands = cands_of[key] = sorted(
                j for dr in (-1, 0, 1) for dc in steps
                for j in grid.get((r + dr, (c + dc) % ncols), ()))
        found = out[i]
        if self_search:
            found.append((i, 0.0))
            for j in cands[bisect_right(cands, i):]:
                d = haversine(la, lo, t_lat[j], t_lon[j])
                if d <= radius:
                    found.append((j, d))
                    out[j].append((i, d))
        else:
            for j in cands:
                d = haversine(la, lo, t_lat[j], t_lon[j])
                if d <= radius:
                    found.append((j, d))
    return out


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
    longitude is not wrapped; GeoPoint wraps it."""
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


def polygon_centroid(vertices) -> GeoPoint:
    """Area-weighted centroid of a ring of (lat, lon) pairs, computed on the
    tangent plane anchored at the first vertex and mapped back to WGS84
    (see :func:`plane_centroid`).
    """
    lat0, lon0 = vertices[0]
    x, y = plane_centroid(tangent_offsets(lat0, lon0, vertices))
    return GeoPoint(*tangent_point(lat0, lon0, x, y))
