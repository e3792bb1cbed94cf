"""Seeded generator of `detections.jsonl` sightings files for the
`dedup_offline` workload.

The file mirrors what a survey of a 100x100-module plant would export:
about 830 defects across the ten fault classes, each seen 4 to 8 times with
0.1 m-scale position jitter, plus single "clutter" sightings. Lines are
shuffled, as frame order scatters the sightings of one defect through a
real file.

The generator uses only the standard library (`random`, `json`) and its own
equirectangular geometry, so changes to the package cannot alter the input.
Defects of one class are at least MIN_SEPARATION_M apart, and so are clutter
sightings, so with epsilon = 1 m each defect is exactly one DBSCAN cluster
and each clutter sighting one noise event: the event count per class that
`generate` returns is exact.
"""

from __future__ import annotations

import json
import math
import random

FAULT_CLASSES = ("hotspot_single", "hotspot_multi", "diode_bypass",
                 "string_open", "string_short", "soiling", "shading",
                 "cracking", "delamination", "junction_box")
CLUTTER = "clutter"

ORIGIN = (49.4070, 26.9840)       # plant south-west corner, degrees
EARTH_RADIUS_M = 6_371_008.8
PLANT_M = 100.0                   # 100 x 100 modules at 1 m pitch
DEFECTS_PER_CLASS = 83
CLUTTER_COUNT = 220
SIGHTINGS = (4, 8)                # inclusive range per defect
JITTER_M = 0.1
HALF_BOX_M = 0.2
MIN_SEPARATION_M = 2.5


def _to_latlon(east: float, north: float) -> tuple:
    lat0, lon0 = ORIGIN
    lat = lat0 + math.degrees(north / EARTH_RADIUS_M)
    lon = lon0 + math.degrees(east / (EARTH_RADIUS_M
                                      * math.cos(math.radians(lat0))))
    return lat, lon


def _place(rng: random.Random, taken: dict) -> tuple:
    """A point in the plant at least MIN_SEPARATION_M from every point in
    `taken`, a grid of cells MIN_SEPARATION_M wide."""
    while True:
        east = rng.uniform(0.0, PLANT_M)
        north = rng.uniform(0.0, PLANT_M)
        ci, cj = int(east // MIN_SEPARATION_M), int(north // MIN_SEPARATION_M)
        near = (p for di in (-1, 0, 1) for dj in (-1, 0, 1)
                for p in taken.get((ci + di, cj + dj), ()))
        if all(math.hypot(east - e, north - n) >= MIN_SEPARATION_M
               for e, n in near):
            taken.setdefault((ci, cj), []).append((east, north))
            return east, north


def _record(rng: random.Random, class_id: str, east: float, north: float,
            frame: int) -> str:
    e = east + rng.gauss(0.0, JITTER_M)
    n = north + rng.gauss(0.0, JITTER_M)
    h = HALF_BOX_M * rng.uniform(0.8, 1.2)
    corners = [_to_latlon(e - h, n + h), _to_latlon(e + h, n + h),
               _to_latlon(e + h, n - h), _to_latlon(e - h, n - h)]
    u, v = rng.uniform(0, 72), rng.uniform(0, 56)
    minute, second = divmod(frame // 2, 60)
    obj = {
        "frame_id": f"f{frame:04d}",
        "timestamp": f"2025-09-30T10:{minute % 60:02d}:{second:02d}Z",
        "class": class_id,
        "conf": round(rng.uniform(0.5, 1.0), 6),
        "temp_C": round(25.0 + rng.uniform(4.0, 12.0), 6),
        "bbox": [round(u, 1), round(v, 1), round(u + 6, 1), round(v + 6, 1)],
        "centroid_wgs84": list(_to_latlon(e, n)),
        "polygon_wgs84": [list(c) for c in corners],
        "media": {"rgb": f"sim://BENCH-DEDUP/f{frame:04d}.jpg",
                  "tiff": f"sim://BENCH-DEDUP/f{frame:04d}.tif"},
    }
    return json.dumps(obj, sort_keys=True)


def generate(seed: int) -> tuple:
    """Return (file bytes, expected events per class) for one seed."""
    rng = random.Random(seed)
    lines = []
    expected = {}
    frames = 2000
    for class_id in FAULT_CLASSES:
        taken = {}
        for _ in range(DEFECTS_PER_CLASS):
            east, north = _place(rng, taken)
            for _ in range(rng.randint(*SIGHTINGS)):
                lines.append(_record(rng, class_id, east, north,
                                     rng.randrange(frames)))
        expected[class_id] = DEFECTS_PER_CLASS
    taken = {}
    for _ in range(CLUTTER_COUNT):
        east, north = _place(rng, taken)
        lines.append(_record(rng, CLUTTER, east, north, rng.randrange(frames)))
    expected[CLUTTER] = CLUTTER_COUNT
    rng.shuffle(lines)
    return ("\n".join(lines) + "\n").encode("utf-8"), expected
