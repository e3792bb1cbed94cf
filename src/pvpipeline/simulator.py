"""Deterministic synthetic-mission generator and end-to-end harness.

Builds a PV plant with seeded ground-truth defects, plans a nadir lawnmower
survey, synthesizes thermal sensor packets through a forward pinhole model,
runs the onboard pipeline (threshold detection, re-acquisition, projection,
de-duplication, telemetry), and scores recall, Dup-FP, and bandwidth
savings. The raw-size model still counts an RGB frame beside each thermal
one.

Radiometric model for synthetic blobs: each defect adds a Gaussian excess
over ambient. Three physically motivated attenuations shape the
operational trends:
  - pixel integration: peak scales by sigma_px^2 / (sigma_px^2 + psf_px^2),
    so high-altitude (small sigma_px) blobs lose contrast;
  - vignetting: peak scales by 1 - v * (r / r_max)^2 at image radius r,
    so off-axis views are weaker than boresight views (what re-acquisition
    recovers by centering);
  - motion blur: peak scales by 1 / (1 + blur_px / (2 * sigma_px)) with
    blur_px = speed * exposure / gsd, so faster flight lowers contrast.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import shutil
import tempfile
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timedelta, timezone
from time import perf_counter
from typing import BinaryIO

import numpy as np

from . import workers
from .dedup import DbscanParams, Events, Sightings, deduplicate, \
    duplicate_rate, nearest
from .detector import Detection, ThresholdDetectorConfig, detect
from .geodesy import GeoPoint, GeodesyError, neighbours_within, \
    point_columns, tangent_point
from .geoprojection import CameraView, ProjectionError, project_detection
from .reacquisition import Attitude, CameraIntrinsics, ReacqPolicy, \
    backproject, camera_to_world_rotation, reacquisition_decision, repoint
from .telemetry import MissionReport, detection_record_lines, \
    parse_ts_utc, to_json
from .thermal import ABSOLUTE_ZERO_C, TemperatureMap

log = logging.getLogger(__name__)

# Fault taxonomy labels used for ground-truth classes.
FAULT_CLASSES = ("hotspot_single", "hotspot_multi", "diode_bypass",
                 "string_open", "string_short", "soiling", "shading",
                 "cracking", "delamination", "junction_box")

# RNG substream tags: toggling one noise source must not shift the others.
_STREAM_PLANT = 11
_STREAM_POSE = 31
_STREAM_CONF = 23
_STREAM_MISS = 29
_STREAM_CLUTTER = 47

# Relative widening of the placement grid's cells past the separation, so
# that roundoff in binning never puts two defects nearer than the separation
# two cells apart.
_SEPARATION_CELL_SLACK = 1e-9
# Placement gives up after max(20000, this many attempts per defect of the
# target).
_ATTEMPTS_PER_DEFECT = 100
# Relative widening of the closed-form flight time past the sum of legs that
# plan_flight accumulates, for the roundoff of that sum.
_FLIGHT_TIME_SLACK = 1e-6
# Most frames x pixels a mission may plan: 180 times a 200x200 plant's.
_MAX_FRAME_PIXELS = 2 ** 32
# Most frames a mission may plan: 14 times a 200x200 plant's 4,680.
_MAX_FRAMES = 2 ** 16
# Most defects a mission may place or, under a density, expect: 5 times a
# 400x400 plant's 12,800 at density 0.08.
_MAX_DEFECTS = 2 ** 16
# Modules a density's binomial draw may take: numpy's C long.
_MAX_DRAW_MODULES = 2 ** 63 - 1
# Most pixels of one frame, 32 MB as a float64 raster (the default is 80x64).
_MAX_RASTER_PIXELS = 2 ** 22
# Most clutter detections a mission may expect: 220 times a 200x200 plant's
# at rate 1.
_MAX_CLUTTER_DETECTIONS = 2 ** 20
# Most pairs of clutter sightings within dedup.epsilon of each other a
# mission may expect: all clutter shares one class, so dedup's DBSCAN work
# grows with these pairs. The default plant reaches it near rate 257.
_MAX_CLUTTER_PAIRS = 2 ** 18


class SimulationError(ValueError):
    pass


class PlacementError(SimulationError):
    """No placement fits the defect mix; the message leads with its key."""


# ---------------------------------------------------------------------------
# Scene
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlantLayout:
    origin: GeoPoint
    rows: int = 10
    cols: int = 10
    module_size: tuple = (0.8, 0.5)   # (east extent, north extent) meters
    pitch: tuple = (1.0, 1.0)         # (col/east, row/north) spacing meters

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise SimulationError("plant grid must be at least 1x1")
        if not all(x > 0 for x in (*self.module_size, *self.pitch)):
            raise SimulationError("module size and pitch must be positive")
        if not (self.pitch[0] >= self.module_size[0]
                and self.pitch[1] >= self.module_size[1]):
            raise SimulationError("pitch must be at least the module size")

    @property
    def extent(self) -> tuple:
        """(east, north) extent of the module field in meters."""
        return (self.cols * self.pitch[0], self.rows * self.pitch[1])


@dataclass(frozen=True)
class GroundTruthDefect:
    module: tuple               # (row, col)
    class_id: str
    peak_excess_c: float
    sigma_m: float
    east: float                 # plant-local ENU meters
    north: float
    position: GeoPoint
    is_small: bool = False

    def __post_init__(self):
        if self.peak_excess_c <= 0 or self.sigma_m <= 0:
            raise SimulationError("defect excess and sigma must be positive")


@dataclass(frozen=True)
class DefectMix:
    """Ground-truth generation parameters."""
    count: int | None = 8       # exact defect count; None means use density
    density: float = 0.08       # per-module defect probability when count is None
    n_small: int = 3
    min_separation_m: float = 2.5
    excess_range_c: tuple = (7.0, 9.0)
    small_excess_range_c: tuple = (6.0, 7.0)
    sigma_m: float = 0.25
    small_sigma_m: float = 0.12

    def __post_init__(self):
        if self.count is None and not (0.0 < self.density <= 1.0):
            raise SimulationError("density must lie in (0, 1]")
        if self.count is not None and self.count < 0:
            raise SimulationError(
                f"count must be non-negative, got {self.count}")
        if self.n_small < 0:
            raise SimulationError(
                f"n_small must be non-negative, got {self.n_small}")
        for key in ("sigma_m", "small_sigma_m"):
            if not getattr(self, key) > 0:
                raise SimulationError(
                    f"{key} must be positive, got {getattr(self, key)}")
        for key in ("excess_range_c", "small_excess_range_c"):
            if not min(getattr(self, key)) > 0:
                raise SimulationError(
                    f"{key} must hold two positive numbers, got "
                    f"{list(getattr(self, key))}")


def _crowded(grid: dict, ce: int, cn: int, east: float, north: float,
             sep: float) -> bool:
    """Whether a placed defect in the 3x3 separation cells around (ce, cn)
    lies nearer than ``sep`` to (east, north)."""
    for de in (-1, 0, 1):
        for dn in (-1, 0, 1):
            for e, n in grid.get((ce + de, cn + dn), ()):
                if math.hypot(east - e, north - n) < sep:
                    return True
    return False


def generate_plant(seed: int, layout: PlantLayout,
                   mix: DefectMix = DefectMix()):
    """Seeded defects on a plant layout: GroundTruthDefects on distinct
    modules with a minimum pairwise separation (rejection sampling).

    Each attempt checks a set of occupied modules and, for the separation,
    only the placed defects in the 3x3 background-grid cells around the
    candidate (Bridson, SIGGRAPH 2007); the cells are a little wider than
    the separation, so every defect nearer than it is among them. Placement
    gives up after max(20000, _ATTEMPTS_PER_DEFECT * target) attempts."""
    rng = _keyed_rng(seed, _STREAM_PLANT)
    n_modules = layout.rows * layout.cols
    if mix.count is not None:
        target = mix.count
    else:
        target = int(rng.binomial(n_modules, mix.density))
    if target > n_modules:
        raise SimulationError("more defects than modules")

    sep = mix.min_separation_m
    cell = sep * (1.0 + _SEPARATION_CELL_SLACK) if sep > 0 else None
    occupied = set()  # (row, col)
    grid = {}         # separation cell -> [(east, north)]
    chosen = []       # (row, col, east, north)
    max_attempts = max(20000, _ATTEMPTS_PER_DEFECT * target)
    attempts = 0
    while len(chosen) < target:
        attempts += 1
        if attempts > max_attempts:
            raise PlacementError(
                f"defects.min_separation_m: cannot place {target} defects "
                f"{sep:g} m apart in {max_attempts} attempts")
        r = int(rng.integers(layout.rows))
        c = int(rng.integers(layout.cols))
        if (r, c) in occupied:
            continue
        off_e = float(rng.uniform(0.2, 0.8)) * layout.module_size[0]
        off_n = float(rng.uniform(0.2, 0.8)) * layout.module_size[1]
        east = c * layout.pitch[0] + off_e
        north = r * layout.pitch[1] + off_n
        if cell is not None:
            ce, cn = math.floor(east / cell), math.floor(north / cell)
            if _crowded(grid, ce, cn, east, north, sep):
                continue
            grid.setdefault((ce, cn), []).append((east, north))
        occupied.add((r, c))
        chosen.append((r, c, east, north))

    defects = []
    n_small = min(mix.n_small, target)
    for i, (r, c, east, north) in enumerate(chosen):
        small = i < n_small
        lo, hi = mix.small_excess_range_c if small else mix.excess_range_c
        excess = float(rng.uniform(lo, hi))
        sigma = mix.small_sigma_m if small else mix.sigma_m
        # The same draw as str(rng.choice(FAULT_CLASSES)), at a fifth of
        # its cost; tests/test_golden_mission.py pins the equality.
        cls = FAULT_CLASSES[int(rng.integers(0, len(FAULT_CLASSES),
                                             dtype=np.int64))]
        pos = GeoPoint(*tangent_point(layout.origin.lat, layout.origin.lon,
                                      east, north))
        defects.append(GroundTruthDefect(
            module=(r, c), class_id=cls, peak_excess_c=excess,
            sigma_m=sigma, east=east, north=north, position=pos,
            is_small=small))
    return defects


# ---------------------------------------------------------------------------
# Flight planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlightPlan:
    altitude: float = 10.0        # meters AGL
    speed: float = 2.0            # m/s
    along_overlap: float = 0.7
    cross_overlap: float = 0.3

    def __post_init__(self):
        if self.altitude <= 0 or self.speed <= 0:
            raise SimulationError("altitude and speed must be positive")
        if not (0.0 <= self.along_overlap < 1.0
                and 0.0 <= self.cross_overlap < 1.0):
            raise SimulationError("overlaps must lie in [0, 1)")


@dataclass(frozen=True)
class FramePose:
    """Planned camera station in plant-local ENU with gimbal orientation."""
    east: float
    north: float
    altitude: float
    gimbal: Attitude
    time_s: float


def footprint(plan: FlightPlan, intr: CameraIntrinsics) -> tuple:
    """Nadir ground footprint (east, north) = (alt*W/fx, alt*H/fy)."""
    return (plan.altitude * intr.width / intr.fx,
            plan.altitude * intr.height / intr.fy)


def coverage_multiplicity(along_overlap: float) -> int:
    return max(1, math.ceil(1.0 / (1.0 - along_overlap)))


def _survey_grid(layout: PlantLayout, plan: FlightPlan,
                 intr: CameraIntrinsics) -> tuple:
    """plan_flight's lawnmower in closed form: (line count, east spacing of
    the lines, stations per line, along-track step)."""
    ext_e, ext_n = layout.extent
    fp_e, fp_n = footprint(plan, intr)
    if ext_e <= fp_e:
        n_lines, spacing = 1, 0.0
    else:
        line_spacing = fp_e * (1.0 - plan.cross_overlap)
        n_lines = math.ceil((ext_e - fp_e) / line_spacing) + 1
        spacing = (ext_e - fp_e) / (n_lines - 1)
    step = fp_n / coverage_multiplicity(plan.along_overlap)
    # Overshoot half a footprint past both plant edges so edge modules get
    # the full along-track multiplicity.
    n_along = math.ceil((ext_n + fp_n) / step) + 1
    return n_lines, spacing, n_along, step


def plan_flight(layout: PlantLayout, plan: FlightPlan,
                intr: CameraIntrinsics) -> list:
    """Nadir lawnmower: north-south lines spaced east by
    footprint_e*(1-cross_overlap). Along-track spacing is
    footprint_n / ceil(1/(1-along_overlap)), which is at most
    footprint_n*(1-along_overlap) and guarantees that every in-plant point
    is imaged by at least ceil(1/(1-along_overlap)) frames.
    """
    ext_e, ext_n = layout.extent
    fp_e, fp_n = footprint(plan, intr)
    n_lines, spacing, n_along, step = _survey_grid(layout, plan, intr)
    if n_lines == 1:
        lines = [ext_e / 2.0]
    else:
        lines = [fp_e / 2.0 + i * spacing for i in range(n_lines)]
    along = [-fp_n / 2.0 + k * step for k in range(n_along)]

    nadir = Attitude(pitch=-math.pi / 2.0)
    poses = []
    t = 0.0
    prev = None
    for i, east in enumerate(lines):
        stations = along if i % 2 == 0 else list(reversed(along))
        for north in stations:
            if prev is not None:
                t += math.hypot(east - prev[0], north - prev[1]) / plan.speed
            poses.append(FramePose(east=east, north=north,
                                   altitude=plan.altitude, gimbal=nadir,
                                   time_s=t))
            prev = (east, north)
    return poses


# ---------------------------------------------------------------------------
# Sensor synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RenderModel:
    ambient_c: float = 25.0
    psf_px: float = 0.7         # optics/pixel-integration blur, pixels
    vignette: float = 0.6       # peak attenuation coefficient at the corners
    exposure_s: float = 0.025    # motion-blur integration time

    def __post_init__(self):
        if not (0.0 <= self.vignette <= 1.0):
            raise SimulationError("vignette coefficient must lie in [0, 1]")
        # detect's median adds two pixels of about ambient_c
        if not (self.ambient_c > ABSOLUTE_ZERO_C
                and math.isfinite(2.0 * self.ambient_c)):
            raise SimulationError("ambient_c must lie above absolute zero "
                                  "and at most half the float range")
        for key in ("psf_px", "exposure_s"):
            if not getattr(self, key) >= 0:
                raise SimulationError(
                    f"{key} must be non-negative, got {getattr(self, key)}")


@dataclass(frozen=True)
class SyntheticDetectorNoise:
    confidence_sigma: float = 0.1
    miss_probability: float = 0.0
    clutter_rate: float = 0.0         # expected clutter detections per frame
    pos_sigma_m: float = 0.12         # measured-pose position noise
    att_sigma_rad: float = 0.0        # measured-gimbal angle noise

    def __post_init__(self):
        if not (0.0 <= self.miss_probability <= 1.0):
            raise SimulationError("miss probability must lie in [0, 1]")
        if min(self.confidence_sigma, self.clutter_rate,
               self.pos_sigma_m, self.att_sigma_rad) < 0:
            raise SimulationError("noise parameters must be non-negative")


@dataclass(frozen=True)
class SensorPacket:
    frame_id: str
    pose_true: FramePose
    pose_meas: FramePose
    temp: TemperatureMap


@dataclass(frozen=True)
class Scene:
    """The defects a mission renders, with the columns the renderer's cull
    reads, built once per mission by :meth:`of`. ``east`` and ``north``
    hold the defects' plant coordinates sorted by east, ``order`` the index
    in ``defects`` of each sorted row, ``bounds`` (min north, max north,
    min east, max east) and ``max_sigma_m`` the largest blob sigma."""
    defects: list
    order: np.ndarray
    east: np.ndarray
    north: np.ndarray
    bounds: tuple
    max_sigma_m: float

    @classmethod
    def of(cls, defects) -> "Scene":
        east = np.array([d.east for d in defects], dtype=np.float64)
        north = np.array([d.north for d in defects], dtype=np.float64)
        order = np.argsort(east, kind="stable")
        bounds = ((north.min(), north.max(), east.min(), east.max())
                  if defects else (0.0, 0.0, 0.0, 0.0))
        return cls(defects=defects, order=order, east=east[order],
                   north=north[order], bounds=tuple(map(float, bounds)),
                   max_sigma_m=max((d.sigma_m for d in defects), default=0.0))


def _in_view(scene: Scene, pose: FramePose, rot, intr: CameraIntrinsics):
    """Indices, in defect order, of the scene's defects inside a ground box
    that holds every defect able to pass render_frame's camera-z and
    4-sigma tests, even as ``maybe_in_view`` in tests/oracles.py widens
    them for roundoff; every index when the box cannot be formed.

    A ground offset ``ned`` from the camera has camera coordinates (x, y,
    z) = rot.T @ ned. It passes when z > 0.1 and (x, y) lies within 4 sigma
    (x) or 4 sigma fx / fy (y) of the raster's frustum at depth z. The
    widening is covered by growing the raster ``pad`` px, 4 sigma by the
    factor in ``g``, and both by 10 err K / f. Here err = 1e-12 * L *
    (max(fx, fy) + 1), L bounds |ned|_1 over the scene and K = 1 + |cx| +
    |cy| + width + height. So ned = z * w + rot @ (dx, dy, 0), with w =
    rot @ (a, b, 1) on the grown raster, |dx| <= mx and |dy| <= my. When
    the four corner rays w descend, so does every w. For each (dx, dy) the
    ground points then form the quadrilateral of the four corner hits, each
    affine in (dx, dy), so the box of the sixteen hits at (+-mx, +-my)
    holds them all. The box is grown by 1e-8 of its coordinates' size for
    the rounding of its own formulas, which stays small because each
    corner ray descends by at least 1e-6 of its length. The defects are
    then read from the east-sorted columns: one binary search, one north
    test."""
    everything = range(len(scene.defects))
    if not scene.defects:
        return everything
    n_min, n_max, e_min, e_max = scene.bounds
    pn, pe, alt = pose.north, pose.east, pose.altitude
    ned_l1 = (max(abs(n_min - pn), abs(n_max - pn))
              + max(abs(e_min - pe), abs(e_max - pe)) + abs(alt))
    fx, fy, cx, cy = intr.fx, intr.fy, intr.cx, intr.cy
    k = 1.0 + abs(cx) + abs(cy) + intr.width + intr.height
    err = 1e-12 * ned_l1 * (max(fx, fy) + 1.0)
    if not err <= 1e-3:  # keeps every passing z above 0.09
        return everything
    g = 4.0 * scene.max_sigma_m * (1.0 + 300.0 * err + 1e-7)
    mx = g + 10.0 * err * k / fx
    my = (g * fx + 10.0 * err * k) / fy
    pad = 1e-6 * k
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot.tolist()
    n_lo = e_lo = math.inf
    n_hi = e_hi = -math.inf
    for u in (-pad, intr.width + pad):
        a = (u - cx) / fx
        for v in (-pad, intr.height + pad):
            b = (v - cy) / fy
            wn = r00 * a + r01 * b + r02
            we = r10 * a + r11 * b + r12
            wd = r20 * a + r21 * b + r22
            if not wd > 1e-6 * (abs(wn) + abs(we) + wd):
                return everything
            sn, se = wn / wd, we / wd
            reach_n = mx * abs(r00 - r20 * sn) + my * abs(r01 - r21 * sn)
            reach_e = mx * abs(r10 - r20 * se) + my * abs(r11 - r21 * se)
            n_lo = min(n_lo, alt * sn - reach_n)
            n_hi = max(n_hi, alt * sn + reach_n)
            e_lo = min(e_lo, alt * se - reach_e)
            e_hi = max(e_hi, alt * se + reach_e)
    slack = 1e-8 * (max(-n_lo, n_hi, -e_lo, e_hi) + abs(pn) + abs(pe))
    n_lo, n_hi = pn + n_lo - slack, pn + n_hi + slack
    e_lo, e_hi = pe + e_lo - slack, pe + e_hi + slack
    if not math.isfinite(n_lo + n_hi + e_lo + e_hi):
        return everything
    i0 = scene.east.searchsorted(e_lo)
    i1 = scene.east.searchsorted(e_hi, "right")
    north = scene.north[i0:i1]
    picked = scene.order[i0:i1][(north >= n_lo) & (north <= n_hi)]
    picked.sort()
    return picked.tolist()


def render_frame(scene: Scene, pose: FramePose, intr: CameraIntrinsics,
                 render: RenderModel, speed: float) -> TemperatureMap:
    """Forward-project defect blobs through the pinhole onto the thermal
    raster; see the module docstring for the attenuation model.

    The result is bit-equal to adding every blob's
    ``peak * exp(-d^2 / (2 sigma^2))`` over the whole raster in defect
    order. Only the defects in the view's ground box (``_in_view``) take
    the per-defect projection and the camera-z and 4-sigma tests. Each
    blob is then evaluated only within radius
    ``sigma * sqrt(2 ln(peak / (ulp(ambient_c) / 8))) + 1`` px of its
    centre, and skipped when that window misses the raster. Past that
    radius its addend is below ulp(ambient_c) / 8. While ambient_c and
    every peak are finite and positive, every pixel stays at or above
    ambient_c, so such an addend is under half an ulp of the pixel and
    rounds away. Otherwise every blob covers the full raster."""
    rot = camera_to_world_rotation(pose.gimbal)
    rot_t = rot.T
    img = np.full((intr.height, intr.width), render.ambient_c, dtype=np.float64)
    r_max = math.hypot(intr.cx, intr.cy)
    gsd = pose.altitude / intr.fx
    blur_px = speed * render.exposure_s / gsd
    blobs = []
    for i in _in_view(scene, pose, rot, intr):
        d = scene.defects[i]
        x, y, z = (rot_t @ np.array([d.north - pose.north, d.east - pose.east,
                                     pose.altitude])).tolist()
        if z <= 0.1:
            continue
        u0 = intr.fx * x / z + intr.cx
        v0 = intr.fy * y / z + intr.cy
        sigma_px = d.sigma_m * intr.fx / z
        margin = 4.0 * sigma_px
        if not (-margin <= u0 < intr.width + margin
                and -margin <= v0 < intr.height + margin):
            continue
        r_frac = math.hypot(u0 - intr.cx, v0 - intr.cy) / r_max
        peak = d.peak_excess_c
        peak *= sigma_px ** 2 / (sigma_px ** 2 + render.psf_px ** 2)
        peak *= max(1.0 - render.vignette * min(r_frac, 1.0) ** 2, 0.0)
        peak *= 1.0 / (1.0 + blur_px / (2.0 * sigma_px))
        blobs.append((peak, u0, v0, sigma_px))

    windowed = (0.0 < render.ambient_c < math.inf
                and all(0.0 < b[0] < math.inf for b in blobs))
    if windowed:
        log_floor = math.log(math.ulp(render.ambient_c)) - math.log(8.0)
    u_lo, v_lo, u_hi, v_hi = 0, 0, intr.width, intr.height
    for peak, u0, v0, sigma_px in blobs:
        if windowed:
            radius = sigma_px * math.sqrt(
                2.0 * max(math.log(peak) - log_floor, 0.0)) + 1.0
            u_lo = max(math.ceil(u0 - radius), 0)
            u_hi = min(math.floor(u0 + radius) + 1, intr.width)
            v_lo = max(math.ceil(v0 - radius), 0)
            v_hi = min(math.floor(v0 + radius) + 1, intr.height)
            if u_lo >= u_hi or v_lo >= v_hi:
                continue
        uu = np.arange(u_lo, u_hi, dtype=np.float64)
        vv = np.arange(v_lo, v_hi, dtype=np.float64)[:, None]
        img[v_lo:v_hi, u_lo:u_hi] += peak * np.exp(
            -((uu - u0) ** 2 + (vv - v0) ** 2) / (2.0 * sigma_px ** 2))
    return TemperatureMap(temp_c=img)


# ---------------------------------------------------------------------------
# Mission configuration and pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MissionConfig:
    seed: int = 0
    site_id: str = "SIM-PLANT-01"
    uav: str = "SIM-UAV"
    start_utc: str = "2025-09-30T10:00:00Z"
    plant: PlantLayout = field(default_factory=lambda: PlantLayout(
        origin=GeoPoint(lat=49.4070, lon=26.9840)))
    defects: DefectMix = field(default_factory=DefectMix)
    flight: FlightPlan = field(default_factory=FlightPlan)
    camera: CameraIntrinsics = field(default_factory=lambda: CameraIntrinsics(
        fx=100.0, fy=100.0, cx=39.5, cy=31.5, width=80, height=64))
    detector: ThresholdDetectorConfig = field(
        default_factory=ThresholdDetectorConfig)
    noise: SyntheticDetectorNoise = field(default_factory=SyntheticDetectorNoise)
    render: RenderModel = field(default_factory=RenderModel)
    reacquisition: ReacqPolicy = field(default_factory=ReacqPolicy)
    dedup: DbscanParams = field(default_factory=DbscanParams)
    match_radius_m: float = 1.0

    def __post_init__(self):
        # Each message starts with the config-file key it checks.
        if self.seed < 0:
            raise SimulationError(f"seed: must be non-negative, got {self.seed}")
        try:
            start = parse_ts_utc(self.start_utc)
        except ValueError:
            raise SimulationError(
                f"start_utc: expected YYYY-MM-DDTHH:MM:SSZ, "
                f"got {self.start_utc!r}") from None
        n_modules = self.plant.rows * self.plant.cols
        mix = self.defects
        if mix.count is not None and mix.count > n_modules:
            raise SimulationError(
                f"defects.count: {mix.count} is more than the "
                f"{n_modules} modules of the plant")
        # Bound the placement's work; a density draws over the modules.
        mix_key = "defects.density" if mix.count is None else "defects.count"
        if n_modules > _MAX_DRAW_MODULES:
            raise SimulationError(
                f"{mix_key}: defects are placed over {n_modules} modules, "
                f"more than the {_MAX_DRAW_MODULES} a draw may take")
        expected = n_modules * mix.density if mix.count is None else mix.count
        if expected > _MAX_DEFECTS:
            raise SimulationError(
                f"{mix_key}: the plant's {n_modules} modules expect about "
                f"{expected:.3g} defects, more than the {_MAX_DEFECTS} a run "
                f"may place")
        for key in ("width", "height"):
            size = getattr(self.camera, key)
            if size < 1:
                raise SimulationError(f"camera.{key}: must be at least 1")
            # A clutter box's corner is drawn from [2, size - 4] pixels.
            if size < 6 and self.noise.clutter_rate > 0:
                raise SimulationError(
                    f"camera.{key}: {size} px leaves no room for clutter "
                    f"boxes (noise.clutter_rate > 0), which need 6")
        if not self.match_radius_m > 0:
            raise SimulationError("match_radius_m: must be positive")
        # The survey area, the plant grown by half a nadir footprint on each
        # side, must stay off the poles and on the tangent plane; its
        # south-west and north-east corners bound its latitudes and its
        # range from the origin. A measured pose past it is left to the
        # project stage.
        half_e, half_n = (x / 2.0 for x in footprint(self.flight, self.camera))
        ext_e, ext_n = self.plant.extent
        origin = self.plant.origin
        try:
            for east, north in ((-half_e, -half_n),
                                (ext_e + half_e, ext_n + half_n)):
                GeoPoint(*tangent_point(origin.lat, origin.lon, east, north))
        except GeodesyError as exc:
            raise SimulationError(
                f"plant: the survey area (plant plus half a camera "
                f"footprint) passes a pole or the tangent plane: {exc}"
            ) from None
        # backproject squares a pixel's offset from the principal point in
        # focal lengths, at most these (multiplied, as ** raises past the
        # range).
        cam = self.camera
        x = (abs(cam.cx) + cam.width) / cam.fx
        y = (abs(cam.cy) + cam.height) / cam.fy
        if not x * x + y * y < math.inf:
            raise SimulationError(
                f"camera.{'cx' if x >= y else 'cy'}: a pixel up to "
                f"{max(x, y):.3g} focal lengths from the principal point "
                f"squares past the float range")
        # Every timestamp is start_utc plus a pose time; the last pose's
        # time is at most the lawnmower's path length over the speed.
        try:
            n_lines, spacing, n_along, step = _survey_grid(
                self.plant, self.flight, self.camera)
            flight_s = (n_lines * (n_along - 1) * step
                        + (n_lines - 1) * spacing) / self.flight.speed
        except (ArithmeticError, ValueError):  # counts past the float range
            flight_s = math.inf
        room_s = (datetime.max.replace(tzinfo=timezone.utc)
                  - start).total_seconds()
        if not flight_s * (1.0 + _FLIGHT_TIME_SLACK) + 1.0 < room_s:
            raise SimulationError(
                f"flight.speed: the flight takes about {flight_s:.3g} s, "
                f"which from start_utc passes the last date a timestamp "
                f"can hold")
        # Bound the work before any pose is built (flight_s is finite here).
        width, height = self.camera.width, self.camera.height
        frame_px = float(n_lines) * n_along * width * height
        if frame_px > _MAX_FRAME_PIXELS:
            raise SimulationError(
                f"flight: the survey plans {n_lines * n_along} frames of "
                f"{width}x{height} pixels, about {frame_px:.3g} frame-pixels, "
                f"more than the {_MAX_FRAME_PIXELS:.3g} a run may take")
        if n_lines * n_along > _MAX_FRAMES:
            raise SimulationError(
                f"flight: the survey plans {n_lines * n_along} frames, more "
                f"than the {_MAX_FRAMES} a run may take")
        if float(width) * height > _MAX_RASTER_PIXELS:
            raise SimulationError(
                f"camera.{'width' if width >= height else 'height'}: a "
                f"{width}x{height} frame has more than the "
                f"{_MAX_RASTER_PIXELS} pixels one frame may take")
        clutter = float(n_lines) * n_along * self.noise.clutter_rate
        if clutter > _MAX_CLUTTER_DETECTIONS:
            raise SimulationError(
                f"noise.clutter_rate: {self.noise.clutter_rate:.3g} per frame "
                f"over {n_lines * n_along} frames expects about "
                f"{clutter:.3g} clutter detections, more than the "
                f"{_MAX_CLUTTER_DETECTIONS} a run may take")
        # Clutter falls uniformly on the ground the frames cover, so a pair
        # is within epsilon with the chance of a disc of that radius.
        area = max(ext_e, 2.0 * half_e) * (ext_n + 4.0 * half_n)
        # (epsilon ** 2 would raise OverflowError where this gives inf.)
        disc = math.pi * self.dedup.epsilon * self.dedup.epsilon
        pairs = clutter * clutter / 2.0 * (1.0 if area <= disc
                                           else disc / area)
        if pairs > _MAX_CLUTTER_PAIRS:
            raise SimulationError(
                f"noise.clutter_rate: {self.noise.clutter_rate:.3g} per frame "
                f"over {n_lines * n_along} frames expects about {pairs:.3g} "
                f"pairs of clutter detections within dedup.epsilon of each "
                f"other, more than the {_MAX_CLUTTER_PAIRS} a run may take")
        # render_frame squares a blob's pixel sigma, at most the widest defect
        # sigma times fx over the 0.1 m depth it renders past, and psf_px,
        # and adds the squares (multiplied here, as ** raises past the range).
        key = max(("sigma_m", "small_sigma_m"),
                  key=lambda k: getattr(self.defects, k))
        sigma_px = getattr(self.defects, key) * self.camera.fx / 0.1
        psf_px = self.render.psf_px
        if not math.isfinite(sigma_px * sigma_px + psf_px * psf_px):
            name = f"defects.{key}" if sigma_px >= psf_px else "render.psf_px"
            raise SimulationError(
                f"{name}: a blob sigma of up to {sigma_px:.3g} px (at 0.1 m "
                f"depth) and psf_px {psf_px:.3g} px square past the float "
                f"range")
        # render_frame adds to ambient_c one blob per defect, each at most
        # its peak excess (every attenuation is at most 1); detect's median
        # adds two pixels of the sum.
        n = n_modules if mix.count is None else mix.count
        key = max(("excess_range_c", "small_excess_range_c"),
                  key=lambda k: max(getattr(mix, k)))
        peak = max(getattr(mix, key))
        total = 2.0 * (abs(self.render.ambient_c) + n * peak)
        if not math.isfinite(total):
            raise SimulationError(
                f"defects.{key}: {n} defects of up to {peak:.3g} C over "
                f"ambient_c {self.render.ambient_c:.3g} C sum past half the "
                f"float range")


@dataclass
class MissionTrace:
    config: MissionConfig
    defects: list
    frames: int = 0
    detections_seen: int = 0
    accepted: Sightings = field(default_factory=Sightings)
    gt_matches: list = field(default_factory=list)  # defect index or None
    reacq_rounds: int = 0
    reacq_confirms: int = 0
    projection_failed: int = 0
    events: Events = field(default_factory=Events)
    report_json: bytes = b""      # report.json, the telemetry payload

    @property
    def payload_bytes(self) -> int:
        return len(self.report_json)

    @property
    def raw_bytes(self) -> int:
        """Raw imagery of every view flown (survey frames and re-acquisition
        rounds), each a 16-bit thermal plus an 8-bit RGB frame, uncompressed."""
        intr = self.config.camera
        return (self.frames + self.reacq_rounds) * intr.width * intr.height * 5


@dataclass(frozen=True)
class MetricsReport:
    recall: float
    recall_small: float
    dup_fp_raw: float
    dup_fp_dedup: float
    event_count: int
    gt_count: int
    bandwidth_savings: float
    reacq_rounds: int
    reacq_confirms: int

    def __post_init__(self):
        for rate in (self.recall, self.recall_small, self.dup_fp_raw,
                     self.dup_fp_dedup):
            if not (0.0 <= rate <= 1.0):
                raise SimulationError("metric rates must lie in [0, 1]")


def _ts_utc(start: datetime, offset_s: float) -> str:
    return (start + timedelta(seconds=round(offset_s))
            ).strftime("%Y-%m-%dT%H:%M:%SZ")


def _keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """``np.random.default_rng([seed, *key])``'s state, seeded from the uint32
    words SeedSequence reads from that list: each part's, little-endian."""
    words = []
    for part in (seed, *key):
        while part > 0xFFFFFFFF:
            words.append(part & 0xFFFFFFFF)
            part >>= 32
        words.append(part)
    return np.random.default_rng(np.array(words, dtype=np.uint32))


def _conf_noise(seed: int, frame_idx: int, det_idx: int, rounds: int,
                sigma: float) -> float:
    if sigma == 0.0:
        return 0.0
    rng = _keyed_rng(seed, _STREAM_CONF, frame_idx, det_idx, rounds)
    return float(rng.normal(0.0, sigma))


def _missed(seed: int, frame_idx: int, det_idx: int, prob: float) -> bool:
    if prob <= 0.0:
        return False
    rng = _keyed_rng(seed, _STREAM_MISS, frame_idx, det_idx)
    return bool(rng.uniform() < prob)


def _clutter_detections(intr: CameraIntrinsics, rate: float, seed: int,
                        frame_idx: int) -> list:
    if rate <= 0.0:
        return []
    rng = _keyed_rng(seed, _STREAM_CLUTTER, frame_idx)
    out = []
    for _ in range(int(rng.poisson(rate))):
        u = float(rng.uniform(2, intr.width - 4))
        v = float(rng.uniform(2, intr.height - 4))
        conf = float(rng.uniform(0.55, 0.9))
        out.append(Detection(x_min=u, y_min=v, x_max=u + 2.0, y_max=v + 2.0,
                             class_id="clutter", confidence=conf,
                             peak_temp_c=30.0))
    return out


def sense_frame(config: MissionConfig, scene: Scene, pose: FramePose,
                frame_idx: int) -> SensorPacket:
    """Sense stage: frame ``frame_idx`` of the flight, rendered from its true
    pose, with a measured pose perturbed by the configured noise. The index
    is the frame id and keys the frame's RNG, so a frame gives the same
    packet whichever range of the flight it is flown in."""
    noise = config.noise
    rng = _keyed_rng(config.seed, _STREAM_POSE, frame_idx)
    de, dn, dz = rng.normal(0.0, noise.pos_sigma_m, size=3)
    dp, dy = rng.normal(0.0, noise.att_sigma_rad, size=2)
    meas = FramePose(east=pose.east + de, north=pose.north + dn,
                     altitude=pose.altitude + 0.2 * dz,
                     gimbal=Attitude(pitch=pose.gimbal.pitch + dp,
                                     yaw=pose.gimbal.yaw + dy),
                     time_s=pose.time_s)
    temp = render_frame(scene, pose, config.camera, config.render,
                        config.flight.speed)
    return SensorPacket(frame_id=f"f{frame_idx:04d}", pose_true=pose,
                        pose_meas=meas, temp=temp)


def detect_frame(packet: SensorPacket, frame_idx: int, config: MissionConfig,
                 trace: MissionTrace) -> list:
    """Detect stage: threshold detections plus synthetic clutter, less the
    ones the miss model drops, as (index, detection) pairs; the index keys
    the detection's noise streams."""
    detections = detect(packet.temp, config.detector)
    detections += _clutter_detections(config.camera,
                                      config.noise.clutter_rate, config.seed,
                                      frame_idx)
    trace.detections_seen += len(detections)
    return [(det_idx, det) for det_idx, det in enumerate(detections)
            if not _missed(config.seed, frame_idx, det_idx,
                           config.noise.miss_probability)]


def confirm_detection(det: Detection, packet: SensorPacket, frame_idx: int,
                      det_idx: int, config: MissionConfig, scene: Scene,
                      trace: MissionTrace):
    """Confirm stage: the accept / re-acquire / reject loop for one raw
    detection. Returns the confirmed detection and the measured gimbal of
    the re-acquired view it was seen in (None for the survey frame itself),
    or None when it is rejected or lost. A re-acquired view's measured
    gimbal is the commanded one plus the frame's attitude error."""
    intr = config.camera
    frame_area = float(intr.width * intr.height)
    pose_true, gimbal_meas = packet.pose_true, None
    err_pitch = packet.pose_meas.gimbal.pitch - pose_true.gimbal.pitch
    err_yaw = packet.pose_meas.gimbal.yaw - pose_true.gimbal.yaw
    rounds = 0
    while True:
        noisy = min(max(det.confidence + _conf_noise(
            config.seed, frame_idx, det_idx, rounds,
            config.noise.confidence_sigma), 0.0), 1.0)
        det = replace(det, confidence=noisy)
        action = reacquisition_decision(det, frame_area,
                                        config.reacquisition, rounds)
        if action == "accept":
            if rounds > 0:
                trace.reacq_confirms += 1
            return det, gimbal_meas
        if action == "reject":
            return None
        # Re-acquire: re-point the gimbal along the target's line of sight
        # and render a fresh, centered view at the same station.
        trace.reacq_rounds += 1
        rounds += 1
        rot = camera_to_world_rotation(pose_true.gimbal)
        gimbal = repoint(pose_true.gimbal,
                         rot @ backproject(*det.center, intr))
        pose_true = replace(pose_true, gimbal=gimbal)
        gimbal_meas = Attitude(pitch=gimbal.pitch + err_pitch,
                               yaw=gimbal.yaw + err_yaw)
        frame = render_frame(scene, pose_true, intr, config.render,
                             speed=0.0)  # hover during re-acquisition
        redetections = detect(frame, config.detector)
        if not redetections:
            return None
        det = min(redetections, key=lambda d: math.hypot(
            d.center[0] - intr.cx, d.center[1] - intr.cy))


def frame_view(packet: SensorPacket, config: MissionConfig,
               start: datetime):
    """The project stage's pose work for one survey frame, done once for
    all its detections: the camera view from the measured pose, or None
    when the point below that pose is past a pole or the tangent plane. The
    pose altitude is the camera's height above the plant, as in
    :func:`render_frame`."""
    origin = config.plant.origin
    pose = packet.pose_meas
    try:
        ground = GeoPoint(*tangent_point(origin.lat, origin.lon, pose.east,
                                         pose.north))
    except GeodesyError:
        return None
    media = f"sim://{config.site_id}/{packet.frame_id}"
    return CameraView(intr=config.camera, ground=ground, height=pose.altitude,
                      rot=camera_to_world_rotation(pose.gimbal),
                      frame_id=packet.frame_id,
                      timestamp=_ts_utc(start, packet.pose_true.time_s),
                      media_rgb=f"{media}.jpg", media_tiff=f"{media}.tif")


def project_confirmed(det: Detection, gimbal, view, trace: MissionTrace):
    """Project stage: the detection's Sightings row in its frame's
    ``view``, or None (counted in ``trace.projection_failed``) when the
    view is None, a corner ray does not reach the ground or the ground ring
    repeats a vertex. ``gimbal`` is the measured gimbal of the re-acquired
    view the detection was confirmed in, which takes its own rotation, or
    None for the survey frame."""
    if view is None:
        trace.projection_failed += 1
        return None
    if gimbal is not None:
        view = replace(view, rot=camera_to_world_rotation(gimbal))
    try:
        return project_detection(det, view)
    except (ProjectionError, GeodesyError):
        trace.projection_failed += 1
        return None


def match_ground_truth(sightings: Sightings, defects, radius: float) -> list:
    """Match stage, a stand-in for the classifier head: each sighting
    within the radius of a defect takes the nearest one's class in the
    table's class column (see :func:`dedup.nearest`). Returns the index of
    each one's defect, or None."""
    gt_indices = [nearest(found) for found in neighbours_within(
        sightings.lat, sightings.lon, radius,
        point_columns([d.position for d in defects]))]
    sightings.class_id = [c if gi is None else defects[gi].class_id
                          for c, gi in zip(sightings.class_id, gt_indices)]
    return gt_indices


def _fly(config: MissionConfig, scene: Scene, poses, start: datetime,
         lo: int, hi: int, lines: BinaryIO | None = None) -> MissionTrace:
    """Sense -> detect -> confirm -> project -> match, one stage call each,
    over frames ``lo`` to ``hi - 1`` of the flight ``poses``. Returns
    the range's counters, its matched sightings as one table (extended
    once per frame) and their defect indices in a MissionTrace without
    config or defects, which the caller has and a worker need not send.
    With ``lines``, a binary file, the sightings' detections.jsonl lines
    are written to it, flushed, as a forked worker exits without
    flushing."""
    trace = MissionTrace(config=None, defects=None)
    for frame_idx in range(lo, hi):
        packet = sense_frame(config, scene, poses[frame_idx], frame_idx)
        trace.frames += 1
        confirmed = [c for det_idx, det in detect_frame(packet, frame_idx,
                                                        config, trace)
                     if (c := confirm_detection(det, packet, frame_idx,
                                                det_idx, config, scene,
                                                trace)) is not None]
        if not confirmed:
            continue
        view = frame_view(packet, config, start)
        trace.accepted.extend([
            row for det, gimbal in confirmed
            if (row := project_confirmed(det, gimbal, view, trace))
            is not None])
    trace.gt_matches = match_ground_truth(trace.accepted, scene.defects,
                                          config.match_radius_m)
    if lines is not None:
        detection_record_lines(trace.accepted, lines)
        lines.flush()
    return trace


def _fly_ranges(config: MissionConfig, scene: Scene, poses,
                start: datetime, lines: BinaryIO | None) -> MissionTrace:
    """``_fly`` over the whole flight, one contiguous frame range per usable
    CPU (at most one per frame) in ``workers.forked_map``. The output cannot
    depend on the cut: every noise stream is keyed by seed, frame and
    detection index, each projection is matched on its own, and the range
    traces are added up in frame order, every field but config and defects
    (lists and tables join in place). With ``lines``, range 0, which runs
    here, writes its lines to it, and each other range to an unnamed
    temporary file made before the fork, which is then appended to
    ``lines``: no process holds the text."""
    w = min(workers.usable_cpus(), len(poses))
    cuts = [len(poses) * i // w for i in range(w + 1)]
    temps = ([] if lines is None else
             [tempfile.TemporaryFile() for _ in range(w - 1)])
    trace = MissionTrace(config=config, defects=scene.defects)
    try:
        for part in workers.forked_map(_fly, [
                (config, scene, poses, start, cuts[i], cuts[i + 1],
                 temps[i - 1] if i and temps else lines) for i in range(w)]):
            for f in fields(MissionTrace):
                if f.name not in ("config", "defects"):
                    # In place where the field allows it: lists and tables.
                    mine = getattr(trace, f.name)
                    mine += getattr(part, f.name)
                    setattr(trace, f.name, mine)
        for temp in temps:
            temp.seek(0)
            shutil.copyfileobj(temp, lines)
    finally:
        for temp in temps:
            temp.close()
    return trace


def run_mission(config: MissionConfig, lines: BinaryIO | None = None):
    """Plan (the plant's scene, built once, and the poses) -> fly (sense ->
    detect -> confirm -> project -> match, a stage call each per frame, over
    frame ranges in forked workers) -> dedup -> report. Returns (trace,
    report), the same bytes for any number of workers;
    ``trace.report_json`` holds the report's JSON. With ``lines``, a
    binary file, the fly writes the accepted sightings' detections.jsonl
    lines to it, in order. Each stage's wall seconds are logged at info."""
    began = perf_counter()
    scene = Scene.of(generate_plant(config.seed, config.plant,
                                    config.defects))
    poses = plan_flight(config.plant, config.flight, config.camera)
    start = parse_ts_utc(config.start_utc)
    log.info("mission: plan %.3f s", perf_counter() - began)
    began = perf_counter()
    trace = _fly_ranges(config, scene, poses, start, lines)
    log.info("mission: fly %.3f s", perf_counter() - began)
    began = perf_counter()
    trace.events = deduplicate(trace.accepted, config.dedup)
    log.info("mission: dedup %.3f s", perf_counter() - began)
    began = perf_counter()
    report = MissionReport(config.site_id, config.uav,
                           _ts_utc(start, poses[-1].time_s), trace.events)
    trace.report_json = to_json(report)
    log.info("mission: report %.3f s", perf_counter() - began)
    return trace, report


def evaluate(trace: MissionTrace) -> MetricsReport:
    """Scores the mission against its defects. An event matches the
    defects of its class within the match radius: recall counts the defects
    some event matches, and Dup-FP after dedup takes each event's nearest
    one (see :func:`dedup.nearest`, :func:`dedup.duplicate_rate`)."""
    defects, events = trace.defects, trace.events
    near = neighbours_within(
        events.lat, events.lon, trace.config.match_radius_m,
        point_columns([d.position for d in defects]))
    same_class = [[(i, d) for i, d in found
                   if defects[i].class_id == class_id]
                  for class_id, found in zip(events.class_id, near)]
    matched = {i for found in same_class for i, _ in found}
    small = [i for i, d in enumerate(defects) if d.is_small]
    recall = len(matched) / len(defects) if defects else 1.0
    recall_small = (len(matched & set(small)) / len(small)) if small else 1.0

    return MetricsReport(
        recall=recall,
        recall_small=recall_small,
        dup_fp_raw=duplicate_rate(trace.gt_matches),
        dup_fp_dedup=duplicate_rate([nearest(f) for f in same_class]),
        event_count=len(events),
        gt_count=len(defects),
        bandwidth_savings=1.0 - trace.payload_bytes / trace.raw_bytes,
        reacq_rounds=trace.reacq_rounds,
        reacq_confirms=trace.reacq_confirms,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def sweep_csv(parameter: str, rows) -> str:
    """CSV table of [(value, MetricsReport)] rows, one per value of the
    swept parameter; a column per MetricsReport field, floats to 4 places."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    names = [f.name for f in fields(MetricsReport)]
    writer.writerow([parameter, *names])
    for value, m in rows:
        cells = [getattr(m, name) for name in names]
        writer.writerow([f"{value:g}"] + [
            f"{c:.4f}" if type(c) is float else c for c in cells])
    return buf.getvalue()


def metrics_csv(metrics: MetricsReport) -> str:
    return sweep_csv("value", [(0.0, metrics)])
