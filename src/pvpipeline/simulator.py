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
import ctypes
import io
import math
import os
import pickle
import signal
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timedelta, timezone

import numpy as np

from .dedup import DbscanParams, deduplicate, dup_fp_rate, nearest_ground_truth
from .detector import BoundingBox, Detection, ThresholdDetectorConfig, detect
from .geodesy import GeoPoint, GeodesyError, neighbours_within, \
    tangent_point
from .geoprojection import ProjectionError, project_detection
from .reacquisition import Attitude, CameraIntrinsics, ReacqPolicy, \
    backproject, camera_to_world_rotation, reacquisition_decision, repoint
from .telemetry import build_report, parse_ts_utc, to_json
from .thermal import TemperatureMap

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
# prctl option (<linux/prctl.h>): the signal sent when the parent dies.
_PR_SET_PDEATHSIG = 1


class SimulationError(ValueError):
    pass


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
        if min(self.module_size) <= 0 or min(self.pitch) <= 0:
            raise SimulationError("module size and pitch must be positive")
        if (self.pitch[0] < self.module_size[0]
                or self.pitch[1] < self.module_size[1]):
            raise SimulationError("pitch must be at least the module size")

    @property
    def extent(self) -> tuple:
        """(east, north) extent of the module field in meters."""
        return (self.cols * self.pitch[0], self.rows * self.pitch[1])


@dataclass(frozen=True)
class GroundTruthDefect:
    id: str
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


def generate_plant(seed: int, layout: PlantLayout,
                   mix: DefectMix = DefectMix()):
    """Seeded defects on a plant layout: GroundTruthDefects on distinct
    modules with a minimum pairwise separation (rejection sampling).

    Each attempt checks a set of occupied modules and, for the separation,
    only the placed defects in the 3x3 background-grid cells around the
    candidate (Bridson, SIGGRAPH 2007); the cells are a little wider than
    the separation, so every defect nearer than it is among them. Placement
    gives up after max(20000, _ATTEMPTS_PER_DEFECT * target) attempts."""
    rng = np.random.default_rng([seed, _STREAM_PLANT])
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
            raise SimulationError(
                "cannot place defects with the requested separation")
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
            if any(math.hypot(east - e, north - n) < sep
                   for de in (-1, 0, 1) for dn in (-1, 0, 1)
                   for e, n in grid.get((ce + de, cn + dn), ())):
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
        cls = str(rng.choice(FAULT_CLASSES))
        pos = GeoPoint(*tangent_point(layout.origin.lat, layout.origin.lon,
                                      east, north))
        defects.append(GroundTruthDefect(
            id=f"gt_{i:03d}", module=(r, c), class_id=cls,
            peak_excess_c=excess, sigma_m=sigma, east=east, north=north,
            position=pos, is_small=small))
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
    if ext_e <= 0 or ext_n <= 0:
        raise SimulationError("zero-area plant")
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


def _maybe_in_view(defects, pose: FramePose, rot, intr: CameraIntrinsics):
    """The defects that can pass render_frame's camera-z and 4-sigma tests.

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


def render_frame(defects, pose: FramePose, intr: CameraIntrinsics,
                 render: RenderModel, speed: float) -> TemperatureMap:
    """Forward-project defect blobs through the pinhole onto the thermal
    raster; see the module docstring for the attenuation model.

    The result is bit-equal to adding every blob's
    ``peak * exp(-d^2 / (2 sigma^2))`` over the whole raster in defect
    order. Defects that cannot pass the camera-z and 4-sigma tests are culled
    first (``_maybe_in_view``); the survivors take the per-defect projection
    and tests unchanged. Each blob is then evaluated only within radius
    ``sigma * sqrt(2 ln(peak / (ulp(ambient_c) / 8))) + 1`` px of its
    centre. Past that radius its addend is below ulp(ambient_c) / 8. While
    ambient_c and every peak are finite and positive, every pixel stays at
    or above ambient_c, so such an addend is under half an ulp of the pixel
    and rounds away. Otherwise every blob covers the full raster."""
    rot = camera_to_world_rotation(pose.gimbal)
    img = np.full((intr.height, intr.width), render.ambient_c)
    r_max = math.hypot(intr.cx, intr.cy)
    gsd = pose.altitude / intr.fx
    blur_px = speed * render.exposure_s / gsd
    blobs = []
    for d in _maybe_in_view(defects, pose, rot, intr):
        ned = np.array([d.north - pose.north, d.east - pose.east,
                        pose.altitude])
        cam = rot.T @ ned
        if cam[2] <= 0.1:
            continue
        u0 = intr.fx * cam[0] / cam[2] + intr.cx
        v0 = intr.fy * cam[1] / cam[2] + intr.cy
        sigma_px = d.sigma_m * intr.fx / cam[2]
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
        uu = np.arange(u_lo, u_hi, dtype=np.float64)
        vv = np.arange(v_lo, v_hi, dtype=np.float64)[:, None]
        img[v_lo:v_hi, u_lo:u_hi] += peak * np.exp(
            -((uu - u0) ** 2 + (vv - v0) ** 2) / (2.0 * sigma_px ** 2))
    return TemperatureMap(temp_c=img)


def _perturbed_pose(pose: FramePose, noise: SyntheticDetectorNoise,
                    rng) -> FramePose:
    de, dn, dz = rng.normal(0.0, noise.pos_sigma_m, size=3)
    dp, dy = rng.normal(0.0, noise.att_sigma_rad, size=2)
    gimbal = Attitude(pitch=pose.gimbal.pitch + dp, yaw=pose.gimbal.yaw + dy)
    return FramePose(east=pose.east + de, north=pose.north + dn,
                     altitude=pose.altitude + 0.2 * dz, gimbal=gimbal,
                     time_s=pose.time_s)


def simulate_frames(defects, poses, intr: CameraIntrinsics,
                    noise: SyntheticDetectorNoise, render: RenderModel,
                    speed: float, seed: int, first: int = 0):
    """Deterministic sensor stream, one packet per pose as it is consumed:
    frames rendered from the true pose, measured poses perturbed by the
    configured noise. Frames are numbered from ``first``, the index of
    ``poses[0]`` in the whole flight; the number is the frame id and keys
    the frame's RNG, so a range of the flight gives the same packets as
    the whole flight does for those frames."""
    for k, pose in enumerate(poses, first):
        rng = np.random.default_rng([seed, _STREAM_POSE, k])
        meas = _perturbed_pose(pose, noise, rng)
        temp = render_frame(defects, pose, intr, render, speed)
        yield SensorPacket(frame_id=f"f{k:04d}", pose_true=pose,
                           pose_meas=meas, temp=temp)


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
        if self.defects.count is not None and self.defects.count > n_modules:
            raise SimulationError(
                f"defects.count: {self.defects.count} is more than the "
                f"{n_modules} modules of the plant")
        for key in ("width", "height"):
            if getattr(self.camera, key) < 1:
                raise SimulationError(f"camera.{key}: must be at least 1")
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


@dataclass
class MissionTrace:
    config: MissionConfig
    defects: list
    frames: int = 0
    detections_seen: int = 0
    accepted: list = field(default_factory=list)   # ProjectedDetection
    reacq_rounds: int = 0
    reacq_confirms: int = 0
    projection_failed: int = 0
    events: list = field(default_factory=list)
    payload_bytes: int = 0      # the report's JSON telemetry payload

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


def _conf_noise(seed: int, frame_idx: int, det_idx: int, rounds: int,
                sigma: float) -> float:
    if sigma == 0.0:
        return 0.0
    rng = np.random.default_rng([seed, _STREAM_CONF, frame_idx, det_idx, rounds])
    return float(rng.normal(0.0, sigma))


def _missed(seed: int, frame_idx: int, det_idx: int, prob: float) -> bool:
    if prob <= 0.0:
        return False
    rng = np.random.default_rng([seed, _STREAM_MISS, frame_idx, det_idx])
    return bool(rng.uniform() < prob)


def _clutter_detections(intr: CameraIntrinsics, rate: float, seed: int,
                        frame_idx: int) -> list:
    if rate <= 0.0:
        return []
    rng = np.random.default_rng([seed, _STREAM_CLUTTER, frame_idx])
    out = []
    for _ in range(int(rng.poisson(rate))):
        u = float(rng.uniform(2, intr.width - 4))
        v = float(rng.uniform(2, intr.height - 4))
        conf = float(rng.uniform(0.55, 0.9))
        out.append(Detection(
            bbox=BoundingBox(x_min=u, y_min=v, x_max=u + 2.0, y_max=v + 2.0),
            class_id="clutter", confidence=conf,
            peak_temp_c=30.0))
    return out


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
                      det_idx: int, config: MissionConfig, defects,
                      trace: MissionTrace):
    """Confirm stage: the accept / re-acquire / reject loop for one raw
    detection. Returns the confirmed detection and the measured pose it
    was seen from, or None when it is rejected or lost. A re-acquired view's
    measured gimbal is the commanded one plus the frame's attitude error."""
    intr = config.camera
    frame_area = float(intr.width * intr.height)
    pose_true, pose_meas = packet.pose_true, packet.pose_meas
    err_pitch = pose_meas.gimbal.pitch - pose_true.gimbal.pitch
    err_yaw = pose_meas.gimbal.yaw - pose_true.gimbal.yaw
    rounds = 0
    while True:
        noisy = min(max(det.confidence + _conf_noise(
            config.seed, frame_idx, det_idx, rounds,
            config.noise.confidence_sigma), 0.0), 1.0)
        det = det.with_confidence(noisy)
        action = reacquisition_decision(det, frame_area,
                                        config.reacquisition, rounds)
        if action == "accept":
            if rounds > 0:
                trace.reacq_confirms += 1
            return det, pose_meas
        if action == "reject":
            return None
        # Re-acquire: re-point the gimbal along the target's line of sight
        # and render a fresh, centered view at the same station.
        trace.reacq_rounds += 1
        rounds += 1
        rot = camera_to_world_rotation(pose_true.gimbal)
        gimbal = repoint(pose_true.gimbal,
                         rot @ backproject(*det.bbox.center, intr))
        pose_true = replace(pose_true, gimbal=gimbal)
        pose_meas = replace(pose_meas, gimbal=Attitude(
            pitch=gimbal.pitch + err_pitch, yaw=gimbal.yaw + err_yaw))
        frame = render_frame(defects, pose_true, intr, config.render,
                             speed=0.0)  # hover during re-acquisition
        redetections = detect(frame, config.detector)
        if not redetections:
            return None
        det = min(redetections, key=lambda d: math.hypot(
            d.bbox.center[0] - intr.cx, d.bbox.center[1] - intr.cy))


def project_confirmed(det: Detection, pose_meas: FramePose,
                      packet: SensorPacket, config: MissionConfig,
                      start: datetime, trace: MissionTrace):
    """Project stage: the detection's footprint from the measured pose, or
    None (counted in ``trace.projection_failed``) when a corner ray does
    not reach the ground or the point below the pose is past a pole or the
    tangent plane. The pose altitude is the camera's height above the
    plant, as in :func:`render_frame`."""
    origin = config.plant.origin
    media = f"sim://{config.site_id}/{packet.frame_id}"
    try:
        ground = GeoPoint(*tangent_point(origin.lat, origin.lon,
                                         pose_meas.east, pose_meas.north))
        return project_detection(
            det, config.camera, ground, pose_meas.altitude,
            pose_meas.gimbal, frame_id=packet.frame_id,
            timestamp=_ts_utc(start, packet.pose_true.time_s),
            media_rgb=f"{media}.jpg", media_tiff=f"{media}.tif")
    except (ProjectionError, GeodesyError):
        trace.projection_failed += 1
        return None


def match_ground_truth(projections, defects, radius: float) -> list:
    """Match stage, a stand-in for the classifier head: each projection
    within the radius of a defect takes that defect's class."""
    gt_indices = nearest_ground_truth([p.centroid for p in projections],
                                      defects, radius)
    return [p if gi is None else replace(p, detection=replace(
                p.detection, class_id=defects[gi].class_id))
            for p, gi in zip(projections, gt_indices)]


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _fly(config: MissionConfig, defects, poses, start: datetime, lo: int,
         hi: int) -> MissionTrace:
    """Sense -> detect -> confirm -> project -> match over the frames
    ``poses[lo:hi]``, each numbered by its index in the whole flight. Returns
    the range's counters and matched projections in a MissionTrace without
    config or defects, which the caller has and a worker need not send."""
    trace = MissionTrace(config=None, defects=None)
    for frame_idx, packet in enumerate(simulate_frames(
            defects, poses[lo:hi], config.camera, config.noise,
            config.render, config.flight.speed, config.seed, lo), lo):
        trace.frames += 1
        for det_idx, det in detect_frame(packet, frame_idx, config, trace):
            confirmed = confirm_detection(det, packet, frame_idx, det_idx,
                                          config, defects, trace)
            if confirmed is None:
                continue
            projected = project_confirmed(*confirmed, packet, config, start,
                                          trace)
            if projected is not None:
                trace.accepted.append(projected)
    trace.accepted = match_ground_truth(trace.accepted, defects,
                                        config.match_radius_m)
    return trace


def _forked_map(fn, calls) -> list:
    """``[fn(*args) for args in calls]``, with ``calls[0]`` run here and each
    other call in an ``os.fork`` child that pickles its result or exception
    (as a RuntimeError with its message if it does not survive pickling)
    into a pipe. A child's exception is raised here. No child outlives the
    call, which kills and reaps those left when it fails, nor this process,
    which a signal can end before any ``finally``: each child asks for
    SIGKILL when its parent dies. Fork, as a spawned child would take longer
    to import the package than a 40x40 plant's range takes to fly; the only
    other threads, OpenBLAS's pool, are stopped by its own fork handler."""
    parent = os.getpid()
    pipes = {}  # child pid -> read end of its result pipe, until reaped
    try:
        for args in calls[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                try:
                    prctl = ctypes.CDLL(None).prctl
                    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
                    prctl.restype = ctypes.c_int
                    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
                    if os.getppid() != parent:
                        os._exit(1)
                    for fd in (read_fd, *pipes.values()):
                        os.close(fd)
                    try:
                        payload = pickle.dumps((True, fn(*args)))
                    except BaseException as exc:
                        try:
                            payload = pickle.dumps((False, exc))
                            pickle.loads(payload)
                        except Exception:
                            payload = pickle.dumps(
                                (False, RuntimeError(str(exc))))
                    with open(write_fd, "wb") as pipe:
                        pipe.write(payload)
                finally:
                    os._exit(0)
            os.close(write_fd)
            pipes[pid] = read_fd
        results = [fn(*calls[0])]
        for pid in list(pipes):
            # Read to EOF first: a result can be larger than the pipe buffer.
            with open(pipes[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            os.close(pipes.pop(pid))
            if not data:
                raise RuntimeError(f"a worker exited with wait status "
                                   f"{status} and no result")
            ok, result = pickle.loads(data)
            if not ok:
                raise result
            results.append(result)
    finally:
        for pid, read_fd in pipes.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)
    return results


def _fly_ranges(config: MissionConfig, defects, poses,
                start: datetime) -> MissionTrace:
    """``_fly`` over the whole flight, one contiguous frame range per usable
    CPU (at most one per frame) in ``_forked_map``. The output cannot depend
    on the cut: every noise stream is keyed by seed, frame and detection
    index, each projection is matched on its own, and the range traces are
    added up in frame order, every field but config and defects."""
    w = min(_usable_cpus(), len(poses))
    cuts = [len(poses) * i // w for i in range(w + 1)]
    trace = MissionTrace(config=config, defects=defects)
    for part in _forked_map(_fly, [
            (config, defects, poses, start, cuts[i], cuts[i + 1])
            for i in range(w)]):
        for f in fields(MissionTrace):
            if f.name not in ("config", "defects"):
                setattr(trace, f.name,
                        getattr(trace, f.name) + getattr(part, f.name))
    return trace


def run_mission(config: MissionConfig):
    """Plan -> fly (sense -> detect -> confirm -> project -> match, per frame
    range in forked workers) -> dedup -> report. Returns (trace, report),
    the same bytes for any number of workers."""
    defects = generate_plant(config.seed, config.plant, config.defects)
    poses = plan_flight(config.plant, config.flight, config.camera)
    start = parse_ts_utc(config.start_utc)
    trace = _fly_ranges(config, defects, poses, start)
    trace.events = deduplicate(trace.accepted, config.dedup)
    report = build_report(config.site_id, config.uav,
                          _ts_utc(start, poses[-1].time_s), trace.events)
    trace.payload_bytes = len(to_json(report))
    return trace, report


def evaluate(trace: MissionTrace) -> MetricsReport:
    defects = trace.defects
    radius = trace.config.match_radius_m

    near = neighbours_within([e.centroid for e in trace.events], radius,
                             [d.position for d in defects])
    matched = {i for event, found in zip(trace.events, near)
               for i, _ in found if defects[i].class_id == event.class_id}
    small = [i for i, d in enumerate(defects) if d.is_small]
    recall = len(matched) / len(defects) if defects else 1.0
    recall_small = (len(matched & set(small)) / len(small)) if small else 1.0

    return MetricsReport(
        recall=recall,
        recall_small=recall_small,
        dup_fp_raw=dup_fp_rate(trace.accepted, defects, radius),
        dup_fp_dedup=dup_fp_rate(trace.events, defects, radius),
        event_count=len(trace.events),
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
