"""Simulator tests. The culled, windowed renderer and the grid defect placer
are held bit-equal to the straightforward versions kept below as oracles:
every blob added over the full raster, and an O(n^2) scan of the placed
defects on every attempt. The renderer's ground-box index is held to the
full-set cull in oracles.py."""

import math
import os
import tracemalloc
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from pvpipeline.dedup import duplicate_rate, nearest
from pvpipeline.detector import Detection
from pvpipeline.geodesy import GeoPoint, neighbours_within, point_columns
from pvpipeline.reacquisition import Attitude, CameraIntrinsics, \
    backproject, camera_to_world_rotation, repoint
from pvpipeline.simulator import (_STREAM_CONF, _STREAM_MISS, _STREAM_PLANT,
                                  _STREAM_POSE, DefectMix, FlightPlan,
                                  FramePose, MissionConfig,
                                  MissionTrace, PlacementError,
                                  PlantLayout, RenderModel,
                                  Scene, SensorPacket, SimulationError,
                                  SyntheticDetectorNoise, _in_view,
                                  _keyed_rng,
                                  confirm_detection,
                                  coverage_multiplicity, detect_frame,
                                  evaluate, footprint, frame_view,
                                  generate_plant, metrics_csv, plan_flight,
                                  project_confirmed, render_frame,
                                  run_mission, sense_frame, sweep_csv)
from pvpipeline.telemetry import parse_ts_utc

from oracles import haversine_distance, maybe_in_view

ORIGIN = GeoPoint(lat=49.4070, lon=26.9840)
LAYOUT = PlantLayout(origin=ORIGIN)
INTR = CameraIntrinsics(fx=100.0, fy=100.0, cx=39.5, cy=31.5,
                        width=80, height=64)


# ---------------------------------------------------------------------------
# Plant generation
# ---------------------------------------------------------------------------

def test_generate_plant_deterministic():
    a = generate_plant(5, LAYOUT)
    b = generate_plant(5, LAYOUT)
    assert len(a) == len(b) == 8
    for da, db in zip(a, b):
        assert da == db
    c = generate_plant(6, LAYOUT)
    assert any(da.position != dc.position for da, dc in zip(a, c))


def test_generate_plant_respects_mix_constraints():
    mix = DefectMix(count=6, n_small=2, min_separation_m=2.0)
    defects = generate_plant(3, LAYOUT, mix)
    assert len(defects) == 6
    assert sum(d.is_small for d in defects) == 2
    assert len({d.module for d in defects}) == 6  # distinct modules
    for i, a in enumerate(defects):
        for b in defects[i + 1:]:
            assert haversine_distance(a.position, b.position) >= 2.0
    for d in defects:
        lo, hi = (mix.small_excess_range_c if d.is_small
                  else mix.excess_range_c)
        assert lo <= d.peak_excess_c <= hi


def test_generate_plant_density_statistics():
    # With count=None the per-module defect probability is `density`;
    # over 100 seeds the total count behaves binomially.
    mix = DefectMix(count=None, density=0.05, n_small=0,
                    min_separation_m=0.0)
    counts = [len(generate_plant(s, LAYOUT, mix)) for s in range(100)]
    mean = np.mean(counts)
    expected = 100 * 0.05  # 100 modules
    # 4-sigma band of the binomial sample mean.
    sigma = math.sqrt(100 * 0.05 * 0.95) / math.sqrt(100)
    assert abs(mean - expected) < 4 * sigma


def test_generate_plant_infeasible_separation_raises():
    with pytest.raises(SimulationError):
        generate_plant(0, LAYOUT, DefectMix(count=50, min_separation_m=5.0))


def _placement_oracle(seed, layout, mix):
    """generate_plant's rejection loop with an O(n^2) scan of the placed
    defects on every attempt: (row, col, east, north) per defect. It has no
    attempt cap, so it is only run on plants that can be placed."""
    rng = np.random.default_rng([seed, _STREAM_PLANT])
    n_modules = layout.rows * layout.cols
    target = (mix.count if mix.count is not None
              else int(rng.binomial(n_modules, mix.density)))
    chosen = []
    while len(chosen) < target:
        r = int(rng.integers(layout.rows))
        c = int(rng.integers(layout.cols))
        if any(m[0] == r and m[1] == c for m in chosen):
            continue
        off_e = float(rng.uniform(0.2, 0.8)) * layout.module_size[0]
        off_n = float(rng.uniform(0.2, 0.8)) * layout.module_size[1]
        east = c * layout.pitch[0] + off_e
        north = r * layout.pitch[1] + off_n
        if any(math.hypot(east - m[2], north - m[3]) < mix.min_separation_m
               for m in chosen):
            continue
        chosen.append((r, c, east, north))
    return chosen


@pytest.mark.parametrize("rows,cols,pitch", [(20, 20, (1.0, 1.0)),
                                             (9, 31, (1.7, 0.6))])
@pytest.mark.parametrize("density,separation", [
    (0.08, -1.0), (0.08, 0.0), (0.25, 0.3), (0.25, 1.0), (0.02, 2.5),
    (0.08, 2.5), (0.08, 3.0), (0.05, 4.0)])
def test_generate_plant_grid_equals_quadratic_placement(rows, cols, pitch,
                                                        density, separation):
    layout = PlantLayout(origin=ORIGIN, rows=rows, cols=cols, pitch=pitch)
    mix = DefectMix(count=None, density=density, n_small=1,
                    min_separation_m=separation)
    for seed in range(4):
        defects = generate_plant(seed, layout, mix)
        assert [(*d.module, d.east, d.north) for d in defects] == \
            _placement_oracle(seed, layout, mix)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5])
@pytest.mark.parametrize("key", [(_STREAM_PLANT,), (_STREAM_POSE, 0),
                                 (_STREAM_MISS, 2 ** 31, 0),
                                 (_STREAM_CONF, 0, 2 ** 31, 3)])
def test_keyed_rng_has_the_state_of_default_rng_on_the_key_list(seed, key):
    # Every noise stream's generator, seeds of two and three words included.
    assert _keyed_rng(seed, *key).bit_generator.state == \
        np.random.default_rng([seed, *key]).bit_generator.state


def test_generate_plant_attempt_cap_scales_with_the_target():
    # Placing these 2,646 defects takes 20,181 attempts, past a fixed cap
    # of 20,000.
    layout = PlantLayout(origin=ORIGIN, rows=180, cols=180)
    defects = generate_plant(0, layout, DefectMix(count=None, density=0.08))
    assert len(defects) == 2646


# ---------------------------------------------------------------------------
# Flight planning
# ---------------------------------------------------------------------------

def test_footprint_closed_form():
    fp = footprint(FlightPlan(altitude=10.0), INTR)
    assert fp == pytest.approx((10.0 * 80 / 100.0, 10.0 * 64 / 100.0))


def test_coverage_multiplicity_values():
    assert coverage_multiplicity(0.0) == 1
    assert coverage_multiplicity(0.5) == 2
    assert coverage_multiplicity(0.7) == 4


def test_plan_flight_covers_plant_with_multiplicity():
    plan = FlightPlan(altitude=10.0, along_overlap=0.7, cross_overlap=0.3)
    poses = plan_flight(LAYOUT, plan, INTR)
    fp_e, fp_n = footprint(plan, INTR)
    need = coverage_multiplicity(plan.along_overlap)
    ext_e, ext_n = LAYOUT.extent
    rng = np.random.default_rng(0)
    for _ in range(200):
        e = float(rng.uniform(0.0, ext_e))
        n = float(rng.uniform(0.0, ext_n))
        hits = sum(1 for p in poses
                   if abs(p.east - e) <= fp_e / 2.0
                   and abs(p.north - n) <= fp_n / 2.0)
        assert hits >= need


def test_plan_flight_serpentine_and_timestamps():
    poses = plan_flight(LAYOUT, FlightPlan(speed=2.0), INTR)
    assert poses[0].time_s == 0.0
    times = [p.time_s for p in poses]
    assert times == sorted(times)
    # Distance/speed bookkeeping: total time equals path length over speed.
    path = sum(math.hypot(b.east - a.east, b.north - a.north)
               for a, b in zip(poses, poses[1:]))
    assert times[-1] == pytest.approx(path / 2.0)
    # Serpentine: consecutive lines run in opposite along-track directions.
    lines = {}
    for p in poses:
        lines.setdefault(round(p.east, 6), []).append(p.north)
    ordered = [lines[e] for e in sorted(lines)]
    assert len(ordered) >= 2
    for a, b in zip(ordered, ordered[1:]):
        assert (a[1] > a[0]) != (b[1] > b[0])


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _nadir_pose(east, north, alt=10.0):
    return FramePose(east=east, north=north, altitude=alt,
                     gimbal=Attitude(pitch=-math.pi / 2.0), time_s=0.0)


def _render_frame_oracle(defects, pose, intr, render, speed):
    """Every blob that passes the camera-z and 4-sigma tests, added over
    the full raster in defect order."""
    rot = camera_to_world_rotation(pose.gimbal)
    img = np.full((intr.height, intr.width), render.ambient_c)
    vv, uu = np.mgrid[0:intr.height, 0:intr.width].astype(np.float64)
    r_max = math.hypot(intr.cx, intr.cy)
    gsd = pose.altitude / intr.fx
    blur_px = speed * render.exposure_s / gsd
    for d in defects:
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
        img += peak * np.exp(-((uu - u0) ** 2 + (vv - v0) ** 2)
                             / (2.0 * sigma_px ** 2))
    return img


# The attributes render_frame reads from a defect.
_Blob = namedtuple("_Blob", "north east sigma_m peak_excess_c")

_INTRINSICS = [INTR, CameraIntrinsics(fx=140.0, fy=90.0, cx=20.3, cy=17.8,
                                      width=41, height=33)]


def _ray_to_ground(pose, rot, intr, u, v):
    """(north, east, depth) where the ray through pixel (u, v) meets the
    ground, or None when the ray does not point down."""
    w = rot @ np.array([(u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy, 1.0])
    if w[2] <= 1e-6:
        return None
    t = pose.altitude / w[2]
    return pose.north + t * w[0], pose.east + t * w[1], t


@st.composite
def render_scenes(draw):
    """(defects, pose, intrinsics, render model, speed). The gimbal is
    nadir, oblique, near the horizon, or re-pointed from nadir at a pixel
    of the raster as re-acquisition does. Besides defects scattered up to
    300 altitudes from the camera, some sit where the ray through a pixel
    just past the raster edge meets the ground, with sigma set so that the
    4-sigma margin reaches that pixel times 1 -/+ a few ulps to 1e-6. In
    half the scenes the altitude puts a defect on one pixel's ray at camera
    z = 0.1 m, give or take as much."""
    intr = draw(st.sampled_from(_INTRINSICS))
    nadir = Attitude(pitch=-math.pi / 2.0)
    gimbal = draw(st.sampled_from([
        nadir,
        Attitude(pitch=-math.pi / 2.0 + draw(st.floats(-0.2, 0.2)),
                 yaw=draw(st.floats(-math.pi, math.pi))),
        Attitude(pitch=draw(st.floats(-1.5, -0.3)),
                 yaw=draw(st.floats(-math.pi, math.pi))),
        Attitude(pitch=draw(st.floats(-0.6, 0.3)),
                 yaw=draw(st.floats(-math.pi, math.pi))),
        repoint(nadir, camera_to_world_rotation(nadir) @ backproject(
            draw(st.floats(0.0, intr.width)),
            draw(st.floats(0.0, intr.height)), intr))]))
    rot = camera_to_world_rotation(gimbal)
    altitude = draw(st.floats(1.0, 40.0))
    pose = FramePose(east=draw(st.floats(-20.0, 20.0)),
                     north=draw(st.floats(-20.0, 20.0)), altitude=altitude,
                     gimbal=gimbal, time_s=0.0)
    nudge = st.sampled_from([-1e-6, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-6])
    defects = []
    if draw(st.booleans()):
        u = draw(st.floats(0.0, intr.width - 1.0))
        v = draw(st.floats(0.0, intr.height - 1.0))
        w = rot @ np.array([(u - intr.cx) / intr.fx,
                            (v - intr.cy) / intr.fy, 1.0])
        if w[2] > 1e-3:
            pose = replace(pose, altitude=0.1 * w[2] * (1.0 + draw(nudge)))
            north, east, _ = _ray_to_ground(pose, rot, intr, u, v)
            defects.append(_Blob(north=north, east=east,
                                 sigma_m=draw(st.floats(0.001, 0.05)),
                                 peak_excess_c=draw(st.floats(0.5, 12.0))))
    for kind in draw(st.lists(st.sampled_from(["scatter", "edge"]),
                              max_size=12)):
        peak = draw(st.floats(0.5, 12.0))
        if kind == "scatter":
            reach = pose.altitude * draw(
                st.sampled_from([3.0, 30.0, 300.0])) + 5.0
            defects.append(_Blob(
                north=pose.north + draw(st.floats(-reach, reach)),
                east=pose.east + draw(st.floats(-reach, reach)),
                sigma_m=draw(st.floats(0.01, 1.5)), peak_excess_c=peak))
            continue
        k = draw(st.floats(0.05, 25.0))
        u, v = draw(st.sampled_from([
            (-k, draw(st.floats(0.0, intr.height - 1.0))),
            (intr.width + k, draw(st.floats(0.0, intr.height - 1.0))),
            (draw(st.floats(0.0, intr.width - 1.0)), -k),
            (draw(st.floats(0.0, intr.width - 1.0)), intr.height + k)]))
        hit = _ray_to_ground(pose, rot, intr, u, v)
        if hit is None:
            continue
        north, east, t = hit
        sigma_m = k * (1.0 + draw(nudge)) * t / (4.0 * intr.fx)
        defects.append(_Blob(north=north, east=east, sigma_m=sigma_m,
                             peak_excess_c=peak))
    render = RenderModel(
        ambient_c=draw(st.sampled_from([25.0, 0.5, 1000.0, -3.0, 0.0,
                                        5e-324])),
        psf_px=draw(st.floats(0.0, 2.0)),
        vignette=draw(st.sampled_from([0.0, 0.6, 0.999999999999999, 1.0])),
        exposure_s=0.025)
    return defects, pose, intr, render, draw(st.floats(0.0, 10.0))


@settings(max_examples=300)
@given(render_scenes())
def test_render_frame_equals_full_raster_oracle(scene):
    defects, *view = scene
    temp = render_frame(Scene.of(defects), *view)
    assert np.array_equal(temp.temp_c, _render_frame_oracle(*scene))


@settings(max_examples=300)
@given(render_scenes())
def test_in_view_holds_every_defect_the_full_set_cull_keeps(scene):
    defects, pose, intr, _, _ = scene
    rot = camera_to_world_rotation(pose.gimbal)
    picked = _in_view(Scene.of(defects), pose, rot, intr)
    assert list(picked) == sorted(set(picked))  # defect order
    kept = {id(d) for d in maybe_in_view(defects, pose, rot, intr)}
    assert kept <= {id(defects[i]) for i in picked}


def test_in_view_takes_a_nadir_frames_footprint_from_a_large_plant():
    # From 10 m the raster's edges lie 3.95 to 4.05 m east or west and 3.15
    # to 3.25 m north or south of the pose. The candidates are the defects
    # of that footprint grown by 4 sigma, not the plant's.
    layout = PlantLayout(origin=ORIGIN, rows=40, cols=40)
    scene = Scene.of(generate_plant(3, layout, DefectMix(count=None)))
    pose = _nadir_pose(20.0, 20.0)
    picked = _in_view(scene, pose, camera_to_world_rotation(pose.gimbal),
                      INTR)
    reach = 4.0 * scene.max_sigma_m

    def within(d, half_e, half_n):
        return (abs(d.east - pose.east) <= half_e + reach
                and abs(d.north - pose.north) <= half_n + reach)

    inner = [i for i, d in enumerate(scene.defects)
             if within(d, 3.95 - 1e-6, 3.15 - 1e-6)]
    outer = [i for i, d in enumerate(scene.defects)
             if within(d, 4.05 + 1e-3, 3.25 + 1e-3)]
    assert len(scene.defects) > 100 and len(inner) > 0
    assert set(inner) <= set(picked) <= set(outer)


def test_render_frame_skips_a_blob_whose_window_misses_the_raster():
    # A blob 9 px past a corner passes the 4-sigma test (sigma 2.5 px), but
    # the vignette leaves it a peak of about 9e-15 C, whose 7.1 px window
    # ends before the raster. It must add nothing, not wrap the slice to
    # the far edge.
    pose = _nadir_pose(0.0, 0.0)
    north, east, _ = _ray_to_ground(
        pose, camera_to_world_rotation(pose.gimbal), INTR, -9.0, -9.0)
    defects = [_Blob(north=north, east=east, sigma_m=0.25, peak_excess_c=8.0)]
    scene = (defects, pose, INTR,
             RenderModel(psf_px=0.0, vignette=0.999999999999999), 0.0)
    temp = render_frame(Scene.of(defects), *scene[1:])
    assert np.array_equal(temp.temp_c, _render_frame_oracle(*scene))


@pytest.mark.parametrize("ambient_c,first_peak", [(-3.0, 3.0), (3.0, -3.0)])
def test_render_frame_sums_every_tail_near_zero(ambient_c, first_peak):
    # The first blob takes the pixels beside the principal point to about
    # -/+0.03 C, where an ulp is 3.5e-18. There the second blob adds
    # 5.2e-18, 45.5 px from its centre: past the 45.2 px radius that
    # ulp(3) would give it, yet enough to move those pixels. Scenes like
    # these must take the full raster.
    defects = [_Blob(north=0.0, east=0.0, sigma_m=0.5,
                     peak_excess_c=first_peak),
               _Blob(north=0.0, east=4.5, sigma_m=0.5, peak_excess_c=5.0)]
    scene = (defects, _nadir_pose(0.0, 0.0), INTR,
             RenderModel(ambient_c=ambient_c, psf_px=0.0, vignette=0.0), 0.0)
    assert np.array_equal(render_frame(Scene.of(defects), *scene[1:]).temp_c,
                          _render_frame_oracle(*scene))


def test_render_no_defects_is_flat_ambient():
    temp = render_frame(Scene.of([]), _nadir_pose(5.0, 5.0), INTR,
                        RenderModel(), speed=0.0)
    assert np.all(temp.temp_c == 25.0)


def test_render_nadir_defect_peaks_at_principal_point():
    defects = generate_plant(1, LAYOUT, DefectMix(count=1, n_small=0))
    d = defects[0]
    temp = render_frame(Scene.of(defects), _nadir_pose(d.east, d.north),
                        INTR, RenderModel(), speed=0.0)
    v, u = np.unravel_index(np.argmax(temp.temp_c), temp.temp_c.shape)
    assert abs(u - INTR.cx) <= 1.0
    assert abs(v - INTR.cy) <= 1.0
    assert temp.temp_c.max() > 25.0 + 2.0


def test_render_attenuations_are_monotone():
    defects = generate_plant(1, LAYOUT, DefectMix(count=1, n_small=0))
    d = defects[0]

    def peak(alt=10.0, speed=0.0, de=0.0):
        temp = render_frame(Scene.of(defects),
                            _nadir_pose(d.east + de, d.north, alt),
                            INTR, RenderModel(), speed=speed)
        return float(temp.temp_c.max() - 25.0)

    assert peak(alt=15.0) < peak(alt=10.0) < peak(alt=5.0)   # integration
    assert peak(speed=10.0) < peak(speed=2.0) < peak(speed=0.0)  # blur
    assert peak(de=2.5) < peak(de=0.0)                       # vignetting


def test_simulate_frames_pose_noise_and_determinism():
    config = MissionConfig(seed=9, plant=LAYOUT, camera=INTR,
                           noise=SyntheticDetectorNoise(pos_sigma_m=0.2))
    scene = Scene.of(generate_plant(2, LAYOUT, DefectMix(count=2, n_small=0)))
    poses = plan_flight(LAYOUT, FlightPlan(), INTR)[:3]
    a = [sense_frame(config, scene, pose, k) for k, pose in enumerate(poses)]
    b = [sense_frame(config, scene, pose, k) for k, pose in enumerate(poses)]
    assert [p.frame_id for p in a] == ["f0000", "f0001", "f0002"]
    for pa, pb in zip(a, b):
        assert pa.pose_meas == pb.pose_meas
        assert np.array_equal(pa.temp.temp_c, pb.temp.temp_c)
    # Frames render from the true pose; only the measured pose is noisy.
    assert [p.pose_true for p in a] == poses
    assert any(p.pose_meas.east != p.pose_true.east for p in a)
    clean = replace(config, noise=SyntheticDetectorNoise())
    for k, (pose, pa) in enumerate(zip(poses, a)):
        pc = sense_frame(clean, scene, pose, k)
        assert np.array_equal(pa.temp.temp_c, pc.temp.temp_c)


def test_simulate_frames_renders_only_what_is_consumed(monkeypatch):
    from pvpipeline import simulator
    config = MissionConfig(seed=9, plant=LAYOUT, camera=INTR)
    scene = Scene.of(generate_plant(2, LAYOUT, DefectMix(count=2, n_small=0)))
    poses = plan_flight(LAYOUT, FlightPlan(), INTR)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return render_frame(*args, **kwargs)

    monkeypatch.setattr(simulator, "render_frame", counted)
    # One call renders its own true pose, once, and nothing of the rest.
    first = sense_frame(config, scene, poses[0], 0)
    assert calls == [poses[0]]
    assert first.pose_true == poses[0]


# ---------------------------------------------------------------------------
# End-to-end missions
# ---------------------------------------------------------------------------

def test_noiseless_mission_finds_every_defect_once(monkeypatch, tmp_path):
    from pvpipeline import simulator
    from pvpipeline.telemetry import to_json
    # Frame ranges may render in forked workers, so each render appends a
    # byte to a shared file rather than to a list in one process.
    log = os.open(tmp_path / "renders", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def counted(*args, **kwargs):
        os.write(log, b".")
        return render_frame(*args, **kwargs)

    monkeypatch.setattr(simulator, "render_frame", counted)
    config = MissionConfig(seed=1)
    try:
        trace, report = run_mission(config)
    finally:
        os.close(log)
    views = (tmp_path / "renders").read_bytes()
    metrics = evaluate(trace)
    assert metrics.gt_count == 8
    assert metrics.event_count == 8
    assert metrics.recall == 1.0
    assert metrics.dup_fp_dedup == 0.0
    assert len(report.detections) == 8
    # Every rendered view, survey frame or re-acquisition round, is one
    # 80x64 frame of 16-bit thermal plus 3x8-bit RGB.
    assert trace.reacq_rounds > 0
    assert trace.raw_bytes == len(views) * 80 * 64 * 5
    assert trace.payload_bytes == len(to_json(report)) > 0
    assert metrics.bandwidth_savings == \
        1.0 - trace.payload_bytes / trace.raw_bytes


def test_mission_is_deterministic():
    config = MissionConfig(seed=4)
    _, report_a = run_mission(config)
    _, report_b = run_mission(config)
    from pvpipeline.telemetry import to_json
    assert to_json(report_a) == to_json(report_b)


def test_certain_miss_probability_kills_recall():
    config = replace(MissionConfig(seed=2),
                     noise=SyntheticDetectorNoise(miss_probability=1.0))
    trace, _ = run_mission(config)
    metrics = evaluate(trace)
    assert metrics.recall == 0.0
    assert metrics.event_count == 0


@settings(max_examples=15)
@given(seed=st.integers(0, 2 ** 16), rows=st.integers(3, 20),
       cols=st.integers(3, 20), density=st.floats(0.02, 0.3),
       separation=st.sampled_from([0.0, 0.5, 2.5]),
       radius=st.sampled_from([0.3, 1.0, 3.0]),
       clutter=st.floats(0.0, 2.0), pos_sigma=st.floats(0.0, 0.5),
       att_sigma=st.floats(0.0, 0.03))
def test_match_stage_indices_count_the_raw_dup_fp(seed, rows, cols, density,
                                                  separation, radius, clutter,
                                                  pos_sigma, att_sigma):
    # A matched sighting takes its nearest defect's class, so a search of
    # the defects of its class, as evaluate's Dup-FP makes for events,
    # finds that defect again; an unmatched one has no defect within the
    # radius at all.
    config = MissionConfig(
        seed=seed, plant=replace(LAYOUT, rows=rows, cols=cols),
        defects=DefectMix(count=None, density=density,
                          min_separation_m=separation),
        noise=SyntheticDetectorNoise(clutter_rate=clutter,
                                     pos_sigma_m=pos_sigma,
                                     att_sigma_rad=att_sigma),
        match_radius_m=radius)
    try:
        trace, _ = run_mission(config)
    except PlacementError:
        reject()
    assert len(trace.gt_matches) == len(trace.accepted)
    sightings = trace.accepted
    defects = trace.defects
    found = neighbours_within(sightings.lat, sightings.lon, radius,
                              point_columns([d.position for d in defects]))
    assert duplicate_rate(trace.gt_matches) == duplicate_rate([
        nearest([(i, d) for i, d in near
                 if defects[i].class_id == class_id])
        for near, class_id in zip(found, sightings.class_id)])


def test_reacquired_pose_keeps_the_frames_gimbal_noise(monkeypatch):
    # The measured gimbal of a re-acquired view is the commanded gimbal
    # plus the attitude error the frame was measured with.
    from pvpipeline import simulator
    config = replace(MissionConfig(seed=0),
                     noise=SyntheticDetectorNoise(att_sigma_rad=0.02))
    scene = Scene.of(generate_plant(config.seed, config.plant,
                                    config.defects))
    poses = plan_flight(config.plant, config.flight, config.camera)
    rendered = []

    def recording(scene, pose, *args, **kwargs):
        rendered.append(pose)
        return render_frame(scene, pose, *args, **kwargs)

    monkeypatch.setattr(simulator, "render_frame", recording)
    trace = MissionTrace(config=config, defects=scene.defects)
    checked = 0
    for frame_idx in range(len(poses)):
        packet = sense_frame(config, scene, poses[frame_idx], frame_idx)
        err_pitch = packet.pose_meas.gimbal.pitch - packet.pose_true.gimbal.pitch
        err_yaw = packet.pose_meas.gimbal.yaw - packet.pose_true.gimbal.yaw
        for det_idx, det in detect_frame(packet, frame_idx, config, trace):
            rendered.clear()
            confirmed = confirm_detection(det, packet, frame_idx, det_idx,
                                          config, scene, trace)
            if confirmed is None or not rendered:
                continue
            commanded = rendered[-1].gimbal
            measured = confirmed[1]
            assert measured.pitch == pytest.approx(commanded.pitch + err_pitch,
                                                   abs=1e-12)
            assert measured.yaw == pytest.approx(commanded.yaw + err_yaw,
                                                 abs=1e-12)
            assert (err_pitch, err_yaw) != (0.0, 0.0)
            checked += 1
    assert checked > 0


def test_project_stage_counts_a_pose_past_the_pole_as_failed():
    # Pose noise can carry the measured pose past the pole, where the point
    # below it has no latitude: one such detection is dropped and counted.
    config = replace(MissionConfig(seed=0), plant=PlantLayout(
        origin=GeoPoint(lat=89.999, lon=0.0)))
    trace = MissionTrace(config=config, defects=[])
    det = Detection(x_min=38.0, y_min=30.0, x_max=41.0, y_max=33.0,
                    class_id="hotspot", confidence=0.9, peak_temp_c=35.0)
    start = parse_ts_utc(config.start_utc)
    for north, projected in ((5.0, True), (200.0, False)):
        pose = _nadir_pose(5.0, north)
        packet = SensorPacket(frame_id="f0000", pose_true=pose,
                              pose_meas=pose, temp=None)
        view = frame_view(packet, config, start)
        assert (view is not None) == projected
        result = project_confirmed(det, None, view, trace)
        assert (result is not None) == projected
    assert trace.projection_failed == 1


def test_sweep_shapes_and_csv():
    config = MissionConfig(seed=0)
    rows = [(eps, evaluate(run_mission(replace(
        config, dedup=replace(config.dedup, epsilon=eps)))[0]))
        for eps in (0.5, 1.0)]
    text = sweep_csv("epsilon", rows)
    lines = text.strip().split("\n")
    assert lines[0].startswith("epsilon,recall,")
    assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "1"]
    assert metrics_csv(rows[1][1]).count("\n") == 2


def test_layout_validation():
    with pytest.raises(SimulationError):
        PlantLayout(origin=ORIGIN, rows=0)
    with pytest.raises(SimulationError):
        PlantLayout(origin=ORIGIN, pitch=(0.5, 1.0))  # smaller than module
    with pytest.raises(SimulationError):
        FlightPlan(along_overlap=1.0)


def test_layout_with_a_nan_pitch_or_module_size_raises():
    # NaN compares False both ways, so a `<= 0` or `<` check lets it by,
    # and plan_flight would fail converting a NaN line count to int.
    for key in ("pitch", "module_size"):
        for at in (0, 1):
            value = list(getattr(LAYOUT, key))
            value[at] = math.nan
            with pytest.raises(SimulationError):
                replace(LAYOUT, **{key: tuple(value)})


def test_a_flight_peaks_at_most_1000_bytes_a_sighting(tmp_path):
    # A 30x30 plant's 120 frames in one range: the table grows frame by
    # frame, held in flat columns, and the lines go to their file as they
    # are made. With a row list and the lines held as text, the range
    # peaked at about 2,500 bytes a sighting here and held 1,230 after;
    # now about 710 and 480.
    from pvpipeline.config import config_from_dict
    from pvpipeline.simulator import _fly
    config = config_from_dict({"seed": 1, "plant": {"rows": 30, "cols": 30},
                               "defects": {"count": None, "density": 0.08}})
    scene = Scene.of(generate_plant(config.seed, config.plant,
                                    config.defects))
    poses = plan_flight(config.plant, config.flight, config.camera)
    path = tmp_path / "detections.jsonl"
    with open(path, "wb") as lines:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trace = _fly(config, scene, poses,
                         parse_ts_utc(config.start_utc), 0, len(poses), lines)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    n = len(trace.accepted)
    assert n > 300
    assert path.read_bytes().count(b"\n") == n
    assert peak - base <= 1000 * n, (peak - base) / n
    assert held - base <= 600 * n, (held - base) / n
