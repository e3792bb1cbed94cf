"""End-to-end acceptance suite.

Each test maps to one numbered acceptance criterion; the operational
criteria assert trends and bounds on the deterministic simulator, the
property-based criteria assert numeric tolerances against independent
oracles. Wall-clock guards keep the suite desk-scale.
"""

import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np

from pvpipeline.cli import main as cli_main, run_fuse_check
from pvpipeline.dedup import NOISE, dbscan_labels
from pvpipeline.fusion import FusionModel, LossWeights, make_toy_samples, \
    train_toy
from pvpipeline.geodesy import (MEAN_EARTH_RADIUS_M, GeoPoint,
                                point_columns, tangent_offsets, tangent_point)
from pvpipeline.reacquisition import (Attitude, AxisAngle, CameraIntrinsics,
                                      backproject, camera_to_world_rotation,
                                      repoint, rodrigues_rotate,
                                      solve_axis_angle)
from pvpipeline.simulator import (DefectMix, MissionConfig, evaluate,
                                  run_mission)
from pvpipeline.telemetry import to_json

from oracles import axis_angle_matrix, haversine_distance, palette_spread

GRAD_TOL = 1e-4
GOLDEN = Path(__file__).parent / "data" / "golden_report.json"


def _metrics(config: MissionConfig):
    trace, _ = run_mission(config)
    return evaluate(trace)


# ---------------------------------------------------------------------------
# 1. De-duplication collapses duplicate detections
# ---------------------------------------------------------------------------

def test_criterion_1_dedup_effect_across_20_seeds():
    start = time.monotonic()
    for seed in range(20):
        m = _metrics(MissionConfig(seed=seed))
        assert m.dup_fp_raw >= 0.5, f"seed {seed}: raw dup rate {m.dup_fp_raw}"
        assert m.dup_fp_dedup <= 0.05, \
            f"seed {seed}: dedup dup rate {m.dup_fp_dedup}"
        assert m.dup_fp_dedup <= m.dup_fp_raw
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 2. Epsilon sensitivity: overcount / exact / undercount
# ---------------------------------------------------------------------------

def test_criterion_2_epsilon_sweep_ordering():
    start = time.monotonic()
    for seed in (0, 1):
        config = replace(MissionConfig(seed=seed),
                         defects=DefectMix(count=12, n_small=0,
                                           min_separation_m=2.2))
        rows = {eps: _metrics(replace(
            config, dedup=replace(config.dedup, epsilon=eps)))
            for eps in (0.1, 0.5, 1.0, 2.0, 5.0)}
        counts = {eps: m.event_count for eps, m in rows.items()}
        gt = rows[0.1].gt_count
        assert gt == 12
        assert counts[0.1] > gt          # fragmentation overcounts
        assert counts[0.5] == gt
        assert counts[1.0] == gt
        assert counts[5.0] < gt          # over-merging undercounts
        assert counts[0.1] >= counts[0.5] >= counts[1.0] \
            >= counts[2.0] >= counts[5.0]
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 3. Relevance-only telemetry saves bandwidth
# ---------------------------------------------------------------------------

def test_criterion_3_bandwidth_savings():
    m = _metrics(MissionConfig(seed=0))
    assert m.bandwidth_savings >= 0.60


# ---------------------------------------------------------------------------
# 4. Re-acquisition improves small-target recall
# ---------------------------------------------------------------------------

def test_criterion_4_reacquisition_benefit_paired_seeds():
    start = time.monotonic()
    on_recalls, off_recalls = [], []
    for seed in range(20):
        config = MissionConfig(seed=seed)
        m_on = _metrics(config)
        m_off = _metrics(replace(config, reacquisition=replace(
            config.reacquisition, max_rounds=0)))
        assert m_on.recall_small >= m_off.recall_small, \
            f"seed {seed}: {m_on.recall_small} < {m_off.recall_small}"
        on_recalls.append(m_on.recall_small)
        off_recalls.append(m_off.recall_small)
    assert np.mean(on_recalls) > np.mean(off_recalls)
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 5. Flight-envelope trends
# ---------------------------------------------------------------------------

def test_criterion_5_altitude_and_speed_trends():
    for seed in range(3):
        config = MissionConfig(seed=seed)
        alt = [_metrics(replace(config, flight=replace(
            config.flight, altitude=a))).recall for a in (5.0, 10.0, 15.0)]
        assert alt[0] >= alt[1] >= alt[2], f"seed {seed}: altitude {alt}"
        spd = [_metrics(replace(config, flight=replace(
            config.flight, speed=v))).recall for v in (2.0, 5.0, 10.0)]
        assert spd[0] >= spd[1] >= spd[2], f"seed {seed}: speed {spd}"
        assert alt[2] < alt[0] or spd[2] < spd[0]  # the envelope does bind


# ---------------------------------------------------------------------------
# 6. Gradient suite
# ---------------------------------------------------------------------------

def test_criterion_6_gradient_suite_100_instances():
    start = time.monotonic()
    results = run_fuse_check(seed=0, dim=8, n_instances=100)
    worst = {}
    for term, err in results:
        worst[term] = max(worst.get(term, 0.0), err)
    assert set(worst) == {"palette", "gate", "focal", "giou", "composite"}
    for term, err in worst.items():
        assert err < GRAD_TOL, f"{term}: {err}"
    assert cli_main(["fuse-check"]) == 0
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 7. Palette-invariance training demo
# ---------------------------------------------------------------------------

def test_criterion_7_palette_term_collapses_spread():
    start = time.monotonic()
    batch = make_toy_samples(32, seed=7)
    held_out = batch.x_t[:8]

    model_on = FusionModel(seed=7)
    before = palette_spread(model_on, held_out)
    train_toy(batch, weights=LossWeights(lambda_pal=0.1), model=model_on)
    after_on = palette_spread(model_on, held_out)

    model_off = FusionModel(seed=7)
    train_toy(batch, weights=LossWeights(lambda_pal=0.0), model=model_off)
    after_off = palette_spread(model_off, held_out)

    assert after_on < before / 10.0
    assert after_off > before / 10.0
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# 8. Rodrigues suite
# ---------------------------------------------------------------------------

def test_criterion_8_rodrigues_and_recentering():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        axis = rng.standard_normal(3)
        aa = AxisAngle(axis=axis / np.linalg.norm(axis),
                       angle=float(rng.uniform(-math.pi, math.pi)))
        v = rng.standard_normal(3)
        assert np.max(np.abs(rodrigues_rotate(v, aa)
                             - axis_angle_matrix(aa) @ v)) < 1e-12
        assert abs(np.linalg.norm(rodrigues_rotate(v, aa))
                   - np.linalg.norm(v)) < 1e-12 * max(1.0, np.linalg.norm(v))
    for _ in range(200):
        c = rng.standard_normal(3)
        c /= np.linalg.norm(c)
        t = rng.standard_normal(3)
        t /= np.linalg.norm(t)
        aa = solve_axis_angle(c, t)
        assert np.max(np.abs(rodrigues_rotate(c, aa) - t)) < 1e-10

    # One simulated re-acquisition round: render, detect off-center,
    # re-point, re-render, and the target sits within 1 px of center.
    from pvpipeline.detector import detect
    from pvpipeline.simulator import (FramePose, PlantLayout, RenderModel,
                                      Scene, generate_plant, render_frame)

    layout = PlantLayout(origin=GeoPoint(lat=49.407, lon=26.984))
    scene = Scene.of(generate_plant(1, layout, DefectMix(count=1,
                                                         n_small=0)))
    d = scene.defects[0]
    intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=39.5, cy=31.5,
                            width=80, height=64)
    pose = FramePose(east=d.east - 2.0, north=d.north + 1.5, altitude=10.0,
                     gimbal=Attitude(pitch=-math.pi / 2.0), time_s=0.0)
    frame = render_frame(scene, pose, intr, RenderModel(), speed=0.0)
    dets = detect(frame)
    assert len(dets) == 1
    u0, v0 = dets[0].center
    assert math.hypot(u0 - intr.cx, v0 - intr.cy) > 5.0  # starts off-center

    los = camera_to_world_rotation(pose.gimbal) @ backproject(u0, v0, intr)
    repointed = replace(pose, gimbal=repoint(pose.gimbal, los))
    frame2 = render_frame(scene, repointed, intr, RenderModel(), speed=0.0)
    assert len(detect(frame2)) >= 1
    v1, u1 = np.unravel_index(np.argmax(frame2.temp_c), frame2.temp_c.shape)
    assert math.hypot(u1 - intr.cx, v1 - intr.cy) <= 1.0


# ---------------------------------------------------------------------------
# 9. Geodesy suite
# ---------------------------------------------------------------------------

def test_criterion_9_geodesy_closed_forms():
    r = MEAN_EARTH_RADIUS_M
    a = GeoPoint(lat=0.0, lon=30.0)
    b = GeoPoint(lat=1.0, lon=30.0)
    expected = r * math.pi / 180.0  # one degree of meridian arc
    assert abs(haversine_distance(a, b) - expected) / expected < 1e-9
    anti = haversine_distance(GeoPoint(lat=0.0, lon=0.0),
                              GeoPoint(lat=0.0, lon=180.0))
    assert abs(anti - math.pi * r) / (math.pi * r) < 1e-9

    origin = GeoPoint(lat=49.407, lon=26.984)
    rng = np.random.default_rng(1)
    for _ in range(100):
        off_e = float(rng.uniform(-500, 500))
        off_n = float(rng.uniform(-500, 500))
        p = GeoPoint(*tangent_point(origin.lat, origin.lon, off_e, off_n))
        east, north = tangent_offsets(origin.lat, origin.lon,
                                      [(p.lat, p.lon)])[0]
        assert abs(east - off_e) < 1e-6
        assert abs(north - off_n) < 1e-6
        # Haversine and tangent-plane distances agree under 1 km.
        flat = math.hypot(off_e, off_n)
        if flat > 1.0:
            hav = haversine_distance(origin, p)
            assert abs(hav - flat) / flat < 1e-6


# ---------------------------------------------------------------------------
# 10. DBSCAN suite
# ---------------------------------------------------------------------------

def _partition(labels, index_map=None):
    comps, noise = {}, set()
    for i, lab in enumerate(labels):
        orig = index_map[i] if index_map else i
        if lab == NOISE:
            noise.add(orig)
        else:
            comps.setdefault(lab, set()).add(orig)
    return {frozenset(c) for c in comps.values()}, noise


def test_criterion_10_dbscan_oracle_and_permutation_invariance():
    origin = GeoPoint(lat=49.407, lon=26.984)

    def pt(e, n):
        return GeoPoint(*tangent_point(origin.lat, origin.lon, e, n))

    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        points = [pt(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)))
                  for _ in range(n)]
        for epsilon in (0.25, 1.0, 2.5, 6.0):
            got = _partition(dbscan_labels(*point_columns(points), epsilon,
                                           2))
            # Brute-force oracle: for min_pts=2, clusters are exactly the
            # connected components of the epsilon-reachability graph and
            # isolated points are noise.
            adj = [[haversine_distance(points[i], points[j]) <= epsilon
                    for j in range(n)] for i in range(n)]
            unassigned = set(range(n))
            comps, noise = set(), set()
            while unassigned:
                i = unassigned.pop()
                if not any(adj[i][j] for j in range(n) if j != i):
                    noise.add(i)
                    continue
                comp, stack = {i}, [i]
                while stack:
                    k = stack.pop()
                    for j in list(unassigned):
                        if adj[k][j]:
                            unassigned.discard(j)
                            comp.add(j)
                            stack.append(j)
                comps.add(frozenset(comp))
            assert got == (comps, noise)
            # Permutation invariance of the induced partition.
            perm = list(rng.permutation(n))
            shuffled = dbscan_labels(
                *point_columns([points[i] for i in perm]), epsilon, 2)
            assert _partition(shuffled, index_map=perm) == got


# ---------------------------------------------------------------------------
# 11. Payload conformance
# ---------------------------------------------------------------------------

def test_criterion_11_payload_conformance():
    from pvpipeline.telemetry import parse_report, to_kml
    golden = GOLDEN.read_bytes()
    report = parse_report(golden)
    assert to_json(report) == golden
    obj = json.loads(golden)
    assert set(obj) == {"site_id", "uav", "ts_utc", "detections"}
    for det in obj["detections"]:
        assert set(det) == {"id", "class", "conf", "temp_C",
                            "centroid_wgs84", "polygon_wgs84", "media"}
        assert set(det["media"]) == {"rgb", "tiff"}
        assert len(det["centroid_wgs84"]) == 2
        assert all(len(p) == 2 for p in det["polygon_wgs84"])
    root = ET.fromstring(to_kml(report))  # well-formed XML
    ns = "{http://www.opengis.net/kml/2.2}"
    rings = root.findall(f".//{ns}LinearRing/{ns}coordinates")
    assert len(rings) == len(obj["detections"])
    for ring in rings:
        coords = ring.text.split()
        assert coords[0] == coords[-1]  # closed ring


# ---------------------------------------------------------------------------
# 12. Determinism of the CLI
# ---------------------------------------------------------------------------

def test_criterion_12_simulate_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 11}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "pvpipeline.cli", "simulate",
             "--config", str(config), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        outputs.append(out)
    for name in ("report.json", "report.kml", "metrics.csv"):
        assert (outputs[0] / name).read_bytes() == \
            (outputs[1] / name).read_bytes()
