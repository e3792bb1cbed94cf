"""Command-line orchestrator: simulate, dedup, fuse-check, reacquire-demo,
export-kml.

Exit codes are a stable contract: 0 ok, 1 config/usage error, 2 runtime
error, 3 verification failure. Verbosity is controlled by the
PV_PIPELINE_LOG environment variable (error | info | debug).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import tempfile
from time import perf_counter

import numpy as np

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3

GRAD_TOL = 1e-4
# fuse-check's largest --dim: its run time grows as about dim^2 (7 s at 32),
# and past about dim 40 roundoff in the gate term's step-1e-5 central
# differences exceeds GRAD_TOL, though the analytic gradient is right.
MAX_FUSE_DIM = 32

log = logging.getLogger("pvpipeline")


def _setup_logging():
    level = os.environ.get("PV_PIPELINE_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level not in levels:
        raise SystemExit(
            f"PV_PIPELINE_LOG must be one of {sorted(levels)}, got {level!r}")
    logging.basicConfig(level=levels[level],
                        format="%(levelname)s %(name)s: %(message)s")


def _write(path: str, payload) -> bool:
    """write_atomic; an OSError (say, a regular file where a directory of
    the path should be) is printed as one line, and False returned."""
    from .telemetry import write_atomic
    try:
        write_atomic(path, payload)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _file_chunks(fh, size: int = 1 << 16):
    """The bytes of the binary file ``fh``, from its start, ``size`` bytes
    at a time."""
    fh.seek(0)
    yield from iter(lambda: fh.read(size), b"")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    from .config import ConfigError, load_config

    try:
        config = load_config(args.config, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # The mission writes detections.jsonl's lines to an unnamed temporary
    # file, which the last write below copies.
    with tempfile.TemporaryFile() as lines:
        return _simulate(config, args.out, lines)


def _simulate(config, out: str, lines) -> int:
    from .simulator import PlacementError, evaluate, metrics_csv, run_mission
    from .telemetry import to_kml

    try:
        trace, report = run_mission(config, lines)
        metrics = evaluate(trace)
    except PlacementError as exc:  # its message leads with the config key
        print(f"config error: $.{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # surfaced as a runtime failure with exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        log.debug("mission failed", exc_info=True)
        return EXIT_RUNTIME

    summary = (
        f"mission {config.site_id} seed={config.seed}\n"
        f"frames={trace.frames} detections={trace.detections_seen} "
        f"accepted={len(trace.accepted)} "
        f"projection_failed={trace.projection_failed} "
        f"events={metrics.event_count} gt={metrics.gt_count}\n"
        f"recall={metrics.recall:.4f} recall_small={metrics.recall_small:.4f}\n"
        f"dup_fp_raw={metrics.dup_fp_raw:.4f} "
        f"dup_fp_dedup={metrics.dup_fp_dedup:.4f}\n"
        f"bandwidth_savings={metrics.bandwidth_savings:.4f}\n"
        f"reacq_rounds={metrics.reacq_rounds} "
        f"reacq_confirms={metrics.reacq_confirms}\n")
    outputs = {
        "report.json": trace.report_json,
        "report.kml": to_kml(report),
        "metrics.csv": metrics_csv(metrics).encode("utf-8"),
        "summary.txt": summary.encode("utf-8"),
        "detections.jsonl": _file_chunks(lines),
    }
    for name, data in outputs.items():
        if not _write(os.path.join(out, name), data):
            return EXIT_CONFIG
    sys.stdout.write(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# dedup
# ---------------------------------------------------------------------------

def cmd_dedup(args) -> int:
    from .dedup import DbscanParams, DedupError, deduplicate
    from .geodesy import GeodesyError
    from .telemetry import TelemetryError, parse_detection_record_lines, \
        records_json

    try:
        params = DbscanParams(epsilon=args.epsilon, min_pts=args.min_pts)
    except DedupError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    start = perf_counter()
    try:
        with open(args.input, "rb") as fh:
            sightings = parse_detection_record_lines(fh)
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TelemetryError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    log.info("dedup: parse %.3f s", perf_counter() - start)

    start = perf_counter()
    try:
        events = deduplicate(sightings, params)
    except GeodesyError as exc:  # sightings too far apart to merge
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    log.info("dedup: deduplicate %.3f s", perf_counter() - start)
    n_in = len(sightings)
    del sightings  # the events hold all the text needs
    start = perf_counter()
    if not _write(args.out, records_json(events)):
        return EXIT_CONFIG
    log.info("dedup: write %.3f s", perf_counter() - start)
    print(f"detections in: {n_in}  events out: {len(events)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fuse-check
# ---------------------------------------------------------------------------

def run_fuse_check(seed: int = 0, dim: int = 16, n_instances: int = 20):
    """Gradient-check suite for the loss stack. Returns a list of
    (term, max relative error)."""
    from . import fusion

    rng = np.random.default_rng(seed)
    results = []

    def check(term, closure, params):
        results.append((term, fusion.gradient_check(closure, params)))

    for _ in range(n_instances):
        # palette-invariance term
        zs = rng.standard_normal((4, dim))

        def palette_closure(p):
            loss, grad = fusion.palette_invariance_loss_grad(p.reshape(4, dim))
            return float(loss), grad.ravel()

        check("palette", palette_closure, zs.ravel())
        # gate composition
        gate_w = 0.5 * rng.standard_normal((dim, 2 * dim))
        z_bar = rng.standard_normal(dim)
        r = rng.standard_normal(dim)
        w = rng.standard_normal(dim)

        def gate_closure(p):
            # p and its gradient are [z_bar ; r], then W, then b.
            zr, gb = p[:2 * dim], p[2 * dim + 2 * dim * dim:]
            gw = p[2 * dim:2 * dim + 2 * dim * dim].reshape(dim, 2 * dim)
            u, gates = fusion.gated_fuse(zr, gw, gb)
            grad = np.empty_like(p)
            grad[:dim], grad[dim:2 * dim] = fusion.gated_fuse_backward(
                zr, gw, gates, w, grad[2 * dim:2 * dim + 2 * dim * dim]
                .reshape(dim, 2 * dim), grad[2 * dim + 2 * dim * dim:])
            return float(w @ u), grad

        check("gate", gate_closure,
              np.concatenate([z_bar, r, gate_w.ravel(), np.zeros(dim)]))
        # focal
        logit = float(rng.normal())
        positive = bool(rng.integers(2))

        def focal_closure(p):
            prob = 1.0 / (1.0 + math.exp(-p[0]))
            loss, dprob = fusion.focal_loss_grad(prob, positive)
            return loss, np.array([dprob * prob * (1 - prob)])

        check("focal", focal_closure, np.array([logit]))
        # GIoU
        a = np.sort(rng.uniform(0, 1, 2))
        b = np.sort(rng.uniform(0, 1, 2))
        box_a = np.array([a[0], b[0], a[1] + 0.05, b[1] + 0.05])
        c = np.sort(rng.uniform(0, 1, 2))
        d = np.sort(rng.uniform(0, 1, 2))
        box_b = np.array([c[0], d[0], c[1] + 0.05, d[1] + 0.05])
        check("giou", lambda p: fusion.giou_loss_grad(p, box_b), box_a)

    # composite loss through the full toy model
    model = fusion.FusionModel(seed=seed, crop_size=4, hidden=4, dim=dim)
    batch = fusion.make_toy_samples(4, seed=seed, crop_size=4)
    closure = model.loss_closure(batch, fusion.LossWeights())
    results.append(("composite",
                    fusion.gradient_check(closure, model.vec)))
    return results


def cmd_fuse_check(args) -> int:
    if args.seed < 0:
        print(f"usage error: --seed must be non-negative, got {args.seed}",
              file=sys.stderr)
        return EXIT_CONFIG
    if not 1 <= args.dim <= MAX_FUSE_DIM:
        print(f"usage error: --dim must lie in [1, {MAX_FUSE_DIM}], "
              f"got {args.dim}", file=sys.stderr)
        return EXIT_CONFIG
    results = run_fuse_check(seed=args.seed, dim=args.dim)
    worst = {}
    for term, err in results:
        worst[term] = max(worst.get(term, 0.0), err)
    failed = [t for t, e in worst.items() if not (e < GRAD_TOL)]
    for term in sorted(worst):
        status = "ok" if term not in failed else "FAIL"
        print(f"{term:10s} max_rel_err={worst[term]:.3e} {status}")
    if failed:
        print(f"verification failure: gradient terms {failed} exceed "
              f"{GRAD_TOL:g}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# reacquire-demo
# ---------------------------------------------------------------------------

def cmd_reacquire_demo(args) -> int:
    from .geoprojection import ProjectionError, pixel_to_ground
    from .geodesy import GeoPoint
    from .reacquisition import (Attitude, CameraIntrinsics, GeometryError,
                                backproject, camera_to_world_rotation,
                                repoint, rodrigues_rotate, solve_axis_angle,
                                unit)

    try:
        u, v = (float(x) for x in args.pixel.split(","))
        if not all(map(math.isfinite, (u, v, args.alt, args.gimbal_pitch))):
            raise ValueError("--pixel, --alt and --gimbal-pitch must be finite")
        intr = CameraIntrinsics(fx=args.fx, fy=args.fy, cx=args.cx, cy=args.cy)
        v_cam = backproject(u, v, intr)
    except (ValueError, GeometryError) as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    gimbal = Attitude(pitch=math.radians(args.gimbal_pitch))
    rot = camera_to_world_rotation(gimbal)
    c = unit(rot @ v_cam)                      # target LOS, world frame
    boresight = rot @ np.array([0.0, 0.0, 1.0])
    aa = solve_axis_angle(boresight, c)
    new = repoint(gimbal, rodrigues_rotate(boresight, aa))

    # Reprojection check: point the gimbal along the rotated boresight and
    # project the target LOS into that camera; it should land on the
    # principal point.
    v_cam_new = camera_to_world_rotation(new).T @ c
    err_px = math.hypot(intr.fx * v_cam_new[0] / v_cam_new[2],
                        intr.fy * v_cam_new[1] / v_cam_new[2])

    print(f"v (camera ray):     [{v_cam[0]:+.6f} {v_cam[1]:+.6f} {v_cam[2]:+.6f}]")
    print(f"c (world LOS):      [{c[0]:+.6f} {c[1]:+.6f} {c[2]:+.6f}]")
    print(f"axis:               [{aa.axis[0]:+.6f} {aa.axis[1]:+.6f} {aa.axis[2]:+.6f}]")
    print(f"angle_rad:          {aa.angle:.9f}")
    print(f"delta_pitch_deg:    {math.degrees(new.pitch - gimbal.pitch):+.6f}")
    print(f"delta_yaw_deg:      {math.degrees(new.yaw - gimbal.yaw):+.6f}")
    print(f"reprojection_px:    {err_px:.3e}")
    try:
        ground = pixel_to_ground(u, v, intr, GeoPoint(lat=0.0, lon=0.0),
                                 args.alt, gimbal)
        print(f"ground_wgs84:       [{ground.lat:.6f}, {ground.lon:.6f}]")
    except ProjectionError as exc:
        print(f"ground projection:  no intersection ({exc})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# export-kml
# ---------------------------------------------------------------------------

def cmd_export_kml(args) -> int:
    from .telemetry import parse_report, to_kml
    try:
        with open(args.report, "rb") as fh:
            report = parse_report(fh.read())
    except OSError as exc:
        print(f"cannot read {args.report}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:  # TelemetryError, or undecodable JSON
        print(f"invalid report: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not _write(args.out, to_kml(report)):
        return EXIT_CONFIG
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvpipeline",
        description="UAV photovoltaic-inspection pipeline tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a full simulated mission")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dedup", help="re-run de-duplication offline")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--min-pts", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dedup)

    p = sub.add_parser("fuse-check", help="run the gradient-check suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=16)
    p.set_defaults(func=cmd_fuse_check)

    p = sub.add_parser("reacquire-demo",
                       help="print the re-pointing solution for one pixel")
    p.add_argument("--pixel", required=True, metavar="U,V")
    p.add_argument("--fx", type=float, required=True)
    p.add_argument("--fy", type=float, required=True)
    p.add_argument("--cx", type=float, required=True)
    p.add_argument("--cy", type=float, required=True)
    p.add_argument("--alt", type=float, default=10.0)
    p.add_argument("--gimbal-pitch", type=float, default=-90.0,
                   help="gimbal pitch in degrees (-90 = nadir)")
    p.set_defaults(func=cmd_reacquire_demo)

    p = sub.add_parser("export-kml", help="convert a report JSON to KML")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_kml)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
