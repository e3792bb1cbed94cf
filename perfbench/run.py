"""pvpipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/pvpipeline`. The load is
closed-loop: one caller in one fresh worker process issues the next op only
after the previous one finished. Workloads (see WORKLOADS):

  mission_small   `simulate` on the default 10x10 plant with 8 defects, one
                  op per mission seed. The per-frame thermal/fusion path is
                  about half of the op, dedup about 2%.
  survey_40x40    `simulate` on a 40x40 plant with density 0.08 defects,
                  clutter and misses: every layer, none dominant, and
                  O(detections x GT) matching.
  dedup_offline   `dedup --epsilon 1.0` on a 100x100-plant sightings file
                  written by sightings.py: O(n^2) DBSCAN, no frames.
  fusion_train    `train_toy` epochs on `make_toy_samples(32, seed)`: the only
                  path through `FusionModel.loss_and_grads`.

Every input comes from a pool of cases whose output digests (loss traces
for training) record_reference.py stored in reference.json. --seed picks
which cases a run visits and in what order; the run cycles through them
until its time is spent. An op fails if it exits non-zero or its outputs
differ from the reference.

With --trace 0 the last stdout line reports the end-to-end metrics:
  op_cal_p50   median over the run's ops of the op's time in calibration
               units: op seconds divided by the mean seconds of the fixed
               kernel worker.calibration_s timed just before and just after
               it (simulate includes config load and the five output writes)
  setup_s      median over SETUP_SAMPLES fresh processes of the time to
               import pvpipeline (numpy/scipy), load the palettes and load
               the config, in seconds
  peak_rss_mb  peak RSS of the worker process that ran the ops
Op time is gated in calibration units because other tenants of the small
shared host slow this process by up to 1.8x for seconds to minutes at a
time, which moves the median op time of a 20 s run by 20-45% from run to
run. The kernel slows with the program, so the ratio moves far less. Raw
seconds are printed on the lines before the last one: the median and p90
over all ops, the throughput under the workload's own name (frames_per_s,
sightings_per_s, epochs_per_s), the kernel's median time, the error rate
and the machine.

With --trace 1 half the time runs untraced and half under tracer.py, and the
last line reports the per-layer metrics (per traced op means, see
LAYER_METRICS), and the tracing overhead as traced over untraced
op_cal_p50, minus one. Full records, spans included, go to
.perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import sightings  # noqa: E402

SETUP_SAMPLES = 5
BLAS_THREADS = 1           # one closed-loop caller; the arrays are small
WORKER_GRACE_S = 120       # last op and set-up, beyond --seconds

SURVEY_CONFIG = {
    "plant": {"rows": 40, "cols": 40},
    "defects": {"count": None, "density": 0.08},
    "noise": {"clutter_rate": 1.0, "miss_probability": 0.1},
}

# pool: cases with a recorded reference; per_run: how many of them one run
# cycles through (the seed picks which); unit: work per op.
WORKLOADS = {
    "mission_small": {"kind": "simulate", "pool": 16, "per_run": 16,
                      "config": {}, "unit": "frames"},
    "survey_40x40": {"kind": "simulate", "pool": 12, "per_run": 2,
                     "config": SURVEY_CONFIG, "unit": "frames"},
    "dedup_offline": {"kind": "dedup", "pool": 12, "per_run": 1,
                      "unit": "sightings"},
    "fusion_train": {"kind": "train", "pool": 12, "per_run": 1, "epochs": 20,
                     "unit": "epochs"},
}
ALIAS = {"frames": "frames_per_s", "sightings": "sightings_per_s",
         "epochs": "epochs_per_s"}
LOSS_RTOL = 1e-10
COVERAGE_TOL = 0.05

END_TO_END = (("op_cal_p50", "cal"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
LAYER_METRICS = (
    ("thermal.busy_s", "s"), ("thermal.clahe_calls", "count"),
    ("fusion.busy_s", "s"), ("fusion.loss_and_grads_s", "s"),
    ("simulator.render_busy_s", "s"), ("simulator.render_calls", "count"),
    ("simulator.self_s", "s"), ("simulator.evaluate_s", "s"),
    ("detector.busy_s", "s"), ("detector.accept_ratio", "ratio"),
    ("reacquisition.busy_s", "s"), ("reacquisition.rounds", "count"),
    ("reacquisition.confirm_ratio", "ratio"),
    ("geoprojection.busy_s", "s"), ("geoprojection.rotation_calls", "count"),
    ("geodesy.haversine_calls", "count"),
    ("dedup.dbscan_s", "s"), ("dedup.pairs_per_sighting", "count"),
    ("dedup.merge_s", "s"), ("dedup.merge_ratio", "ratio"),
    ("dedup.self_s", "s"),
    ("telemetry.parse_s", "s"), ("telemetry.serialize_s", "s"),
    ("config.load_s", "s"), ("cli.self_s", "s"),
    ("trace.op_cal_p50", "cal"), ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
)


class BenchError(RuntimeError):
    pass


def mission_config(workload: str, case: str) -> dict:
    return {"seed": int(case), **WORKLOADS[workload].get("config", {})}


def write_inputs(workload: str, cases, work: str) -> dict:
    """Write each case's program input; returns case -> path, or for
    training case -> case (its input is the seed itself)."""
    kind = WORKLOADS[workload]["kind"]
    inputs = {}
    for case in cases:
        if kind == "simulate":
            path = os.path.join(work, f"config-{case}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(mission_config(workload, case), fh)
        elif kind == "dedup":
            path = os.path.join(work, f"sightings-{case}.jsonl")
            with open(path, "wb") as fh:
                fh.write(sightings.generate(int(case))[0])
        else:
            path = case
        inputs[case] = path
    return inputs


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PV_PIPELINE_LOG"] = "error"
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args, timeout: float):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    if proc.stderr:
        sys.stderr.write(proc.stderr)


def measure_setup(config_path: str, count: int) -> list:
    """Wall times of `count` fresh set-up processes. Runs take some before
    and some after the ops, so that one burst of load on the host does not
    hit them all."""
    samples = []
    for _ in range(count):
        start = perf_counter()
        worker(["setup", config_path], timeout=60)
        samples.append(perf_counter() - start)
    return samples


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "blas_threads": BLAS_THREADS,
            "platform": platform.platform()}


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def op_failure(op: dict, expected: dict) -> str | None:
    """Why an op failed against its reference entry, or None."""
    if op["rc"] != 0:
        return f"exit code {op['rc']}"
    check = op["check"]
    if "loss" in expected:
        got, want = check["loss"], expected["loss"]
        if len(got) != len(want):
            return f"{len(got)} loss values, expected {len(want)}"
        for i, (a, b) in enumerate(zip(got, want)):
            if abs(a - b) > LOSS_RTOL * max(abs(a), abs(b)):
                return f"loss[{i}] = {a!r}, expected {b!r}"
        return None
    for name, digest in expected.items():
        if name in ("input", "events_per_class"):
            continue
        if check.get(name) != digest:
            return f"{name} digest differs from the reference"
    return None


def work_units(workload: str, op: dict, inputs: dict) -> int:
    """Work in one op: rendered frames (survey + re-acquisition), input
    sightings or training epochs."""
    unit = WORKLOADS[workload]["unit"]
    if unit == "frames":
        summary = op["check"]["summary"]
        return summary["frames"] + summary["reacq_rounds"]
    if unit == "epochs":
        return WORKLOADS[workload]["epochs"]
    with open(inputs[op["case"]], "rb") as fh:
        return sum(1 for line in fh if line.strip())


def check_dedup_events(out_dir: str, expected: dict) -> str | None:
    """The last op's events against the generator's exact cluster count."""
    with open(os.path.join(out_dir, "events.json"), encoding="utf-8") as fh:
        events = json.load(fh)
    per_class = {}
    for event in events:
        per_class[event["class"]] = per_class.get(event["class"], 0) + 1
    if per_class != expected:
        return f"events per class {per_class}, expected {expected}"
    return None


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(ops, trace: dict) -> dict:
    """Per-op means of the traced ops' layer metrics."""
    traced = [op for op in ops if op["traced"]]
    n = len(traced)
    total = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    for op in traced:
        summary = trace[str(op["id"])]
        for bucket, seconds in summary["self_s"].items():
            add(bucket, seconds)
        calls, inclusive = summary["calls"], summary["inclusive_s"]
        counters = summary["counters"]
        add("thermal.clahe_calls", calls.get("simulator.clahe_rgb", 0))
        add("simulator.render_calls", calls.get("simulator.render_frame", 0))
        add("geoprojection.rotation_calls",
            calls.get("simulator.camera_to_world_rotation", 0)
            + calls.get("geoprojection.camera_to_world_rotation", 0))
        add("fusion.loss_and_grads_s",
            inclusive.get("fusion.FusionModel.loss_and_grads", 0.0))
        for key, value in counters.items():
            add(key, value)
        add("traced_s", sum(summary["self_s"].values()))
        counts = op["check"].get("summary", {})
        for key in ("detections", "accepted", "reacq_rounds",
                    "reacq_confirms"):
            add(key, counts.get(key, 0))

    def ratio(num, den):
        return total.get(num, 0.0) / total[den] if total.get(den) else 0.0

    untraced_cal = cal_p50(op for op in ops if not op["traced"])
    traced_cal = cal_p50(traced)
    per_op = {name: total.get(name, 0.0) / n for name, unit in LAYER_METRICS
              if unit in ("s", "count")}
    per_op.update({
        "detector.accept_ratio": ratio("accepted", "detections"),
        "reacquisition.rounds": total.get("reacq_rounds", 0.0) / n,
        "reacquisition.confirm_ratio": ratio("reacq_confirms", "reacq_rounds"),
        "dedup.pairs_per_sighting": ratio("dedup.dbscan_pairs",
                                          "dedup.dbscan_points"),
        "dedup.merge_ratio": ratio("dedup.events_out", "dedup.sightings_in"),
        "trace.op_cal_p50": traced_cal,
        "trace.overhead_ratio": traced_cal / untraced_cal - 1.0,
        "trace.coverage": total["traced_s"] / sum(op["s"] for op in traced),
    })
    return per_op


def cal_p50(ops) -> float:
    """Median op time in units of the calibration kernel timed around each
    op."""
    return statistics.median(op["s"] / op["cal_s"] for op in ops)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[workload]
    reference = load_reference()[workload]
    cases = [str(c) for c in
             random.Random(seed).sample(range(spec["pool"]), spec["per_run"])]
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = os.path.join(STATE, f"work-{tag}-{os.getpid()}")
    results_dir = os.path.join(STATE, "results")
    os.makedirs(work)
    os.makedirs(results_dir, exist_ok=True)
    try:
        inputs = write_inputs(workload, cases, work)
        problems = []
        if spec["kind"] == "dedup":
            for case in cases:
                with open(inputs[case], "rb") as fh:
                    if (hashlib.sha256(fh.read()).hexdigest()
                            != reference[case]["input"]):
                        problems.append(f"sightings for case {case} differ "
                                        "from the recorded input")
        config_path = os.path.join(work, "setup-config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(mission_config(workload, cases[0]), fh)
        setup_samples = measure_setup(config_path, SETUP_SAMPLES // 2 + 1)

        job = {"kind": spec["kind"], "cases": cases, "inputs": inputs,
               "out_dir": work, "epochs": spec.get("epochs"),
               "config": config_path, "seconds": seconds, "trace": trace,
               "spans_path": os.path.join(results_dir, f"{tag}.spans.jsonl")}
        job_path = os.path.join(work, "job.json")
        result_path = os.path.join(work, "result.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        worker(["run", job_path, result_path],
               timeout=seconds + WORKER_GRACE_S)
        setup_samples += measure_setup(config_path, SETUP_SAMPLES // 2)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)

        ops = result["ops"]
        for op in ops:
            reason = op_failure(op, reference[op["case"]])
            if reason:
                problems.append(f"op {op['id']} (case {op['case']}): {reason}")
            op["failed"] = reason is not None
        if spec["kind"] == "dedup" and ops[-1]["rc"] == 0:
            reason = check_dedup_events(
                work, reference[ops[-1]["case"]]["events_per_class"])
            if reason:
                problems.append(reason)
        units = {op["case"]: work_units(workload, op, inputs)
                 for op in ops if not op["failed"]}
        timed = [op for op in ops if not op["traced"]]
        op_s = [op["s"] for op in timed]
        p90 = percentile(op_s, 0.9)
        record = {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "cases": cases,
            "machine": {**machine(), "python": result["python"],
                        "numpy": result["numpy"], "scipy": result["scipy"]},
            "setup_samples_s": setup_samples,
            "attempted": len(ops),
            "failed": sum(op["failed"] for op in ops),
            "problems": problems,
            "ops": [{k: op[k] for k in ("id", "case", "s", "cal_s", "traced",
                                        "failed")}
                    for op in ops],
            "end_to_end": {
                "op_cal_p50": cal_p50(timed),
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": result["peak_rss_mb"],
            },
            "extra": {
                "cal_s_p50": statistics.median(op["cal_s"] for op in timed),
                "op_s_p50": statistics.median(op_s),
                "op_s_p90": p90,
                "ops_timed": len(op_s),
                "ops_beyond_p90": sum(s > p90 for s in op_s),
                ALIAS[spec["unit"]]: (sum(units.get(op["case"], 0)
                                          for op in timed) / sum(op_s)),
                "error_rate": sum(op["failed"] for op in ops) / len(ops),
            },
        }
        if trace:
            layers = layer_metrics(ops, result["trace"])
            coverage = layers["trace.coverage"]
            if not 1.0 - COVERAGE_TOL <= coverage <= 1.0 + 1e-6:
                problems.append(f"traced self times cover {coverage:.4f} of "
                                "the traced op time")
            record["per_layer"] = layers
            record["trace_missing"] = result["trace_missing"]
        with open(os.path.join(results_dir, f"{tag}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(record: dict) -> dict:
    m = record["machine"]
    print(f"machine: nproc={m['nproc']} affinity={m['affinity']} "
          f"cpu={m['cpu']!r} python={m['python']} numpy={m['numpy']} "
          f"scipy={m['scipy']} blas_threads={m['blas_threads']}")
    e2e, extra = record["end_to_end"], record["extra"]
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"cases {','.join(record['cases'])}; {extra['ops_timed']} timed "
          f"ops, {record['attempted']} attempted, {record['failed']} failed")
    for name, unit in END_TO_END:
        print(f"  {name:<16} {e2e[name]:.6g} {unit}")
    alias = ALIAS[WORKLOADS[record['workload']]['unit']]
    print(f"  {'cal_s_p50':<16} {extra['cal_s_p50']:.6g} s "
          "(calibration kernel)")
    print(f"  {'op_s_p50':<16} {extra['op_s_p50']:.6g} s (all timed ops)")
    print(f"  {'op_s_p90':<16} {extra['op_s_p90']:.6g} s "
          f"({extra['ops_timed']} ops, {extra['ops_beyond_p90']} beyond p90)")
    print(f"  {alias:<16} {extra[alias]:.6g} 1/s (all timed ops)")
    print(f"  {'error_rate':<16} {extra['error_rate']:.6g} ratio")
    for problem in record["problems"]:
        print(f"  FAIL {problem}")
    if record["trace"]:
        units = dict(LAYER_METRICS)
        for name, value in record["per_layer"].items():
            print(f"  {name:<30} {value:.6g} {units[name]}")
        if record["trace_missing"]:
            print(f"  not traced (missing): {record['trace_missing']}")
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": not record["problems"],
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "pvpipeline", "__init__.py")):
        print(f"no pvpipeline sources under {SRC}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
