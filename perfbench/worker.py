"""One benchmark process: set up pvpipeline, then run one workload's ops in
a closed loop (the next op starts only after the previous one finished).

    python3 perfbench/worker.py setup CONFIG
        Import pvpipeline, load the palettes and the config, and exit. The
        caller times the whole process as one set-up sample.
    python3 perfbench/worker.py run JOB.json RESULT.json
        Set up, then run timed ops until the job's time is spent; the
        caller reports medians, which one cold first op does not move, so
        there is no separate warm-up. In a traced job the first half of
        the time runs untraced and the second half under the tracer.
        Writes op times, output digests, peak RSS and per-op trace
        summaries to RESULT.json.

Ops go only through the package's public entry points: `cli.main` for
`simulate` and `dedup`, and `fusion.make_toy_samples` / `fusion.train_toy`
for training. Each op's outputs are removed before it runs, so a failed op
cannot pass on the previous op's files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
from time import perf_counter

import numpy as np

MISSION_OUTPUTS = ("report.json", "report.kml", "metrics.csv",
                   "detections.jsonl")


def set_up(config_path: str):
    import pvpipeline.cli  # noqa: F401  (numpy, argparse)
    import pvpipeline.fusion  # noqa: F401
    from pvpipeline import config, simulator, thermal  # noqa: F401  (scipy)
    thermal.load_all_palettes()
    config.load_config(config_path)


def _great_circle(a, b) -> float:
    dlat, dlon = b[0] - a[0], b[1] - a[1]
    h = (math.sin(dlat / 2.0) ** 2
         + math.cos(a[0]) * math.cos(b[0]) * math.sin(dlon / 2.0) ** 2)
    return 2.0 * math.asin(math.sqrt(h))


def calibration_s() -> float:
    """Seconds this process takes, right now, for a fixed mix of the kinds
    of work pvpipeline does: elementwise NumPy on a frame-sized raster, a
    small matmul, scalar Python float math in small functions and JSON
    encoding. The mix never changes, so it measures how fast the host is
    running this process at the moment; timed before and after every op,
    it lets the caller tell a slower program from a busier host."""
    start = perf_counter()
    a = np.linspace(0.0, 1.0, 64 * 80).reshape(64, 80)
    points = [(0.01 * k, 0.02 * k) for k in range(101)]
    acc = 0.0
    for i in range(60):
        b = np.exp(-((a - 0.0125 * i) ** 2) / 0.02)
        acc += float((b[:, :64] @ b[:, :64].T).trace())
        acc += sum(_great_circle(points[k], points[k + 1]) for k in range(100))
        acc += len(json.dumps({str(k): k * i for k in range(100)}))
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel overflowed")
    return perf_counter() - start


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _remove(paths):
    for path in paths:
        if os.path.exists(path):
            os.unlink(path)


def _summary_counters(path: str) -> dict:
    """The integer `key=value` fields of summary.txt."""
    counters = {}
    with open(path, encoding="utf-8") as fh:
        for token in fh.read().split():
            key, _, value = token.partition("=")
            if value.isdigit():
                counters[key] = int(value)
    return counters


def _call_cli(argv) -> int:
    from pvpipeline import cli
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1


class Job:
    def __init__(self, spec: dict):
        self.kind = spec["kind"]
        self.cases = spec["cases"]
        self.inputs = spec["inputs"]
        self.out_dir = spec["out_dir"]
        self.epochs = spec.get("epochs")

    def prepare(self, case: str):
        """Remove the outputs the next op on `case` will write."""
        if self.kind == "simulate":
            _remove([os.path.join(self.out_dir, name)
                     for name in MISSION_OUTPUTS + ("summary.txt",)])
        elif self.kind == "dedup":
            _remove([os.path.join(self.out_dir, "events.json")])

    def run(self, case: str):
        """One op; returns (exit code, training result or None)."""
        if self.kind == "simulate":
            return _call_cli(["simulate", "--config", self.inputs[case],
                              "--out", self.out_dir]), None
        if self.kind == "dedup":
            return _call_cli(["dedup", "--input", self.inputs[case],
                              "--epsilon", "1.0", "--out",
                              os.path.join(self.out_dir, "events.json")]), None
        from pvpipeline import fusion
        samples = fusion.make_toy_samples(32, seed=int(case))
        return 0, fusion.train_toy(samples, epochs=self.epochs, seed=int(case))

    def check(self, rc: int, result) -> dict:
        """What the caller compares against the reference, and the op's
        work counters."""
        if rc != 0:
            return {}
        if self.kind == "simulate":
            out = {name: _sha256(os.path.join(self.out_dir, name))
                   for name in MISSION_OUTPUTS}
            out["summary"] = _summary_counters(
                os.path.join(self.out_dir, "summary.txt"))
            return out
        if self.kind == "dedup":
            return {"events.json": _sha256(
                os.path.join(self.out_dir, "events.json"))}
        return {"loss": [float(x) for x in result.total_trace]}


def _timed_ops(job: Job, seconds: float, tracer=None, first_id: int = 0):
    """Ops in turn over the job's cases until `seconds` are spent; an op
    that the previous op's time says would end past the deadline is not
    started, but at least one op runs. Each op records the mean of the
    calibration times just before and just after it."""
    ops = []
    deadline = perf_counter() + seconds
    cal_before = calibration_s()
    while True:
        case = job.cases[len(ops) % len(job.cases)]
        job.prepare(case)
        op_id = first_id + len(ops)
        if tracer is not None:
            tracer.begin_op(op_id)
        start = perf_counter()
        try:
            rc, result = job.run(case)
        except Exception as exc:  # a crashing op counts as failed
            print(f"op {op_id} on case {case} raised {exc!r}", file=sys.stderr)
            rc, result = -1, None
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        cal_after = calibration_s()
        ops.append({"id": op_id, "case": case, "rc": rc, "s": elapsed,
                    "cal_s": (cal_before + cal_after) / 2.0,
                    "traced": tracer is not None,
                    "check": job.check(rc, result)})
        cal_before = cal_after
        if perf_counter() + elapsed >= deadline:
            return ops


def run(job_path: str, result_path: str):
    with open(job_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    set_up(spec["config"])
    job = Job(spec)

    import scipy
    seconds = spec["seconds"]
    tracer = None
    if spec["trace"]:
        ops = _timed_ops(job, seconds / 2.0)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        ops += _timed_ops(job, seconds / 2.0, tracer, first_id=len(ops))
        tracer.uninstall()
    else:
        ops = _timed_ops(job, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
    }
    if tracer is not None:
        result["trace"] = {str(op): summary for op, summary
                           in tracer.op_summaries().items()}
        result["trace_missing"] = tracer.missing
        tracer.write_spans(spec["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        set_up(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "run":
        run(argv[1], argv[2])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
