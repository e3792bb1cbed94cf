"""In-memory span tracer that instruments pvpipeline from the outside.

Each entry of SPANS wraps one function at the module attribute where its
caller looks it up. The simulator binds names at import (`from .detector
import detect`), so `pvpipeline.simulator.detect` is wrapped, not
`pvpipeline.detector.detect`; functions imported inside a function body at
call time (the CLI commands, `geodesy.haversine_distance` in the GT
matching) are wrapped in their home module. An attribute that no longer
exists is skipped and listed in `Tracer.missing`, so a refactor of the
package moves the time to the enclosing span instead of breaking the run.

A span records (op id, span id, parent id, name, start, end). A span's self
time is its duration minus its children's; self times are summed into the
layer bucket the table names, so the buckets partition the traced time.
`haversine_distance` is too hot for a timer and is only counted.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
from time import perf_counter

# (module, attribute, layer bucket)
SPANS = (
    ("cli", "main", "cli.self_s"),
    ("config", "load_config", "config.load_s"),
    ("simulator", "run_mission", "simulator.self_s"),
    ("simulator", "render_frame", "simulator.render_busy_s"),
    ("simulator", "evaluate", "simulator.evaluate_s"),
    ("simulator", "load_all_palettes", "thermal.busy_s"),
    ("simulator", "normalize_temperature", "thermal.busy_s"),
    ("simulator", "apply_palette", "thermal.busy_s"),
    ("simulator", "clahe_rgb", "thermal.busy_s"),
    ("fusion", "load_all_palettes", "thermal.busy_s"),
    ("fusion", "apply_palette", "thermal.busy_s"),
    ("simulator", "downsample", "fusion.busy_s"),
    ("simulator", "gated_fuse", "fusion.busy_s"),
    ("simulator", "mean_pairwise_distance", "fusion.busy_s"),
    ("fusion", "encode", "fusion.busy_s"),
    ("fusion", "FusionModel.palette_embeddings", "fusion.busy_s"),
    ("fusion", "FusionModel.loss_and_grads", "fusion.busy_s"),
    ("fusion", "make_toy_samples", "fusion.busy_s"),
    ("fusion", "train_toy", "fusion.busy_s"),
    ("simulator", "detect", "detector.busy_s"),
    ("simulator", "reacquisition_decision", "reacquisition.busy_s"),
    ("simulator", "backproject", "reacquisition.busy_s"),
    ("simulator", "pointing_angles", "reacquisition.busy_s"),
    ("simulator", "camera_to_world_rotation", "geoprojection.busy_s"),
    ("geoprojection", "camera_to_world_rotation", "geoprojection.busy_s"),
    ("simulator", "project_detection", "geoprojection.busy_s"),
    ("simulator", "deduplicate", "dedup.self_s"),
    ("dedup", "deduplicate", "dedup.self_s"),
    ("dedup", "dbscan_labels", "dedup.dbscan_s"),
    ("dedup", "merge_cluster", "dedup.merge_s"),
    ("simulator", "build_report", "telemetry.serialize_s"),
    ("simulator", "to_json", "telemetry.serialize_s"),
    ("telemetry", "to_json", "telemetry.serialize_s"),
    ("telemetry", "to_kml", "telemetry.serialize_s"),
    ("telemetry", "detection_record_lines", "telemetry.serialize_s"),
    ("telemetry", "event_to_record", "telemetry.serialize_s"),
    ("telemetry", "_record_json", "telemetry.serialize_s"),
    ("telemetry", "parse_detection_record_lines", "telemetry.parse_s"),
)
HAVERSINE = (("geodesy", "haversine_distance"),
             ("dedup", "haversine_distance"))
BUCKETS = tuple(dict.fromkeys(bucket for _, _, bucket in SPANS))


class Tracer:
    def __init__(self):
        self.spans = []          # (op, sid, parent, name, start, end)
        self.counts = {}         # (op, counter) -> value
        self.op_id = None
        self.haversine = [0]
        self._haversine_at_start = 0
        self.missing = []
        self._stack = []
        self._ids = itertools.count()
        self._patched = []

    def add(self, counter: str, value: float):
        key = (self.op_id, counter)
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name: str, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            before = self.haversine[0]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((self.op_id, sid, parent, name, start, end))
            if hook is not None:
                hook(self, args, result, self.haversine[0] - before)
            return result
        return traced

    def _count(self, fn):
        cell = self.haversine

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, module: str, attr: str, make):
        owner = importlib.import_module("pvpipeline." + module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None) if owner is not None else None
        if fn is None:
            self.missing.append(f"{module}.{attr}")
            return
        self._patched.append((owner, leaf, fn))
        setattr(owner, leaf, make(fn))

    def install(self):
        for module, attr in HAVERSINE:
            self._patch(module, attr, self._count)
        for module, attr, _ in SPANS:
            name = f"{module}.{attr}"
            self._patch(module, attr, lambda fn, n=name: self._wrap(n, fn))

    def uninstall(self):
        for owner, leaf, fn in reversed(self._patched):
            setattr(owner, leaf, fn)
        self._patched.clear()

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self._haversine_at_start = self.haversine[0]

    def end_op(self):
        self.add("geodesy.haversine_calls",
                 self.haversine[0] - self._haversine_at_start)

    def op_summaries(self) -> dict:
        """Per op id: self time by layer bucket, calls and inclusive time
        by span name, and the hook counters."""
        bucket_of = {f"{m}.{a}": b for m, a, b in SPANS}
        child_time = {}
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out = {}

        def summary(op):
            return out.setdefault(op, {
                "self_s": dict.fromkeys(BUCKETS, 0.0), "calls": {},
                "inclusive_s": {}, "counters": {}})

        for op, sid, _, name, start, end in self.spans:
            s, duration = summary(op), end - start
            s["self_s"][bucket_of[name]] += duration - child_time.get(sid, 0.0)
            s["calls"][name] = s["calls"].get(name, 0) + 1
            s["inclusive_s"][name] = s["inclusive_s"].get(name, 0.0) + duration
        for (op, counter), value in self.counts.items():
            summary(op)["counters"][counter] = value
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end in sorted(
                    self.spans, key=lambda s: s[1]):
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def _dbscan_hook(tracer, args, result, haversine_calls):
    tracer.add("dedup.dbscan_points", len(args[0]))
    tracer.add("dedup.dbscan_pairs", haversine_calls)


def _dedup_hook(tracer, args, result, haversine_calls):
    tracer.add("dedup.sightings_in", len(args[0]))
    tracer.add("dedup.events_out", len(result))


_HOOKS = {
    "dedup.dbscan_labels": _dbscan_hook,
    "dedup.deduplicate": _dedup_hook,
    "simulator.deduplicate": _dedup_hook,
}
