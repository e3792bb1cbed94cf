"""Record perfbench/reference.json: run every case of every workload once
at the current commit and store its output digests (loss trace for
training). Run from the root of a checkout:

    python3 perfbench/record_reference.py

Re-record only when a change is meant to alter the program's outputs, and
say so with the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

import run as bench

sys.path.insert(0, bench.SRC)
import sightings  # noqa: E402
import worker  # noqa: E402


def record(workload: str, work: str) -> dict:
    spec = bench.WORKLOADS[workload]
    cases = [str(c) for c in range(spec["pool"])]
    inputs = bench.write_inputs(workload, cases, work)
    job = worker.Job({"kind": spec["kind"], "cases": cases, "inputs": inputs,
                      "out_dir": work, "epochs": spec.get("epochs")})
    entries = {}
    for case in cases:
        job.prepare(case)
        rc, result = job.run(case)
        if rc != 0:
            raise SystemExit(f"{workload} case {case} exited {rc}")
        entry = job.check(rc, result)
        entry.pop("summary", None)
        if spec["kind"] == "dedup":
            with open(inputs[case], "rb") as fh:
                entry["input"] = hashlib.sha256(fh.read()).hexdigest()
            entry["events_per_class"] = sightings.generate(int(case))[1]
        entries[case] = entry
        print(f"{workload} case {case}: recorded", file=sys.stderr)
    return entries


def main() -> int:
    os.makedirs(bench.STATE, exist_ok=True)
    work = tempfile.mkdtemp(dir=bench.STATE)
    try:
        reference = {w: record(w, work) for w in bench.WORKLOADS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(bench.HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
