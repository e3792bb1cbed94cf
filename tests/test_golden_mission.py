"""Golden mission outputs: the bytes `simulate` writes for three configs,
and for case 0 of each benchmark mission workload.

The fixtures under tests/data/golden_mission/ pin report.json, report.kml,
metrics.csv and detections.jsonl. Any change to them must be intended and
stated in CHANGES.md; re-record with `python tests/test_golden_mission.py`.
The benchmark cases are held to the digests in perfbench/reference.json,
which these tests only read.
"""

import hashlib
import json
import pathlib

import pytest

from pvpipeline import cli

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_mission"
BENCH_REFERENCE = (pathlib.Path(__file__).parent.parent / "perfbench"
                   / "reference.json")
OUTPUTS = ("report.json", "report.kml", "metrics.csv", "detections.jsonl")
CONFIGS = {
    "default": {},
    "clutter_miss": {"noise": {"clutter_rate": 1.0, "miss_probability": 0.1}},
    "reacq_off": {"reacquisition": {"max_rounds": 0}},
}


def _simulate(config: dict, tmp_dir: pathlib.Path, out: pathlib.Path):
    path = tmp_dir / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(out)]) == cli.EXIT_OK


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_simulate_matches_golden_outputs(tmp_path, name):
    out = tmp_path / "out"
    _simulate(CONFIGS[name], tmp_path, out)
    for output in OUTPUTS:
        assert (out / output).read_bytes() == \
            (GOLDEN / name / output).read_bytes(), f"{name}/{output}"


# Case 0 of the two mission workloads, configured as perfbench/run.py
# writes them: the default plant, and a 40x40 plant of about 128 defects
# with clutter, misses and re-acquisition.
BENCH_CASES = {
    "mission_small": {"seed": 0},
    "survey_40x40": {
        "seed": 0,
        "plant": {"rows": 40, "cols": 40},
        "defects": {"count": None, "density": 0.08},
        "noise": {"clutter_rate": 1.0, "miss_probability": 0.1}},
}


@pytest.mark.parametrize("workload", sorted(BENCH_CASES))
def test_benchmark_mission_case_matches_its_reference(tmp_path, workload):
    want = json.loads(BENCH_REFERENCE.read_text())[workload]["0"]
    out = tmp_path / "out"
    _simulate(BENCH_CASES[workload], tmp_path, out)
    for output in OUTPUTS:
        digest = hashlib.sha256((out / output).read_bytes()).hexdigest()
        assert digest == want[output], f"{workload}/{output}"


if __name__ == "__main__":
    import tempfile
    for name, config in CONFIGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "out"
            _simulate(config, pathlib.Path(tmp), out)
            (GOLDEN / name).mkdir(parents=True, exist_ok=True)
            for output in OUTPUTS:
                (GOLDEN / name / output).write_bytes(
                    (out / output).read_bytes())
