"""Golden mission outputs: the bytes `simulate` writes for three configs.

The fixtures under tests/data/golden_mission/ pin report.json, report.kml,
metrics.csv and detections.jsonl. Any change to them must be intended and
stated in CHANGES.md; re-record with `python tests/test_golden_mission.py`.
"""

import json
import pathlib

import pytest

from pvpipeline import cli

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_mission"
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
