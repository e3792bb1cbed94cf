"""Pipeline invariants on drawn small missions, not only on the goldens.

Each example draws a seed (some past 2**32, so that every noise stream is
keyed with a seed of more than one 32-bit word), a plant of at most 12x12
modules, its origin (near the antimeridian and at high latitude among
them), the noise, re-acquisition and dedup settings, and runs `simulate` in
process with one and with two frame workers (set by patching
`workers.usable_cpus`, as in tests/test_frame_ranges.py). The project
stage's sightings table must equal the one parsed from its
detections.jsonl, and the offline `dedup` and `export-kml` must rewrite
the report's bytes.
"""

import json
import os
import pathlib
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pvpipeline import cli, simulator
from pvpipeline.telemetry import parse_detection_record_lines

OUTPUTS = ("report.json", "report.kml", "metrics.csv", "detections.jsonl",
           "summary.txt")
ORIGINS = ([49.407, 26.984], [10.0, 179.99999], [-60.0, 179.9999],
           [0.0, -180.0], [89.99, 0.0])


@st.composite
def missions(draw):
    return {
        "seed": draw(st.one_of(st.integers(0, 2 ** 16),
                               st.integers(2 ** 32, 2 ** 66))),
        "plant": {"rows": draw(st.integers(1, 12)),
                  "cols": draw(st.integers(1, 12)),
                  "origin": draw(st.sampled_from(ORIGINS))},
        "defects": {"count": None, "density": draw(st.floats(0.02, 0.3)),
                    "min_separation_m": draw(st.sampled_from([0.0, 0.5]))},
        "noise": {"clutter_rate": draw(st.floats(0.0, 2.0)),
                  "miss_probability": draw(st.floats(0.0, 0.3)),
                  "pos_sigma_m": draw(st.floats(0.0, 0.3)),
                  "att_sigma_rad": draw(st.floats(0.0, 0.02))},
        "reacquisition": {"max_rounds": draw(st.integers(0, 2))},
        "dedup": {"epsilon": draw(st.floats(0.2, 3.0)),
                  "min_pts": draw(st.integers(1, 4))},
    }


def _simulate(config: dict, tmp: pathlib.Path, workers: int) -> dict:
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    out = tmp / f"out-{workers}"
    run_mission, traces = simulator.run_mission, []

    def traced(mission, lines):
        trace, report = run_mission(mission, lines)
        traces.append(trace)
        return trace, report

    with mock.patch("pvpipeline.workers.usable_cpus", lambda: workers), \
            mock.patch.object(simulator, "run_mission", traced):
        code = cli.main(["simulate", "--config", str(path), "--out",
                         str(out)])
    assert code == cli.EXIT_OK
    # The two producers of Sightings rows, the project stage and the
    # parser, agree value for value, type included (the repr tells an int
    # from a float).
    (trace,) = traces
    parsed = parse_detection_record_lines(
        (out / "detections.jsonl").read_bytes())
    assert parsed == trace.accepted
    assert repr(parsed) == repr(trace.accepted)
    with pytest.raises(ChildProcessError):  # no frame worker is left
        os.waitpid(-1, os.WNOHANG)
    return {name: (out / name).read_bytes() for name in OUTPUTS}


@settings(max_examples=10)
@given(config=missions())
def test_offline_dedup_and_worker_count_keep_a_drawn_missions_bytes(config):
    with tempfile.TemporaryDirectory() as name:
        tmp = pathlib.Path(name)
        serial = _simulate(config, tmp, 1)
        # `dedup` of the mission's detections.jsonl, at its epsilon and
        # min_pts, writes the report's detections array byte for byte.
        events = tmp / "events.json"
        dedup = config["dedup"]
        assert cli.main(["dedup", "--input",
                         str(tmp / "out-1" / "detections.jsonl"),
                         "--epsilon", repr(dedup["epsilon"]),
                         "--min-pts", str(dedup["min_pts"]),
                         "--out", str(events)]) == cli.EXIT_OK
        assert serial["report.json"].endswith(
            b'"detections":' + events.read_bytes() + b"}")
        # `export-kml` of the mission's report.json writes its report.kml.
        kml = tmp / "again.kml"
        assert cli.main(["export-kml", "--report",
                         str(tmp / "out-1" / "report.json"),
                         "--out", str(kml)]) == cli.EXIT_OK
        assert kml.read_bytes() == serial["report.kml"]
        assert _simulate(config, tmp, 2) == serial
