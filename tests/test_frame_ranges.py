"""Frame ranges in forked workers: `simulate` writes the same bytes for any
worker count, reports a worker's failure as a serial run does, and leaves
no child process behind, even when a signal kills it.

The worker count is `min(workers.usable_cpus(), frames)`; these tests
set it by patching `pvpipeline.workers.usable_cpus`, which de-duplication
reads too.
"""

import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

import pytest

from pvpipeline import cli, simulator
from pvpipeline.config import config_from_dict
from pvpipeline.simulator import MissionConfig, plan_flight, render_frame
from pvpipeline.telemetry import detection_record_lines
from pvpipeline.workers import forked_map

from test_golden_mission import CONFIGS as GOLDEN_CONFIGS

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
OUTPUTS = ("report.json", "report.kml", "metrics.csv", "detections.jsonl",
           "summary.txt")
CONFIGS = {
    **GOLDEN_CONFIGS,
    "survey_att_noise": {
        "seed": 2,
        "plant": {"rows": 40, "cols": 40},
        "defects": {"count": None, "density": 0.08},
        "noise": {"clutter_rate": 1.0, "miss_probability": 0.1,
                  "att_sigma_rad": 0.01}},
    # Large gimbal noise tilts some corner rays above the horizon.
    "projection_failed": {"noise": {"att_sigma_rad": 0.8}},
    # plan_flight never plans fewer than three stations; one defect, a
    # 1x1 plant and a 64 m footprint give exactly three.
    "three_frames": {
        "plant": {"rows": 1, "cols": 1},
        "defects": {"count": 1, "n_small": 0},
        "flight": {"altitude": 100.0, "along_overlap": 0.0}},
}


def _env() -> dict:
    return dict(os.environ, PV_PIPELINE_LOG="error",
                PYTHONPATH=os.pathsep.join(filter(None, (
                    SRC, os.environ.get("PYTHONPATH")))))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _simulate(monkeypatch, tmp_path, config: dict, workers: int) -> dict:
    monkeypatch.setattr("pvpipeline.workers.usable_cpus", lambda: workers)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / f"out-{workers}"
    # The ranges' lines go through unnamed temporary files: the run leaves
    # nothing in the temporary directory.
    scratch = tmp_path / "tmp"
    scratch.mkdir(exist_ok=True)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(out)]) == cli.EXIT_OK
    _no_child_left()
    assert list(scratch.iterdir()) == []
    return {name: (out / name).read_bytes() for name in OUTPUTS}


def _summary_count(outputs: dict, key: str) -> int:
    return int(outputs["summary.txt"].decode().split(f"{key}=")[1].split()[0])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_do_not_depend_on_the_worker_count(monkeypatch, tmp_path,
                                                   capsys, name):
    serial = _simulate(monkeypatch, tmp_path, CONFIGS[name], 1)
    for workers in (2, 3):
        outputs = _simulate(monkeypatch, tmp_path, CONFIGS[name], workers)
        for output in OUTPUTS:
            assert outputs[output] == serial[output], \
                f"{name}/{output} with {workers} workers"
    if name == "projection_failed":
        assert _summary_count(serial, "projection_failed") > 0
    if name == "three_frames":
        assert _summary_count(serial, "frames") == 3
        # More workers than frames: one frame per worker.
        outputs = _simulate(monkeypatch, tmp_path, CONFIGS[name], 5)
        assert outputs == serial
    capsys.readouterr()


def test_forked_map_of_no_calls_is_empty():
    # There is no first call to run in process, and nothing to fork.
    assert forked_map(pow, []) == []
    _no_child_left()


def test_match_indices_join_in_frame_order_for_any_worker_count(monkeypatch):
    # metrics.csv holds only the count of the indices, so the byte test
    # above cannot see their order.
    config = config_from_dict(CONFIGS["survey_att_noise"])
    traces = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr("pvpipeline.workers.usable_cpus", lambda: workers)
        lines = io.BytesIO()
        traces[workers], _ = simulator.run_mission(config, lines)
        _no_child_left()
        # The ranges' lines, joined in frame order, are the joined table's.
        assert lines.getvalue() == \
            detection_record_lines(traces[workers].accepted)
    serial = traces[1]
    assert None in serial.gt_matches
    assert len(set(serial.gt_matches) - {None}) > 1
    for workers in (2, 3):
        assert traces[workers].gt_matches == serial.gt_matches
        assert traces[workers].accepted == serial.accepted


# Runs `simulate` with `render_frame` failing on one survey frame, then
# exits 99 if any child process of it is left, or else with simulate's code.
FAILING_RUN = """
import os, sys
from pvpipeline import cli, simulator, workers
from pvpipeline.config import load_config

count, frame, kind, config, out = sys.argv[1:]
c = load_config(config)
bad = simulator.plan_flight(c.plant, c.flight, c.camera)[int(frame)]


class NeedsTwoArgs(Exception):
    # Pickles, but cannot be rebuilt from its one message argument.
    def __init__(self, what, where):
        super().__init__(f"{what} on frame {where}")


render = simulator.render_frame


def failing(defects, pose, *args, **kwargs):
    if pose == bad:
        if kind == "unpicklable":
            raise NeedsTwoArgs("no picture", frame)
        raise simulator.SimulationError(f"no picture on frame {frame}")
    return render(defects, pose, *args, **kwargs)


simulator.render_frame = failing
workers.usable_cpus = lambda: int(count)
code = cli.main(["simulate", "--config", config, "--out", out])
try:
    os.waitpid(-1, os.WNOHANG)
    code = 99
except ChildProcessError:
    pass
sys.exit(code)
"""


@pytest.mark.parametrize("frame,kind", [(20, "plain"), (3, "plain"),
                                        (20, "unpicklable")],
                         ids=["last-range", "range-0", "last-range-unpicklable"])
def test_a_failing_frame_exits_2_once_for_any_worker_count(tmp_path, frame,
                                                           kind):
    # The default plant flies 24 frames: three workers take 0-7, 8-15 and
    # 16-23.
    assert len(plan_flight(MissionConfig().plant, MissionConfig().flight,
                           MissionConfig().camera)) == 24
    path = tmp_path / "config.json"
    path.write_text("{}")
    scratch = tmp_path / "tmp"  # where temporary files go
    scratch.mkdir()
    results = [subprocess.run(
        [sys.executable, "-c", FAILING_RUN, str(workers), str(frame), kind,
         str(path), str(tmp_path / f"out-{workers}")],
        capture_output=True, text=True, env=dict(_env(), TMPDIR=str(scratch)),
        timeout=120)
        for workers in (1, 3)]
    for result in results:
        assert result.returncode == cli.EXIT_RUNTIME, result.stderr
        assert result.stdout == ""
        assert result.stderr == f"runtime error: no picture on frame {frame}\n"
    assert not (tmp_path / "out-3").exists()
    assert list(scratch.iterdir()) == []


def test_an_interrupt_in_range_0_stops_the_other_workers(monkeypatch):
    # Range 0 is interrupted while the worker on frames 16-23 hangs; the
    # call must kill that worker rather than wait for it.
    config = MissionConfig(seed=1)
    poses = plan_flight(config.plant, config.flight, config.camera)

    def interrupted(defects, pose, *args, **kwargs):
        if pose == poses[2]:
            raise KeyboardInterrupt
        if pose == poses[20]:
            time.sleep(30)
        return render_frame(defects, pose, *args, **kwargs)

    monkeypatch.setattr(simulator, "render_frame", interrupted)
    monkeypatch.setattr("pvpipeline.workers.usable_cpus", lambda: 3)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        simulator.run_mission(config)
    assert time.perf_counter() - start < 15.0
    _no_child_left()


# Runs `simulate` with two workers. The first frame of the worker's range
# writes the worker's pid to a file, then hangs.
HANGING_RUN = """
import os, sys, time
from pvpipeline import cli, simulator, workers
from pvpipeline.config import load_config

config, out, pid_file = sys.argv[1:]
c = load_config(config)
poses = simulator.plan_flight(c.plant, c.flight, c.camera)
hang = poses[len(poses) // 2]
render = simulator.render_frame


def hanging(defects, pose, *args, **kwargs):
    if pose == hang:
        with open(pid_file + ".tmp", "w") as fh:
            fh.write(str(os.getpid()))
        os.replace(pid_file + ".tmp", pid_file)
        time.sleep(60)
    return render(defects, pose, *args, **kwargs)


simulator.render_frame = hanging
workers.usable_cpus = lambda: 2
sys.exit(cli.main(["simulate", "--config", config, "--out", out]))
"""


def _gone(pid: int) -> bool:
    """The process has exited: it has no /proc entry or is a zombie."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL],
                         ids=["SIGTERM", "SIGKILL"])
def test_no_worker_outlives_its_parent(tmp_path, sig):
    # The signal goes to the parent alone, as `kill PID` sends it; `timeout`
    # would signal the worker too, through the process group.
    path = tmp_path / "config.json"
    path.write_text("{}")
    pid_file = tmp_path / "worker.pid"
    parent = subprocess.Popen(
        [sys.executable, "-c", HANGING_RUN, str(path), str(tmp_path / "out"),
         str(pid_file)], env=_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    worker = None
    try:
        deadline = time.monotonic() + 60.0
        while not pid_file.exists():
            assert parent.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        worker = int(pid_file.read_text())
        parent.send_signal(sig)
        assert parent.wait(timeout=10) == -sig
        deadline = time.monotonic() + 2.0
        while not _gone(worker) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _gone(worker)
    finally:
        parent.kill()
        parent.wait()
        if worker is not None and not _gone(worker):
            os.kill(worker, signal.SIGKILL)
