import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from oracles import parse_detection_record_lines_objects
from test_frame_ranges import _no_child_left

from pvpipeline import dedup
from pvpipeline.cli import MAX_FUSE_DIM, main
from pvpipeline.config import ConfigError, config_from_dict, load_config
from pvpipeline.geodesy import GeodesyError
from pvpipeline.simulator import MissionConfig
from pvpipeline.telemetry import TelemetryError, parse_detection_record_lines

SMALL_CONFIG = {
    "seed": 3,
    "site_id": "CLI-TEST",
    "plant": {"rows": 4, "cols": 4},
    "defects": {"count": 3, "n_small": 1, "min_separation_m": 1.5},
}


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def _run(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    env.setdefault("PV_PIPELINE_LOG", "error")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "pvpipeline.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


GOLDEN_REPORT = pathlib.Path(__file__).parent / "data" / "golden_report.json"
GOLDEN_DETECTIONS = (pathlib.Path(__file__).parent / "data" / "golden_mission"
                     / "default" / "detections.jsonl")


def _set(path, value):
    """Edit of a report or record object: set the value at a key path."""
    def edit(root):
        *parents, leaf = path
        obj = root
        for key in parents:
            obj = obj[key]
        obj[leaf] = value
        return root
    return edit


def _drop(key):
    """Edit of a report or record object: remove a top-level key."""
    def edit(root):
        del root[key]
        return root
    return edit


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


@pytest.mark.parametrize("argv,code,message", [
    (["simulate"], 1, "the following arguments are required: --config"),
    (["fuse-check", "--dim", "abc"], 1, "invalid int value: 'abc'"),
    (["bogus"], 1, "invalid choice: 'bogus'"),
    (["-h"], 0, None),
], ids=["simulate-no-flags", "dim-not-an-int", "unknown-command", "help"])
def test_argparse_usage_errors_exit_1_and_help_exits_0(capsys, argv, code,
                                                       message):
    assert main(argv) == code
    captured = capsys.readouterr()
    if message is None:
        assert captured.out.startswith("usage: pvpipeline")
        assert captured.err == ""
    else:
        assert captured.err.startswith("usage: pvpipeline")
        assert message in captured.err
        assert captured.out == ""


# ---------------------------------------------------------------------------
# Config layer
# ---------------------------------------------------------------------------

def test_config_defaults_and_overrides():
    config = config_from_dict(SMALL_CONFIG)
    assert config.seed == 3
    assert config.site_id == "CLI-TEST"
    assert config.plant.rows == 4
    assert config.defects.count == 3
    assert config.flight.altitude == 10.0  # untouched default
    assert config_from_dict(SMALL_CONFIG, seed_override=9).seed == 9


def test_clutter_pair_bound_takes_any_finite_epsilon():
    # With epsilon 1e300 every clutter pair is near and the disc's area
    # overflows: 24 frames at rate 1 expect 288 pairs, under 2**18.
    for eps in (1e-300, 1e300):
        config = config_from_dict({"dedup": {"epsilon": eps},
                                   "noise": {"clutter_rate": 1.0}})
        assert config.dedup.epsilon == eps


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"sedd": 3})
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"plant": {"rowz": 4}})


def test_config_rejects_wrong_types():
    with pytest.raises(ConfigError):
        config_from_dict({"seed": "three"})
    with pytest.raises(ConfigError):
        config_from_dict({"seed": True})  # bool is not an int here
    with pytest.raises(ConfigError):
        config_from_dict({"plant": {"origin": [49.4]}})  # arity
    # bool is not a number either, as a scalar or as a list element
    with pytest.raises(ConfigError, match=r"\$\.flight\.altitude"):
        config_from_dict({"flight": {"altitude": True}})
    with pytest.raises(ConfigError, match=r"\$\.plant\.origin"):
        config_from_dict({"plant": {"origin": [True, False]}})
    with pytest.raises(ConfigError, match=r"\$\.noise\.miss_probability"):
        config_from_dict({"noise": {"miss_probability": True}})


def _config_slots():
    """Every (section, key) a config may set, from the dataclasses; section
    None for a top-level key."""
    base = MissionConfig()
    slots = []
    for f in fields(base):
        value = getattr(base, f.name)
        slots += ([(f.name, g.name) for g in fields(value)]
                  if is_dataclass(value) else [(None, f.name)])
    return slots


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=8))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=3)),
    max_leaves=6) | st.lists(st.integers() | st.floats(), min_size=2,
                             max_size=2)


@pytest.mark.parametrize("slot", _config_slots(),
                         ids=lambda slot: ".".join(filter(None, slot)))
@settings(max_examples=40)
@given(value=JSON_VALUES)
def test_config_fuzz_any_value_in_any_slot(slot, value):
    # Any JSON value in any slot builds a MissionConfig or is a ConfigError
    # (exit 1); no other exception gets through.
    section, key = slot
    raw = {key: value} if section is None else {section: {key: value}}
    try:
        assert isinstance(config_from_dict(raw), MissionConfig)
    except ConfigError:
        pass


def test_readme_config_example_is_the_defaults():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text[text.index("## Configuration"):]
    block = section[section.index("```jsonc\n") + len("```jsonc\n"):]
    example = json.loads(block[:block.index("```")])
    assert config_from_dict(example) == MissionConfig()
    listed = {(None, key) for key, value in example.items()
              if not isinstance(value, dict)}
    listed |= {(section, key) for section, body in example.items()
               if isinstance(body, dict) for key in body}
    assert listed == set(_config_slots())


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_outputs_and_exits_zero(tmp_path, config_path):
    out = tmp_path / "out"
    result = _run(["simulate", "--config", str(config_path),
                   "--out", str(out)])
    assert result.returncode == 0, result.stderr
    for name in ("report.json", "report.kml", "metrics.csv", "summary.txt",
                 "detections.jsonl"):
        assert (out / name).is_file()
    assert "recall=" in result.stdout
    report = json.loads((out / "report.json").read_bytes())
    assert report["site_id"] == "CLI-TEST"


def test_simulate_is_deterministic(tmp_path, config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run(["simulate", "--config", str(config_path),
                 "--out", str(out_a)]).returncode == 0
    assert _run(["simulate", "--config", str(config_path),
                 "--out", str(out_b)]).returncode == 0
    for name in ("report.json", "report.kml", "metrics.csv",
                 "detections.jsonl"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_seed_override_changes_output(tmp_path, config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    _run(["simulate", "--config", str(config_path), "--out", str(out_a)])
    _run(["simulate", "--config", str(config_path), "--out", str(out_b),
          "--seed", "17"])
    assert (out_a / "report.json").read_bytes() != \
        (out_b / "report.json").read_bytes()


def test_simulate_bad_config_exits_1_without_outputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"plant": {"rows": "four"}}))
    out = tmp_path / "out"
    result = _run(["simulate", "--config", str(bad), "--out", str(out)])
    assert result.returncode == 1
    assert "config error" in result.stderr
    assert not out.exists()  # no partial outputs


@pytest.mark.parametrize("config,flags,where,key", [
    ({"flight": {"altitude": float("nan")}}, [], "$.flight", "altitude"),
    ({"render": {"psf_px": float("nan")}}, [], "$.render", "psf_px"),
    ({"render": {"ambient_c": -300}}, [], "$.render", "ambient_c"),
    ({"render": {"ambient_c": -273.15}}, [], "$.render", "ambient_c"),
    ({"plant": {"origin": [49.4, float("inf")]}}, [], "$.plant", "origin"),
    # an int past the float range is as non-finite as inf
    ({"camera": {"fx": 10 ** 400}}, [], "$.camera", "fx"),
    ({"camera": {"width": 0}}, [], "$.camera", "width"),
    ({"camera": {"height": 0}}, [], "$.camera", "height"),
    # removed key: unknown, no shim
    ({"telemetry": {"clahe": True}}, [], "$.telemetry:", "unknown key"),
    # match_radius_m is a top-level key
    ({"telemetry": {"match_radius_m": 1.0}}, [], "$.telemetry:",
     "unknown key"),
    ({"seed": -1}, [], "$.seed", "seed"),
    ({}, ["--seed", "-5"], "$.seed", "seed"),
    ({"start_utc": "yesterday"}, [], "$.start_utc", "start_utc"),
    ({"defects": {"count": -1}}, [], "$.defects", "count"),
    ({"defects": {"n_small": -1}}, [], "$.defects", "n_small"),
    # the defect mix is checked before the plant is generated
    ({"defects": {"sigma_m": 0}}, [], "$.defects", "sigma_m"),
    ({"defects": {"small_sigma_m": -1}}, [], "$.defects", "small_sigma_m"),
    ({"defects": {"excess_range_c": [-1.0, 9.0]}}, [], "$.defects",
     "excess_range_c"),
    ({"defects": {"small_excess_range_c": [6.0, 0]}}, [], "$.defects",
     "small_excess_range_c"),
    # the default plant has 10 x 10 modules
    ({"defects": {"count": 101}}, [], "$.defects", "count"),
    # removed key: the plant has no elevation, heights are above its surface
    ({"plant": {"elevation": 5.0}}, [], "$.plant.elevation", "unknown key"),
    # the survey area (plant plus half a footprint) must stay within the
    # 100 km tangent plane and off the poles
    ({"camera": {"fx": 1e-10, "fy": 1e-10}}, [], "$.plant", "survey area"),
    ({"camera": {"fx": 1e-300, "fy": 1e-300}}, [], "$.plant", "survey area"),
    ({"camera": {"fx": 1e-320, "fy": 1e-320}}, [], "$.plant", "survey area"),
    ({"plant": {"origin": [89.9999, 0]}}, [], "$.plant", "latitude"),
    ({"plant": {"origin": [-89.99999, 0]}}, [], "$.plant", "latitude"),
    ({"plant": {"rows": 200000}}, [], "$.plant", "100 km"),
    # the last pose's time, added to start_utc, must stay a datetime
    ({"flight": {"speed": 1e-12}}, [], "$.flight.speed", "timestamp"),
    ({"flight": {"speed": 1e-9}, "start_utc": "9999-12-01T00:00:00Z"}, [],
     "$.flight.speed", "timestamp"),
    # frames x pixels is bounded before any pose is built: a 0.8 x 0.64 mm
    # footprint plans about 1.1e9 frames, and a 1e5 x 1e5 raster would take
    # 80 GB per frame
    ({"flight": {"altitude": 1e-3}}, [], "$.flight:", "1116151785 frames"),
    ({"camera": {"width": 100000, "height": 100000}}, [], "$.flight:",
     "frame-pixels"),
    # and so are the frames: a 1e6 px focal length plans 214284 or 125010
    # frames, which pass the frame-pixel bound
    ({"camera": {"fx": 1e6}}, [], "$.flight:", "214284 frames"),
    ({"camera": {"fy": 1e6}}, [], "$.flight:", "125010 frames"),
    # a principal point whose pixel rays square past the float range, once
    # clutter is there to project or re-acquire
    ({"camera": {"cx": 1e200}, "noise": {"clutter_rate": 1.0}}, [],
     "$.camera.cx", "float range"),
    ({"camera": {"cy": -1e200}, "noise": {"clutter_rate": 1.0},
      "reacquisition": {"tau_ra": 0.95}}, [], "$.camera.cy", "float range"),
    # so are the clutter detections: the default plant's 24 frames at these
    # rates expect past 2**20
    ({"noise": {"clutter_rate": 1e300}}, [], "$.noise.clutter_rate:",
     "1048576"),
    ({"noise": {"clutter_rate": 1e6}}, [], "$.noise.clutter_rate:",
     "2.4e+07 clutter detections"),
    # and the clutter pairs within dedup.epsilon, which dedup's DBSCAN
    # visits: about 3.97 x rate**2 on the default plant, past 2**18
    ({"noise": {"clutter_rate": 300}}, [], "$.noise.clutter_rate:",
     "3.57e+05 pairs"),
    ({"noise": {"clutter_rate": 1000}}, [], "$.noise.clutter_rate:",
     "3.97e+06 pairs"),
    ({"noise": {"clutter_rate": 2000}}, [], "$.noise.clutter_rate:",
     "1.59e+07 pairs"),
    # a lone surrogate has no UTF-8 form for report.json and report.kml
    ({"site_id": "\ud800"}, [], "$.site_id:", "UTF-8"),
    ({"uav": "\ud800"}, [], "$.uav:", "UTF-8"),
    # removed key: every threshold detection has the one default class
    ({"detector": {"default_class": "hotspot"}}, [],
     "$.detector.default_class", "unknown key"),
    # removed key: "max_rounds": 0 turns re-acquisition off
    ({"reacquisition": {"enabled": False}}, [],
     "$.reacquisition.enabled", "unknown key"),
    # a negative blur or exposure; exposure_s -0.25 divided by zero and -1
    # made every blob cold, psf_px -1 read as +1
    ({"render": {"psf_px": -1}}, [], "$.render", "psf_px"),
    ({"render": {"exposure_s": -0.25}}, [], "$.render", "exposure_s"),
    ({"render": {"exposure_s": -1}}, [], "$.render", "exposure_s"),
    # the renderer squares psf_px and a blob's pixel sigma, up to sigma_m *
    # fx / 0.1 m: past about 1.3e154 px the square leaves the float range
    ({"render": {"psf_px": 1e300}}, [], "$.render", "psf_px"),
    ({"render": {"psf_px": 1e155}}, [], "$.render", "psf_px"),
    ({"defects": {"sigma_m": 1e300}}, [], "$.defects", "sigma_m"),
    ({"defects": {"small_sigma_m": 1e300}}, [], "$.defects",
     "small_sigma_m"),
    # the bound takes the renderer's nearest depth, not the altitude:
    # re-acquired views of clutter tilt the camera, and some of these
    # defects render under 0.75 m deep, where a sigma_m of 1e152 is past
    # 1.3e154 px
    ({"plant": {"rows": 60, "cols": 60},
      "defects": {"count": None, "density": 0.5, "min_separation_m": 0,
                  "sigma_m": 1e152},
      "reacquisition": {"tau_ra": 0.95}, "noise": {"clutter_rate": 5}}, [],
     "$.defects", "sigma_m"),
    # the default 10 x 10 plant has no room for these placements, found
    # only while the plant is generated
    ({"defects": {"min_separation_m": 7}}, [], "$.defects",
     "min_separation_m"),
    ({"defects": {"min_separation_m": 1e300}}, [], "$.defects",
     "min_separation_m"),
    ({"defects": {"count": None, "density": 1.0}}, [], "$.defects",
     "min_separation_m"),
    ({"defects": {"count": 100, "n_small": 0}}, [], "$.defects",
     "min_separation_m"),
    # detect's median adds two middle pixels: past half the float range
    # the sum overflows, the ambient reads inf and nothing is detected
    ({"render": {"ambient_c": 9e307}}, [], "$.render", "ambient_c"),
    ({"render": {"ambient_c": 1e308}}, [], "$.render", "ambient_c"),
    # and so does the renderer's sum of ambient_c and every blob's peak
    # excess: nine blobs of up to 1.7e308 C pass the float range
    ({"plant": {"rows": 3, "cols": 3},
      "defects": {"count": 9, "n_small": 0,
                  "excess_range_c": [1e308, 1.7e308], "sigma_m": 2.0,
                  "min_separation_m": 0}}, [], "$.defects.excess_range_c",
     "9 defects of up to 1.7e+308 C"),
    ({"plant": {"rows": 3, "cols": 3},
      "defects": {"count": 9, "n_small": 9,
                  "small_excess_range_c": [1e308, 1.7e308],
                  "small_sigma_m": 2.0, "min_separation_m": 0}}, [],
     "$.defects.small_excess_range_c", "9 defects of up to 1.7e+308 C"),
    # so is one frame's raster, before the renderer allocates it: a frame
    # 1e6 pixels wide or high is a float64 raster of 512 or 640 MB
    ({"camera": {"width": 1000000}}, [], "$.camera.width",
     "1000000x64 frame has more than the 4194304 pixels"),
    ({"camera": {"height": 1000000}}, [], "$.camera.height",
     "80x1000000 frame has more than the 4194304 pixels"),
    # a clutter box's corner is drawn from 2 to the size less 4 pixels
    ({"camera": {"width": 5, "height": 5}, "noise": {"clutter_rate": 0.05}},
     [], "$.camera.width", "clutter boxes"),
    ({"camera": {"height": 5}, "noise": {"clutter_rate": 0.05}}, [],
     "$.camera.height", "clutter boxes"),
    # the defect count is bounded before placement: a density's draw over
    # more than 2^63 modules exited 2 from numpy, and one expecting 8e8
    # defects placed them with no end in sight
    ({"plant": {"rows": 10 ** 10, "cols": 10 ** 10,
                "module_size": [1e-300, 1e-300], "pitch": [1e-300, 1e-300]},
      "defects": {"count": None, "density": 0.08}}, [], "$.defects.density",
     "100000000000000000000 modules"),
    ({"plant": {"rows": 100000, "cols": 100000, "module_size": [1e-9, 1e-9],
                "pitch": [1e-9, 1e-9]},
      "defects": {"count": None, "density": 0.08}}, [], "$.defects.density",
     "expect about 8e+08 defects, more than the 65536"),
    ({"plant": {"rows": 300, "cols": 300},
      "defects": {"count": 70000}}, [], "$.defects.count",
     "expect about 7e+04 defects, more than the 65536"),
], ids=["altitude-nan", "psf_px-nan", "ambient_c-below-absolute-zero",
        "ambient_c-absolute-zero", "origin-inf", "fx-huge-int", "width-0",
        "height-0", "clahe", "telemetry-match_radius_m", "seed-negative",
        "seed-flag-negative", "start_utc-unparsable", "count-negative",
        "n_small-negative", "sigma_m-0", "small_sigma_m-negative",
        "excess_range_c-negative", "small_excess_range_c-0",
        "count-above-modules", "elevation", "fx-1e-10",
        "fx-1e-300", "fx-1e-320", "origin-north-pole", "origin-south-pole",
        "rows-past-100km", "speed-1e-12", "speed-past-year-9999",
        "altitude-1e-3", "raster-1e5x1e5", "fx-1e6", "fy-1e6", "cx-1e200",
        "cy--1e200-reacquired", "clutter_rate-1e300",
        "clutter_rate-1e6", "clutter_rate-300", "clutter_rate-1000",
        "clutter_rate-2000", "site_id-surrogate", "uav-surrogate",
        "default_class", "enabled", "psf_px-negative", "exposure_s--0.25",
        "exposure_s--1", "psf_px-1e300", "psf_px-1e155", "sigma_m-1e300",
        "small_sigma_m-1e300", "sigma_m-1e152-tilted-views",
        "min_separation_m-7", "min_separation_m-1e300", "density-1",
        "count-all-modules", "ambient_c-9e307", "ambient_c-1e308",
        "excess_range_c-1.7e308", "small_excess_range_c-1.7e308",
        "width-1e6", "height-1e6", "width-5-clutter", "height-5-clutter",
        "density-over-1e20-modules", "density-over-1e10-modules",
        "count-70000"])
def test_simulate_bad_numbers_and_removed_keys_exit_1(tmp_path, capsys, config,
                                                      flags, where, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(path), "--out", str(out),
                 *flags])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"config error: {where}" in err
    assert key in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"seed": 1, "plant": {"rows": 40, "cols": 40},
     "defects": {"count": None, "density": 0.08},
     "render": {"vignette": 0.999999999999999}},
    {"seed": 1, "flight": {"speed": 1e300}},
    {"render": {"ambient_c": 1e300}},
    {"render": {"exposure_s": 1e300}},
], ids=["vignette-near-1", "speed-1e300", "ambient_c-1e300",
        "exposure_s-1e300"])
def test_simulate_blobs_whose_window_misses_the_raster_exit_0(tmp_path, capsys,
                                                              config):
    # Each config renders a blob that passes the 4-sigma test yet whose
    # windowed radius stops short of the raster; it adds nothing.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(path), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert (out / "report.json").exists()


@pytest.mark.parametrize("config", [
    {"render": {"psf_px": 1e150}},
    # sigma_m * fx / 0.1 m = 1e154 px, whose square is about 1e308
    {"defects": {"sigma_m": 1e151}},
    # eight blobs of 1e300 C over ambient sum within the float range
    {"defects": {"excess_range_c": [1e300, 1e300]}},
], ids=["psf_px-1e150", "sigma_m-1e151", "excess_range_c-1e300"])
def test_simulate_render_squares_within_the_float_range_exit_0(tmp_path,
                                                               capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(path), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert (out / "report.json").exists()


def test_simulate_prints_a_config_error_once(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": -1}))
    result = _run(["simulate", "--config", str(path),
                   "--out", str(tmp_path / "out")])
    assert result.returncode == 1
    assert result.stderr.count("config error:") == 1


def test_simulate_drops_detections_whose_corner_misses_the_ground(tmp_path):
    # Large gimbal noise tilts some measured views until a corner ray no
    # longer descends; those detections are dropped and counted.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"noise": {"att_sigma_rad": 0.8}}))
    out = tmp_path / "out"
    result = _run(["simulate", "--config", str(path), "--out", str(out)])
    assert result.returncode == 0, result.stderr
    summary = (out / "summary.txt").read_text()
    failed = int(summary.split("projection_failed=")[1].split()[0])
    assert failed > 0
    assert result.stdout == summary


def test_simulate_across_the_antimeridian_exits_zero(tmp_path):
    # The plant's east edge lies past lon 180, where longitudes wrap to -180.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"plant": {"origin": [10.0, 179.99995]}}))
    out = tmp_path / "out"
    result = _run(["simulate", "--config", str(path), "--out", str(out)])
    assert result.returncode == 0, result.stderr
    assert "recall=1.0000" in (out / "summary.txt").read_text()
    lons = [d["centroid_wgs84"][1] for d in
            json.loads((out / "report.json").read_text())["detections"]]
    assert min(lons) < 0.0 < max(lons)


def test_simulate_near_the_south_pole_exits_zero(tmp_path, capsys):
    # The survey area reaches to within a few meters of the pole.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"plant": {"origin": [-89.9999, 0]}}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0, \
        capsys.readouterr().err
    assert (out / "report.json").exists()


def test_simulate_counts_ground_points_past_the_tangent_plane(tmp_path,
                                                              capsys):
    # From 20 km up, tilted views meet the ground more than 100 km away;
    # those detections are counted as projection_failed, not fatal.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "flight": {"altitude": 20000},
        "noise": {"att_sigma_rad": 0.8, "clutter_rate": 5.0}}))
    for seed in ("0", "1", "2"):
        out = tmp_path / f"out-{seed}"
        code = main(["simulate", "--config", str(path), "--out", str(out),
                     "--seed", seed])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "Traceback" not in captured.err
        failed = int(captured.out.split("projection_failed=")[1].split()[0])
        assert failed > 0


def test_simulate_infeasible_placement_exits_1(tmp_path):
    # A separation no plant of this size can satisfy: run_mission finds it
    # while generating the plant, and the message names the config key.
    impossible = dict(SMALL_CONFIG,
                      defects={"count": 10, "min_separation_m": 50.0})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(impossible))
    out = tmp_path / "out"
    result = _run(["simulate", "--config", str(path), "--out", str(out)])
    assert result.returncode == 1
    assert result.stderr == ("config error: $.defects.min_separation_m: "
                             "cannot place 10 defects 50 m apart in 20000 "
                             "attempts\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# dedup round trip via the interchange file
# ---------------------------------------------------------------------------

def test_dedup_cli_round_trip(tmp_path, config_path):
    out = tmp_path / "out"
    _run(["simulate", "--config", str(config_path), "--out", str(out)])
    dedup_out = tmp_path / "events.json"
    result = _run(["dedup", "--input", str(out / "detections.jsonl"),
                   "--epsilon", "1.0", "--out", str(dedup_out)])
    assert result.returncode == 0, result.stderr
    assert "detections in:" in result.stdout
    events = json.loads(dedup_out.read_bytes())
    report = json.loads((out / "report.json").read_bytes())
    assert len(events) == len(report["detections"])


def test_dedup_cli_invalid_epsilon_exits_1(tmp_path):
    data = tmp_path / "in.jsonl"
    data.write_text("")
    result = _run(["dedup", "--input", str(data), "--epsilon", "-1",
                   "--out", str(tmp_path / "o.json")])
    assert result.returncode == 1


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_dedup_cli_non_finite_epsilon_exits_1(tmp_path, epsilon):
    data = tmp_path / "in.jsonl"
    data.write_text("")
    out = tmp_path / "o.json"
    result = _run(["dedup", "--input", str(data), "--epsilon", epsilon,
                   "--out", str(out)])
    assert result.returncode == 1
    assert "usage error" in result.stderr
    assert not out.exists()


def test_config_rejects_non_finite_radii():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="epsilon"):
            config_from_dict({"dedup": {"epsilon": bad}})
        with pytest.raises(ConfigError, match=r"\$\.match_radius_m"):
            config_from_dict({"match_radius_m": bad})
    with pytest.raises(ConfigError, match=r"\$\.match_radius_m"):
        config_from_dict({"match_radius_m": 0.0})


@pytest.mark.parametrize("edit,message", [
    (_set(["media"], ["a.jpg"]), "media: expected an object"),
    (_set(["media", "rgb"], 5), "media.rgb: expected a string"),
    (_set(["class"], ["hotspot"]), "class: expected a string"),
    (_set(["temp_C"], "hot"), "temp_C: expected a finite number"),
    (_set(["frame_id"], None), "frame_id: expected a string"),
    (_set(["centroid_wgs84", 1], 10 ** 400),
     "centroid_wgs84: expected a finite number"),
    (_set(["centroid_wgs84"], [49.4, 26.9, 0]),
     "centroid_wgs84: expected [lat, lon]"),
    (_set(["polygon_wgs84", 1], [49.4, "x"]),
     "polygon_wgs84: expected a finite number"),
    (_drop("polygon_wgs84"), "polygon_wgs84: missing"),
    (_set(["bbox", 2], 1e400), "bbox: expected a finite number"),
    (_set(["bbox", 2], "x"), "bbox: expected a finite number"),
    (_set(["bbox"], [1, 2, 5]), "bbox: expected [x_min, y_min, x_max, y_max]"),
    (_set(["conf"], math.nan), "conf: expected a finite number, got nan"),
    (_set(["centroid_wgs84", 0], math.inf),
     "centroid_wgs84: expected a finite number, got inf"),
    (_set(["polygon_wgs84", 0, 1], True),
     "polygon_wgs84: expected a finite number, got True"),
    (_set(["polygon_wgs84", 2, 0], -10 ** 400),
     "polygon_wgs84: expected a finite number, got -1000"),
    (_set(["centroid_wgs84"], ["49.4", "26.9"]),
     "centroid_wgs84: expected a finite number, got '49.4'"),
    (_set(["conf"], 1.5), "confidence must lie in [0, 1]"),
    (_set(["conf"], -0.1), "confidence must lie in [0, 1]"),
    (_set(["bbox"], [5.0, 2.0, 1.0, 6.0]), "degenerate bounding box"),
    (_set(["polygon_wgs84", 1], [49.4, 26.9]),
     "consecutive duplicate polygon vertices"),
    (_set(["centroid_wgs84", 0], 95.0), "latitude out of range: 95.0"),
    (_set(["class"], "\ud800"), "class: expected a string UTF-8 can encode"),
    # With several faults, the field checks run before the box check.
    (lambda r: _set(["temp_C"], "hot")(
        _set(["bbox"], [5.0, 2.0, 1.0, 6.0])(r)),
     "temp_C: expected a finite number"),
    (_set(["polygon_wgs84", 1], [95.0, 26.91]),
     "latitude out of range: 95.0"),
    (_set(["polygon_wgs84"], [[49.4, 26.9], [49.4, 26.91]]),
     "polygon needs at least 3 vertices"),
    (_set(["polygon_wgs84", 0], 49.4),
     "polygon_wgs84: expected [lat, lon], got 49.4"),
    (_set(["polygon_wgs84"], {"0": [49.4, 26.9]}),
     "polygon_wgs84: expected a list"),
    (_drop("bbox"), "bbox: missing"),
    (lambda r: [r], "record: expected an object"),
    (_set(["media", "tiff"], "\udc80"),
     "media.tiff: expected a string UTF-8 can encode"),
    # Lines that are not exactly one JSON value: json.loads reads them.
    (lambda r: "  " + json.dumps(_set(["conf"], "x")(r)),
     "conf: expected a finite number"),
    (lambda r: json.dumps(_set(["conf"], "x")(r)) + "\r",
     "conf: expected a finite number"),
    (lambda r: "\ufeff" + json.dumps(r),
     "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1"),
    (lambda r: json.dumps(r) + " {}", "Extra data: line 1 column"),
    # Lines of white space that is not JSON's: records json.loads rejects.
    (lambda r: "\u00a0", "Expecting value: line 1 column 1 (char 0)"),
    (lambda r: "\u2028", "Expecting value: line 1 column 1 (char 0)"),
    (lambda r: "\x1c", "Expecting value: line 1 column 1 (char 0)"),
    (lambda r: "\x0b", "Expecting value: line 1 column 1 (char 0)"),
    (lambda r: " \t\x0c\r", "Expecting value: line 1 column 3 (char 2)"),
], ids=["media-list", "media-rgb-number", "class-list", "temp-string",
        "frame-id-null", "lon-huge-int", "centroid-three-entries",
        "vertex-string", "polygon-missing", "bbox-overflow", "bbox-string",
        "bbox-three-entries", "conf-nan-literal", "lat-infinity-literal",
        "vertex-true", "vertex-huge-negative-int", "centroid-strings",
        "conf-above-1", "conf-negative", "bbox-degenerate",
        "polygon-repeated-vertex", "lat-95", "class-surrogate",
        "bbox-degenerate-and-temp-string", "vertex-lat-95",
        "polygon-2-vertices", "vertex-number", "polygon-object",
        "bbox-missing", "record-list", "tiff-surrogate",
        "leading-spaces", "trailing-cr", "bom", "extra-data",
        "nbsp-line", "line-separator-line", "file-separator-line",
        "vt-line", "ff-line"])
def test_dedup_cli_malformed_record_exits_1(tmp_path, capsys, edit, message):
    # An edit returns the record, or the text of the line.
    record = {"frame_id": "f0001", "timestamp": "2025-09-30T10:00:01Z",
              "class": "hotspot", "conf": 0.8, "temp_C": 40.0,
              "bbox": [1.0, 2.0, 5.0, 6.0], "centroid_wgs84": [49.4, 26.9],
              "polygon_wgs84": [[49.4, 26.9], [49.4, 26.91], [49.41, 26.91]],
              "media": {"rgb": "f0001.jpg", "tiff": "f0001.tif"}}
    first = json.dumps(record)
    line = edit(record)
    if not isinstance(line, str):
        line = json.dumps(line)
    data = tmp_path / "in.jsonl"
    data.write_text(first + "\n" + line + "\n")
    out = tmp_path / "o.json"
    code = main(["dedup", "--input", str(data), "--epsilon", "1.0",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"parse error: line 2: {message}" in err
    # The object-building parser rejects the record with the same message.
    with pytest.raises(TelemetryError) as oracle:
        parse_detection_record_lines_objects(data.read_bytes())
    assert err == f"parse error: {oracle.value}\n"
    assert "Traceback" not in err
    assert not out.exists()


# A polygon spanning more than the 100 km tangent plane.
BEYOND_PLANE = {"class": "hotspot", "conf": 0.9, "temp_C": 40.0,
                "bbox": [0.0, 0.0, 2.0, 2.0], "centroid_wgs84": [50.0, 27.0],
                "polygon_wgs84": [[49, 26], [49, 29], [51, 29]]}


@pytest.mark.parametrize("data,message", [
    (b"\xff\n", "parse error: input is not UTF-8"),
    (json.dumps(BEYOND_PLANE).encode(),
     "invalid input: points farther than 100 km apart"),
    (b'{"bbox": ' + b"[" * 1200 + b"]" * 1200 + b"}\n",
     "parse error: line 1: JSON nested too deeply"),
    # Input that is not UTF-8 anywhere wins over an earlier bad record.
    (b'{"class": "hotspot"}\n\n\xff\n',
     "parse error: input is not UTF-8: 'utf-8' codec can't decode byte 0xff "
     "in position 22: invalid start byte"),
], ids=["not-utf8", "polygon-beyond-tangent-plane", "nested-1200-deep",
        "bad-record-then-not-utf8"])
def test_dedup_cli_bad_input_exits_1(tmp_path, capsys, data, message):
    path = tmp_path / "in.jsonl"
    path.write_bytes(data)
    out = tmp_path / "o.json"
    code = main(["dedup", "--input", str(path), "--epsilon", "1.0",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


def _dedup_ranges(tmp_path, capsys, monkeypatch, cpus, bad):
    """(exit code, stderr) of `dedup` with ``cpus`` usable CPUs over 600
    copies of a golden sighting in each of the classes a, b and c, so that
    each class is one range on three CPUs (a + b and c on two), and
    ``bad``, a dict of class -> the anchor latitude of a record in that
    class whose polygon spans more than the tangent plane. Each
    tangent-plane error names its anchor latitude, and no child is left."""
    good = json.loads(GOLDEN_DETECTIONS.read_bytes().splitlines()[0])
    records = [dict(good, **{"class": c}) for c in "abc" for _ in range(600)]
    records += [dict(BEYOND_PLANE, **{"class": c, "polygon_wgs84": [
        [lat, 26], [lat, 29], [lat + 2, 29]]}) for c, lat in bad.items()]
    path = tmp_path / "in.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    tangent_offsets = dedup.tangent_offsets

    def anchored(lat0, lon0, vertices):
        try:
            return tangent_offsets(lat0, lon0, vertices)
        except GeodesyError as exc:
            raise GeodesyError(f"{exc} from {lat0}") from None

    out = tmp_path / "o.json"
    with monkeypatch.context() as patch:
        patch.setattr(dedup, "tangent_offsets", anchored)
        patch.setattr("pvpipeline.workers.usable_cpus", lambda: cpus)
        code = main(["dedup", "--input", str(path), "--epsilon", "1.0",
                     "--out", str(out)])
    _no_child_left()
    assert not out.exists()
    return code, capsys.readouterr().err


def test_dedup_fails_in_a_forked_class_range_as_in_process(tmp_path, capsys,
                                                            monkeypatch):
    # The bad record is in class c, the last range: its error comes from a
    # child, through the pipe, as the same one line the serial path prints.
    message = ("invalid input: points farther than 100 km apart: tangent "
               "plane invalid from 49.0\n")
    for cpus in (1, 2, 3):
        assert _dedup_ranges(tmp_path, capsys, monkeypatch, cpus,
                             {"c": 49.0}) == (1, message)


@pytest.mark.parametrize("early", ["a", "b"], ids=["range-0", "range-1"])
def test_dedup_raises_the_first_error_in_class_order(tmp_path, capsys,
                                                     monkeypatch, early):
    # A second bad record in an earlier range, in process (a) or in the
    # first child (b), wins over the one in the last range, as in process.
    message = ("invalid input: points farther than 100 km apart: tangent "
               "plane invalid from 10.0\n")
    for cpus in (1, 3):
        assert _dedup_ranges(tmp_path, capsys, monkeypatch, cpus,
                             {early: 10.0, "c": 49.0}) == (1, message)


def test_dedup_of_a_directory_cannot_read(tmp_path, capsys):
    out = tmp_path / "o.json"
    code = main(["dedup", "--input", str(tmp_path), "--epsilon", "1.0",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"cannot read {tmp_path}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("min_pts", [57, 58, 10 ** 20])
def test_dedup_with_min_pts_past_the_sightings_is_all_noise(tmp_path, capsys,
                                                           min_pts):
    # With min_pts at or above the 57 golden sightings no point is core:
    # one event per sighting, for a min_pts past sys.maxsize too.
    out = tmp_path / "o.json"
    code = main(["dedup", "--input", str(GOLDEN_DETECTIONS), "--epsilon",
                 "1.0", "--min-pts", str(min_pts), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert len(json.loads(out.read_bytes())) == 57
    assert captured.out == "detections in: 57  events out: 57\n"


def test_simulate_with_min_pts_past_sys_maxsize_exits_0(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMALL_CONFIG,
                                    dedup={"min_pts": 10 ** 20})))
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(path), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    sightings = (out / "detections.jsonl").read_bytes().count(b"\n")
    assert sightings > 0
    assert len(json.loads((out / "report.json").read_bytes())
               ["detections"]) == sightings


def test_dedup_of_4000_co_located_sightings_is_one_event(tmp_path, capsys):
    # 4,000 copies of one sighting fill one DBSCAN sub-cell: all core, one
    # cluster, with no neighbour list stored.
    golden = (GOLDEN_DETECTIONS.parents[1] / "clutter_miss"
              / "detections.jsonl")
    line = golden.read_text(encoding="utf-8").splitlines()[0]
    path = tmp_path / "in.jsonl"
    path.write_text((line + "\n") * 4000, encoding="utf-8")
    out = tmp_path / "o.json"
    code = main(["dedup", "--input", str(path), "--epsilon", "1.0",
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert len(json.loads(out.read_bytes())) == 1


def test_dedup_reads_a_line_separator_inside_a_string(tmp_path, capsys):
    # Records end at "\n" only: a raw U+2028 (or U+2029, U+0085) inside a
    # JSON string is part of the string, not a line break.
    record = {"class": "hotspot", "conf": 0.8, "temp_C": 40.0,
              "bbox": [1.0, 2.0, 5.0, 6.0], "centroid_wgs84": [49.4, 26.9],
              "polygon_wgs84": [[49.4, 26.9], [49.4, 26.91], [49.41, 26.91]],
              "media": {"rgb": "a\u2028b\u2029c\x85d.jpg", "tiff": "a.tif"}}
    raw = (json.dumps(record, ensure_ascii=False) + "\r\n").encode("utf-8")
    path = tmp_path / "in.jsonl"
    path.write_bytes(raw)
    out = tmp_path / "o.json"
    code = main(["dedup", "--input", str(path), "--epsilon", "1.0",
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert json.loads(out.read_bytes())[0]["media"]["rgb"] == \
        record["media"]["rgb"]
    assert parse_detection_record_lines(raw) == \
        parse_detection_record_lines_objects(raw)


def test_dedup_of_integer_numbers_writes_them_as_floats(tmp_path, capsys):
    # Integer conf, temp_C, bbox and latitudes (a temp_C past 2**53 and one
    # just under the float range among them) are held as floats, and the
    # events are byte for byte those of a table that kept the ints: two
    # sightings merge into one hull, and a collinear one keeps its ring.
    big = int(sys.float_info.max) - 1
    records = [
        {"bbox": [1, 2, 5, 6], "class": "hotspot", "conf": 1, "temp_C": 48,
         "centroid_wgs84": [49, 26.9842],
         "polygon_wgs84": [[49, 26.98419], [49, 26.98421],
                           [49.00001, 26.98421], [49.00001, 26.98419]]},
        {"bbox": [0, 0, 3, 3], "class": "hotspot", "conf": 0,
         "temp_C": 10 ** 17 + 1, "centroid_wgs84": [49, 26.984201],
         "polygon_wgs84": [[49, 26.984191], [49, 26.984211],
                           [49.00001, 26.984211], [49.00001, 26.984191]]},
        {"bbox": [10, 10, 12, 12], "class": "soiling", "conf": 1,
         "temp_C": big, "centroid_wgs84": [0, 10],
         "polygon_wgs84": [[0, 10], [0, 10.00001], [0, 10.00002]]},
    ]
    path = tmp_path / "in.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records),
                    encoding="utf-8")
    out = tmp_path / "events.json"
    code = main(["dedup", "--input", str(path), "--epsilon", "1.0",
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert out.read_bytes() == (
        '[{"id":"clu_000","class":"hotspot","conf":1.00,'
        '"temp_C":100000000000000000.00,'
        '"centroid_wgs84":[49.000005,26.984200],'
        '"polygon_wgs84":[[49.000000,26.984190],[49.000000,26.984211],'
        '[49.000010,26.984211],[49.000010,26.984190]],'
        '"media":{"rgb":"","tiff":""}},'
        '{"id":"clu_001","class":"soiling","conf":1.00,'
        f'"temp_C":{sys.float_info.max:.2f},'
        '"centroid_wgs84":[0.000000,10.000010],'
        '"polygon_wgs84":[[0.000000,10.000000],[0.000000,10.000010],'
        '[0.000000,10.000020]],"media":{"rgb":"","tiff":""}}]'
    ).encode("utf-8")


def test_export_kml_of_integer_numbers_prints_them_as_floats(tmp_path,
                                                             capsys):
    # The export-kml twin of the dedup test above: a report's integer conf,
    # temp_C and vertex latitude are held as floats, so a temp_C of
    # 10**17 + 1, past 2**53, prints as the float it rounds to.
    report = json.loads(GOLDEN_REPORT.read_text())
    record = report["detections"][0]
    record.update(conf=1, temp_C=10 ** 17 + 1)
    record["polygon_wgs84"][0] = [49, 26.98417]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    out = tmp_path / "report.kml"
    code = main(["export-kml", "--report", str(path), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    kml = out.read_text(encoding="utf-8")
    assert ("<description>class=hotspot conf=1.00 "
            "temp_C=100000000000000000.00</description>") in kml
    assert "<coordinates>26.984170,49.000000,0 " in kml


def _key_paths(obj, path=()):
    """Key path of every value nested in a parsed JSON object."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    paths = []
    for key, value in items:
        paths += [path + (key,)] + _key_paths(value, path + (key,))
    return paths


def _mutated_golden_lines(data, least: int = 1) -> list:
    """The golden sightings' lines, ``least`` to three of them (drawn with
    repeats) each with one value replaced by any JSON value or dropped."""
    lines = GOLDEN_DETECTIONS.read_text(encoding="utf-8").splitlines()
    for _ in range(data.draw(st.integers(least, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        record = json.loads(lines[i])
        path = data.draw(st.sampled_from(_key_paths(record)))
        if data.draw(st.booleans()):
            record = _set(path, data.draw(JSON_VALUES))(record)
        else:
            parent = record
            for key in path[:-1]:
                parent = parent[key]
            del parent[path[-1]]
        lines[i] = json.dumps(record)
    return lines


@settings(max_examples=200)
@given(data=st.data())
def test_dedup_cli_survives_mutated_records(data):
    # One to three golden records, each with one value replaced by any JSON
    # value or dropped: dedup exits 0 or 1, never with a traceback.
    lines = _mutated_golden_lines(data)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        data_path = pathlib.Path(tmp) / "in.jsonl"
        data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["dedup", "--input", str(data_path), "--epsilon",
                         "1.0", "--out", str(pathlib.Path(tmp) / "o.json")])
    assert code in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _parse_outcome(parse, data) -> str:
    """The repr of the Sightings table ``parse`` makes of ``data``, which
    tells an int from a float, or its error message."""
    try:
        return repr(parse(data))
    except TelemetryError as exc:
        return f"error: {exc}"


@settings(max_examples=200)
@given(data=st.data())
def test_column_parser_matches_the_object_parser(data):
    # The golden sightings, or up to three of their records mutated as in
    # test_dedup_cli_survives_mutated_records: the column parser and the
    # object-building one both accept with equal values, or both reject
    # with the same `line N: ...` message, from bytes or from a file.
    lines = _mutated_golden_lines(data, least=0)
    raw = ("\n".join(lines) + "\n").encode("utf-8")
    expected = _parse_outcome(parse_detection_record_lines_objects, raw)
    assert _parse_outcome(parse_detection_record_lines, raw) == expected
    assert _parse_outcome(parse_detection_record_lines, io.BytesIO(raw)) == \
        expected


@pytest.mark.parametrize("data", [
    b'{"class": "hotspot"}\n{}\n"\xff"\n',
    b'{"class": "hotspot"}\n"\xe2\x82\n',
    b'[]\n"caf\xc3\xa9"\n"\xc3',
    b'{"bbox": ' + b"[" * 1200 + b"]" * 1200 + b'}\n\xff\n',
    b'"\xff"\n{"class": "hotspot"}\n',
], ids=["bad-byte-after-bad-record", "cut-sequence-after-bad-record",
        "cut-sequence-at-the-end", "bad-byte-after-deep-nesting",
        "bad-byte-on-line-1"])
def test_input_not_utf8_anywhere_wins_over_a_bad_record(data):
    # The codec's message names the byte's position in the whole input,
    # as one decode of the whole input does.
    expected = _parse_outcome(parse_detection_record_lines_objects, data)
    assert expected.startswith("error: input is not UTF-8: 'utf-8' codec")
    assert _parse_outcome(parse_detection_record_lines, data) == expected
    assert _parse_outcome(parse_detection_record_lines, io.BytesIO(data)) == \
        expected


def test_dedup_cli_malformed_input_names_line(tmp_path):
    data = tmp_path / "in.jsonl"
    data.write_text('{"class": "hotspot"}\n')
    result = _run(["dedup", "--input", str(data), "--epsilon", "1.0",
                   "--out", str(tmp_path / "o.json")])
    assert result.returncode == 1
    assert "line 1" in result.stderr


# ---------------------------------------------------------------------------
# fuse-check and reacquire-demo
# ---------------------------------------------------------------------------

def test_fuse_check_passes():
    result = _run(["fuse-check", "--seed", "0", "--dim", "8"])
    assert result.returncode == 0, result.stderr
    for term in ("palette", "gate", "focal", "giou", "composite"):
        assert term in result.stdout


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_fuse_check_rejects_a_dim_below_1(capsys, dim):
    assert main(["fuse-check", "--dim", dim]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: --dim")
    assert captured.out == ""


@pytest.mark.parametrize("flag,value", [("--seed", "-1"),
                                        ("--dim", str(MAX_FUSE_DIM + 1))])
def test_fuse_check_rejects_a_negative_seed_and_a_dim_past_the_cap(
        capsys, monkeypatch, flag, value):
    from pvpipeline import cli

    def no_work(**kwargs):
        raise AssertionError("fuse-check ran before rejecting its arguments")

    monkeypatch.setattr(cli, "run_fuse_check", no_work)
    assert main(["fuse-check", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: {flag}")
    assert captured.out == ""


def test_fuse_check_broken_term_exits_3(monkeypatch, capsys):
    from pvpipeline import fusion
    giou_loss_grad = fusion.giou_loss_grad

    def scaled(a, b):
        loss, grad = giou_loss_grad(a, b)
        return loss, 2.0 * grad

    monkeypatch.setattr(fusion, "giou_loss_grad", scaled)
    assert main(["fuse-check"]) == 3
    assert any(line.startswith("giou") and line.endswith("FAIL")
               for line in capsys.readouterr().out.splitlines())


def test_reacquire_demo_reports_subpixel_reprojection():
    result = _run(["reacquire-demo", "--pixel", "70,10", "--fx", "100",
                   "--fy", "100", "--cx", "39.5", "--cy", "31.5",
                   "--alt", "12"])
    assert result.returncode == 0, result.stderr
    line = next(l for l in result.stdout.splitlines()
                if "reprojection_px" in l)
    assert float(line.split(":")[-1]) < 1e-9


@pytest.mark.parametrize("pitch", ["-270", "-120", "120", "270"])
def test_reacquire_demo_reprojects_from_a_gimbal_past_vertical(pitch,
                                                               capsys):
    # Past +-90 degrees the gimbal is over the top, and at +-270 its
    # boresight is vertical with a yaw of 180 degrees.
    assert main(["reacquire-demo", "--pixel", "70,10", "--fx", "100",
                 "--fy", "100", "--cx", "39.5", "--cy", "31.5",
                 "--gimbal-pitch", pitch]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines()
                if "reprojection_px" in l)
    assert float(line.split(":")[-1]) < 1e-9


def test_reacquire_demo_ground_point_past_the_tangent_plane(capsys):
    # The solution still prints; the ground point, 173 km out, does not.
    assert main(["reacquire-demo", "--pixel", "39.5,31.5", "--fx", "100",
                 "--fy", "100", "--cx", "39.5", "--cy", "31.5",
                 "--alt", "100000", "--gimbal-pitch", "-30"]) == 0
    captured = capsys.readouterr()
    assert "reprojection_px" in captured.out
    assert "ground projection:  no intersection" in captured.out
    assert captured.err == ""


def test_reacquire_demo_reprojects_through_the_command(monkeypatch, capsys):
    # The reprojection applies the printed command, so a wrong yaw shows.
    from pvpipeline import reacquisition
    repoint = reacquisition.repoint

    def off_by_yaw(*args):
        new = repoint(*args)
        return reacquisition.Attitude(pitch=new.pitch, yaw=new.yaw + 0.05)

    monkeypatch.setattr(reacquisition, "repoint", off_by_yaw)
    assert main(["reacquire-demo", "--pixel", "70,10", "--fx", "100",
                 "--fy", "100", "--cx", "39.5", "--cy", "31.5"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines()
                if "reprojection_px" in l)
    assert float(line.split(":")[-1]) > 1.0


@pytest.mark.parametrize("fx", ["1e-320", "1e-300"])
def test_reacquire_demo_overflowing_ray_exits_1(fx, capsys):
    # (70 - 39.5) / fx leaves the float range: no NaN solution is printed.
    assert main(["reacquire-demo", "--pixel", "70,10", "--fx", fx,
                 "--fy", "100", "--cx", "39.5", "--cy", "31.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid arguments: ray of pixel")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", ["--fx", "--fy", "--cx", "--cy", "pixel u",
                                    "pixel v", "--alt", "--gimbal-pitch"])
def test_reacquire_demo_non_finite_numbers_exit_1(option, bad, capsys):
    values = {"pixel u": "70", "pixel v": "10", "--fx": "100", "--fy": "100",
              "--cx": "39.5", "--cy": "31.5", "--alt": "12", "--gimbal-pitch": "-90"}
    values[option] = bad
    argv = ["reacquire-demo",
            f"--pixel={values.pop('pixel u')},{values.pop('pixel v')}"]
    argv += [f"{name}={value}" for name, value in values.items()]
    assert main(argv) == 1
    assert "invalid arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# export-kml and logging env var
# ---------------------------------------------------------------------------

def test_export_kml(tmp_path, config_path):
    out = tmp_path / "out"
    _run(["simulate", "--config", str(config_path), "--out", str(out)])
    kml = tmp_path / "again.kml"
    result = _run(["export-kml", "--report", str(out / "report.json"),
                   "--out", str(kml)])
    assert result.returncode == 0, result.stderr
    assert kml.read_bytes() == (out / "report.kml").read_bytes()


def test_export_kml_missing_report_exits_1(tmp_path):
    result = _run(["export-kml", "--report", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o.kml")])
    assert result.returncode == 1


@pytest.mark.parametrize("edit,message", [
    (lambda r: [r], "report: expected an object"),
    (_set(["detections"], {"clu_000": {}}), "detections: expected a list"),
    (_set(["detections", 0, "media"], ["a.jpg", "a.tiff"]),
     "detections[0].media: expected an object"),
    (_set(["detections", 0, "polygon_wgs84", 0], [0]),
     "detections[0].polygon_wgs84: expected [lat, lon]"),
    (_set(["detections", 0, "conf"], "hi"),
     "detections[0].conf: expected a finite number"),
    (_set(["detections", 0, "temp_C"], 10 ** 400),
     "detections[0].temp_C: expected a finite number"),
    (_set(["detections", 0, "id"], 7), "detections[0].id: expected a string"),
    (_set(["ts_utc"], 20250930), "ts_utc: expected a string"),
    (lambda r: {k: v for k, v in r.items() if k != "uav"}, "uav: missing"),
    (_set(["detections", 0, "id"], "\ud800"),
     "detections[0].id: expected a string UTF-8 can encode"),
    (_set(["detections", 0, "centroid_wgs84", 0], 90.5),
     "detections[0].centroid_wgs84: latitude out of range"),
    (_set(["detections", 0, "id"], ""),
     "detections[0].id: expected a non-empty string"),
    (_set(["detections", 0, "polygon_wgs84"], [[49.4, 26.9], [49.5, 26.9]]),
     "detections[0].polygon_wgs84: expected at least 3 vertices"),
    (_set(["detections", 0, "polygon_wgs84", 0], [95.0, 26.9]),
     "detections[0].polygon_wgs84: latitude out of range: 95.0"),
    (_set(["detections", 0, "polygon_wgs84", 0], [-1e300, 26.9]),
     "detections[0].polygon_wgs84: latitude out of range: -1e+300"),
    (_set(["detections", 0, "polygon_wgs84", 0], [49.4, 1e300]),
     "detections[0].polygon_wgs84: longitude out of range: 1e+300"),
], ids=["root-list", "detections-object", "media-list", "vertex-short",
        "conf-string", "temp-huge-int", "id-number", "ts-number",
        "uav-missing", "id-surrogate", "centroid-lat-past-90", "id-empty",
        "polygon-2-vertices", "vertex-lat-95", "vertex-lat--1e300",
        "vertex-lon-1e300"])
def test_export_kml_malformed_report_exits_1(tmp_path, capsys, edit, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(edit(json.loads(GOLDEN_REPORT.read_text()))))
    out = tmp_path / "o.kml"
    code = main(["export-kml", "--report", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"invalid report: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,text,message", [
    (["export-kml", "--report"], "[" * 200_000 + "]" * 200_000,
     "invalid report: JSON nested too deeply"),
    (["simulate", "--config"], '{"plant": ' + "[" * 5000 + "]" * 5000 + "}",
     "config error: malformed JSON in {path}: nested too deeply"),
], ids=["export-kml-report", "simulate-config"])
def test_json_nested_past_the_recursion_limit_exits_1(tmp_path, capsys,
                                                      command, text, message):
    path = tmp_path / "in.json"
    path.write_text(text)
    out = tmp_path / "out"
    code = main([*command, str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err == message.format(path=path) + "\n"
    assert not out.exists()


GOLDEN_DETECTIONS = (pathlib.Path(__file__).parent / "data" / "golden_mission"
                     / "default" / "detections.jsonl")


@pytest.mark.parametrize("command", [
    lambda config: ["simulate", "--config", config, "--out"],
    lambda config: ["dedup", "--input", str(GOLDEN_DETECTIONS),
                    "--epsilon", "1.0", "--out"],
    lambda config: ["export-kml", "--report", str(GOLDEN_REPORT), "--out"],
], ids=["simulate", "dedup", "export-kml"])
def test_out_under_a_regular_file_exits_1(tmp_path, capsys, config_path,
                                          command):
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    out = afile / "x"
    code = main(command(str(config_path)) + [str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"cannot write {out}")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_dedup_logs_its_stage_seconds_at_info(tmp_path):
    # At info, dedup names its parse, deduplicate and write stages on
    # stderr; at the default level stderr stays empty. The events are the
    # same bytes either way.
    outputs = {}
    for level in ("info", "error"):
        out = tmp_path / f"{level}.json"
        result = _run(["dedup", "--input", str(GOLDEN_DETECTIONS),
                       "--epsilon", "1.0", "--out", str(out)],
                      env_extra={"PV_PIPELINE_LOG": level})
        assert result.returncode == 0, result.stderr
        outputs[level] = (result.stderr, out.read_bytes())
    stderr, events = outputs["info"]
    for stage in ("parse", "deduplicate", "write"):
        assert f"dedup: {stage} " in stderr, stderr
    assert outputs["error"] == ("", events)


def test_simulate_logs_its_stage_seconds_at_info(tmp_path, config_path):
    # At info, run_mission names its plan, fly, dedup and report stages on
    # stderr; at the default level stderr stays empty. The outputs are the
    # same bytes either way.
    outputs = {}
    for level in ("info", "error"):
        out = tmp_path / level
        result = _run(["simulate", "--config", str(config_path),
                       "--out", str(out)],
                      env_extra={"PV_PIPELINE_LOG": level})
        assert result.returncode == 0, result.stderr
        outputs[level] = (result.stderr, {path.name: path.read_bytes()
                                          for path in out.iterdir()})
    stderr, files = outputs["info"]
    for stage in ("plan", "fly", "dedup", "report"):
        assert f"mission: {stage} " in stderr, stderr
    assert outputs["error"] == ("", files)


def test_invalid_log_level_rejected():
    result = _run(["fuse-check"], env_extra={"PV_PIPELINE_LOG": "loud"})
    assert result.returncode != 0
    assert "PV_PIPELINE_LOG" in result.stderr


def test_debug_log_level_accepted(tmp_path, config_path):
    out = tmp_path / "out"
    result = _run(["simulate", "--config", str(config_path),
                   "--out", str(out)],
                  env_extra={"PV_PIPELINE_LOG": "debug"})
    assert result.returncode == 0
