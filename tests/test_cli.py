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

from pvpipeline.cli import MAX_FUSE_DIM, main
from pvpipeline.config import ConfigError, config_from_dict, load_config
from pvpipeline.simulator import MissionConfig

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
    # removed key: every threshold detection has the one default class
    ({"detector": {"default_class": "hotspot"}}, [],
     "$.detector.default_class", "unknown key"),
    # removed key: "max_rounds": 0 turns re-acquisition off
    ({"reacquisition": {"enabled": False}}, [],
     "$.reacquisition.enabled", "unknown key"),
], ids=["altitude-nan", "psf_px-nan", "origin-inf", "fx-huge-int", "width-0",
        "height-0", "clahe", "telemetry-match_radius_m", "seed-negative",
        "seed-flag-negative", "start_utc-unparsable", "count-negative",
        "n_small-negative", "count-above-modules", "elevation", "fx-1e-10",
        "fx-1e-300", "fx-1e-320", "origin-north-pole", "origin-south-pole",
        "rows-past-100km", "speed-1e-12", "speed-past-year-9999",
        "altitude-1e-3", "raster-1e5x1e5", "default_class", "enabled"])
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
    assert not out.exists()


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


def test_simulate_runtime_failure_exits_2(tmp_path):
    # A separation no plant of this size can satisfy: run_mission fails.
    impossible = dict(SMALL_CONFIG,
                      defects={"count": 10, "min_separation_m": 50.0})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(impossible))
    out = tmp_path / "out"
    result = _run(["simulate", "--config", str(path), "--out", str(out)])
    assert result.returncode == 2
    assert "runtime error" in result.stderr


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
], ids=["media-list", "media-rgb-number", "class-list", "temp-string",
        "frame-id-null", "lon-huge-int", "centroid-three-entries",
        "vertex-string", "polygon-missing", "bbox-overflow", "bbox-string",
        "bbox-three-entries", "conf-nan-literal", "lat-infinity-literal",
        "vertex-true", "vertex-huge-negative-int", "centroid-strings"])
def test_dedup_cli_malformed_record_exits_1(tmp_path, capsys, edit, message):
    record = {"frame_id": "f0001", "timestamp": "2025-09-30T10:00:01Z",
              "class": "hotspot", "conf": 0.8, "temp_C": 40.0,
              "bbox": [1.0, 2.0, 5.0, 6.0], "centroid_wgs84": [49.4, 26.9],
              "polygon_wgs84": [[49.4, 26.9], [49.4, 26.91], [49.41, 26.91]],
              "media": {"rgb": "f0001.jpg", "tiff": "f0001.tif"}}
    data = tmp_path / "in.jsonl"
    data.write_text(json.dumps(record) + "\n" + json.dumps(edit(record)) + "\n")
    out = tmp_path / "o.json"
    code = main(["dedup", "--input", str(data), "--epsilon", "1.0",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"parse error: line 2: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("data,message", [
    (b"\xff\n", "parse error: input is not UTF-8"),
    # a polygon spanning more than the 100 km tangent plane
    (json.dumps({"class": "hotspot", "conf": 0.9, "temp_C": 40.0,
                 "bbox": [0.0, 0.0, 2.0, 2.0], "centroid_wgs84": [50.0, 27.0],
                 "polygon_wgs84": [[49, 26], [49, 29], [51, 29]]}).encode(),
     "invalid input: points farther than 100 km apart"),
], ids=["not-utf8", "polygon-beyond-tangent-plane"])
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


def _key_paths(obj, path=()):
    """Key path of every value nested in a parsed JSON object."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    paths = []
    for key, value in items:
        paths += [path + (key,)] + _key_paths(value, path + (key,))
    return paths


@settings(max_examples=200)
@given(data=st.data())
def test_dedup_cli_survives_mutated_records(data):
    # One to three golden records, each with one value replaced by any JSON
    # value or dropped: dedup exits 0 or 1, never with a traceback.
    lines = GOLDEN_DETECTIONS.read_text(encoding="utf-8").splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
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
], ids=["root-list", "detections-object", "media-list", "vertex-short",
        "conf-string", "temp-huge-int", "id-number", "ts-number",
        "uav-missing"])
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
