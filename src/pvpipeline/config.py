"""Mission configuration: JSON schema validation (unknown keys and
non-finite numbers rejected) and construction of a MissionConfig.
Precedence: flags > config > defaults.
"""

from __future__ import annotations

import json
import math

from .dedup import DbscanParams
from .detector import ThresholdDetectorConfig
from .geodesy import GeoPoint
from .reacquisition import CameraIntrinsics, ReacqPolicy
from .simulator import (DefectMix, FlightPlan, MissionConfig, PlantLayout,
                        RenderModel, SyntheticDetectorNoise)


class ConfigError(ValueError):
    pass


_NUM = (int, float)

# section -> key -> (expected types, arity for list values or None)
SCHEMA = {
    None: {  # top level scalars
        "seed": (int, None),
        "site_id": (str, None),
        "uav": (str, None),
        "start_utc": (str, None),
    },
    "plant": {
        "origin": (list, 2),          # [lat, lon]
        "rows": (int, None),
        "cols": (int, None),
        "module_size": (list, 2),     # [east, north] meters
        "pitch": (list, 2),
        "elevation": (_NUM, None),
    },
    "defects": {
        "count": ((int, type(None)), None),
        "density": (_NUM, None),
        "n_small": (int, None),
        "min_separation_m": (_NUM, None),
        "excess_range_c": (list, 2),
        "small_excess_range_c": (list, 2),
        "sigma_m": (_NUM, None),
        "small_sigma_m": (_NUM, None),
    },
    "flight": {
        "altitude": (_NUM, None),
        "speed": (_NUM, None),
        "along_overlap": (_NUM, None),
        "cross_overlap": (_NUM, None),
    },
    "camera": {
        "fx": (_NUM, None),
        "fy": (_NUM, None),
        "cx": (_NUM, None),
        "cy": (_NUM, None),
        "width": (int, None),
        "height": (int, None),
    },
    "detector": {
        "delta_c": (_NUM, None),
        "min_blob_px": (int, None),
        "logit_bias": (_NUM, None),
        "logit_per_deg": (_NUM, None),
        "logit_per_log_px": (_NUM, None),
        "default_class": (str, None),
    },
    "noise": {
        "confidence_sigma": (_NUM, None),
        "miss_probability": (_NUM, None),
        "clutter_rate": (_NUM, None),
        "pos_sigma_m": (_NUM, None),
        "att_sigma_rad": (_NUM, None),
    },
    "render": {
        "ambient_c": (_NUM, None),
        "psf_px": (_NUM, None),
        "vignette": (_NUM, None),
        "exposure_s": (_NUM, None),
    },
    "reacquisition": {
        "enabled": (bool, None),
        "tau_ra": (_NUM, None),
        "min_area_frac": (_NUM, None),
        "max_rounds": (int, None),
    },
    "dedup": {
        "epsilon": (_NUM, None),
        "min_pts": (int, None),
    },
    "telemetry": {
        "match_radius_m": (_NUM, None),
    },
}


def _check_section(path: str, obj: dict, keys: dict) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key, value in obj.items():
        if key not in keys:
            raise ConfigError(f"{path}: unknown key {key!r}")
        expected, arity = keys[key]
        if expected is int and isinstance(value, bool):
            raise ConfigError(f"{path}.{key}: expected int, got bool")
        if not isinstance(value, expected):
            raise ConfigError(
                f"{path}.{key}: expected {getattr(expected, '__name__', expected)}")
        if arity is not None:
            if len(value) != arity or not all(isinstance(v, _NUM) for v in value):
                raise ConfigError(
                    f"{path}.{key}: expected a list of {arity} numbers")
        numbers = value if arity is not None else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in numbers):
            raise ConfigError(f"{path}.{key}: must be finite")
    return obj


def validate_config_dict(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    top = {k: v for k, v in raw.items() if k in SCHEMA[None]}
    _check_section("$", top, SCHEMA[None])
    for key in raw:
        if key in SCHEMA[None]:
            continue
        if key not in SCHEMA or key is None:
            raise ConfigError(f"$: unknown key {key!r}")
        _check_section(f"$.{key}", raw[key], SCHEMA[key])
    return raw


def _merge(section: dict, defaults, builder):
    """Build a dataclass from defaults overridden by the config section."""
    try:
        return builder(section, defaults)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def config_from_dict(raw: dict, seed_override: int = None) -> MissionConfig:
    raw = validate_config_dict(raw)
    base = MissionConfig()
    get = raw.get

    plant = get("plant", {})
    origin = plant.get("origin")
    layout = _merge(plant, base.layout, lambda s, d: PlantLayout(
        origin=(GeoPoint(lat=origin[0], lon=origin[1], alt=0.0)
                if origin else d.origin),
        rows=s.get("rows", d.rows), cols=s.get("cols", d.cols),
        module_size=tuple(s.get("module_size", d.module_size)),
        pitch=tuple(s.get("pitch", d.pitch)),
        elevation=s.get("elevation", d.elevation)))

    defects = get("defects", {})
    mix = _merge(defects, base.mix, lambda s, d: DefectMix(
        count=s.get("count", d.count), density=s.get("density", d.density),
        n_small=s.get("n_small", d.n_small),
        min_separation_m=s.get("min_separation_m", d.min_separation_m),
        excess_range_c=tuple(s.get("excess_range_c", d.excess_range_c)),
        small_excess_range_c=tuple(s.get("small_excess_range_c",
                                         d.small_excess_range_c)),
        sigma_m=s.get("sigma_m", d.sigma_m),
        small_sigma_m=s.get("small_sigma_m", d.small_sigma_m)))

    flight = get("flight", {})
    plan = _merge(flight, base.plan, lambda s, d: FlightPlan(
        altitude=s.get("altitude", d.altitude), speed=s.get("speed", d.speed),
        along_overlap=s.get("along_overlap", d.along_overlap),
        cross_overlap=s.get("cross_overlap", d.cross_overlap)))

    camera = get("camera", {})
    intr = _merge(camera, base.intrinsics, lambda s, d: CameraIntrinsics(
        fx=s.get("fx", d.fx), fy=s.get("fy", d.fy), cx=s.get("cx", d.cx),
        cy=s.get("cy", d.cy), width=s.get("width", d.width),
        height=s.get("height", d.height)))
    for key in ("width", "height"):
        if getattr(intr, key) < 1:
            raise ConfigError(f"$.camera.{key}: must be at least 1")

    det = get("detector", {})
    detector = _merge(det, base.detector, lambda s, d: ThresholdDetectorConfig(
        delta_c=s.get("delta_c", d.delta_c),
        min_blob_px=s.get("min_blob_px", d.min_blob_px),
        logit_bias=s.get("logit_bias", d.logit_bias),
        logit_per_deg=s.get("logit_per_deg", d.logit_per_deg),
        logit_per_log_px=s.get("logit_per_log_px", d.logit_per_log_px),
        default_class=s.get("default_class", d.default_class)))

    noi = get("noise", {})
    noise = _merge(noi, base.noise, lambda s, d: SyntheticDetectorNoise(
        confidence_sigma=s.get("confidence_sigma", d.confidence_sigma),
        miss_probability=s.get("miss_probability", d.miss_probability),
        clutter_rate=s.get("clutter_rate", d.clutter_rate),
        pos_sigma_m=s.get("pos_sigma_m", d.pos_sigma_m),
        att_sigma_rad=s.get("att_sigma_rad", d.att_sigma_rad)))

    ren = get("render", {})
    render = _merge(ren, base.render, lambda s, d: RenderModel(
        ambient_c=s.get("ambient_c", d.ambient_c),
        psf_px=s.get("psf_px", d.psf_px), vignette=s.get("vignette", d.vignette),
        exposure_s=s.get("exposure_s", d.exposure_s)))

    rea = get("reacquisition", {})
    policy = _merge(rea, base.policy, lambda s, d: ReacqPolicy(
        tau_ra=s.get("tau_ra", d.tau_ra),
        min_area_frac=s.get("min_area_frac", d.min_area_frac),
        max_rounds=s.get("max_rounds", d.max_rounds)))

    ded = get("dedup", {})
    dbscan = _merge(ded, base.dbscan, lambda s, d: DbscanParams(
        epsilon=s.get("epsilon", d.epsilon), min_pts=s.get("min_pts", d.min_pts)))

    tel = get("telemetry", {})
    match_radius = tel.get("match_radius_m", base.match_radius_m)
    if match_radius <= 0:
        raise ConfigError("$.telemetry.match_radius_m: must be positive")
    seed = raw.get("seed", base.seed)
    if seed_override is not None:
        seed = seed_override
    return MissionConfig(
        seed=seed,
        site_id=raw.get("site_id", base.site_id),
        uav=raw.get("uav", base.uav),
        start_utc=raw.get("start_utc", base.start_utc),
        layout=layout, mix=mix, plan=plan, intrinsics=intr,
        detector=detector, noise=noise, render=render, policy=policy,
        reacq_enabled=rea.get("enabled", base.reacq_enabled),
        dbscan=dbscan,
        match_radius_m=match_radius)


def load_config(path: str, seed_override: int = None) -> MissionConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return config_from_dict(raw, seed_override=seed_override)
