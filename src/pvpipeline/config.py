"""Build a MissionConfig from JSON; its dataclasses are the only schema."""

import json
import sys
from dataclasses import fields, is_dataclass, replace
from functools import cache
from typing import get_args, get_type_hints

from .geodesy import GeoPoint
from .simulator import MissionConfig
from .telemetry import encodes_utf8


class ConfigError(ValueError):
    pass


@cache  # get_type_hints evaluates every annotation string on each call
def _slots(cls) -> dict:
    """Field name -> (type, default) of a dataclass."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in fields(cls)}


def _build(prefix: str, make, *args, **kwargs):
    """Call a dataclass constructor; its ValueError becomes a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _value(path: str, value, hint, default):
    """Check a JSON value against a type (None: unknown key) or an object
    against {key: (type, default)}; lists become tuples or a GeoPoint."""
    if type(hint) is dict:
        if type(value) is not dict:
            raise ConfigError(f"{path}: expected an object")
        return {k: _value(f"{path}.{k}", v, *hint.get(k, (None, None)))
                for k, v in value.items()}
    if hint is None:
        raise ConfigError(f"{path}: unknown key")
    if hint in (tuple, GeoPoint):
        n = 2 if hint is GeoPoint else len(default)
        if not (type(value) is list and len(value) == n
                and all(type(v) in (int, float) for v in value)):
            raise ConfigError(f"{path}: expected a list of {n} numbers")
    elif not (type(value) in (get_args(hint) or (hint,))
              or type(value) is int and hint is float):
        raise ConfigError(f"{path}: expected {getattr(hint, '__name__', hint)}"
                          f", got {type(value).__name__}")
    if type(value) is str and not encodes_utf8(value):
        raise ConfigError(f"{path}: expected a string UTF-8 can encode, "
                          f"got {value!r:.60}")
    # abs(v) <= max is False for NaN, +-inf and ints past the float range.
    if any(type(v) in (int, float) and not abs(v) <= sys.float_info.max
           for v in (value if type(value) is list else [value])):
        raise ConfigError(f"{path}: must be finite")
    if hint is GeoPoint:
        return _build(f"{path}: ", GeoPoint, *value)
    return tuple(value) if hint is tuple else value


def config_from_dict(raw: dict, seed_override: int = None) -> MissionConfig:
    """Each dataclass-typed MissionConfig field is a JSON section of the
    same name holding that dataclass's fields; any other is a top-level key."""
    base = MissionConfig()
    top = _slots(MissionConfig)
    spec = {k: (_slots(t), None) if is_dataclass(t) else (t, d)
            for k, (t, d) in top.items()}
    values = _value("$", raw, spec, None)
    for key, given in values.items():
        if is_dataclass(top[key][0]):
            values[key] = _build(f"$.{key}: ", replace, getattr(base, key),
                                 **given)
    if seed_override is not None:
        values["seed"] = seed_override
    # MissionConfig's own messages start with the config key they check.
    return _build("$.", replace, base, **values)


def load_config(path: str, seed_override: int = None) -> MissionConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError:
        raise ConfigError(
            f"malformed JSON in {path}: nested too deeply") from None
    return config_from_dict(raw, seed_override=seed_override)
