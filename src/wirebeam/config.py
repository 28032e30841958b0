"""Flat key-value configuration files.

The file format is one `key: value` pair per line, `#` comment lines, and
units spelled out in the key names so a config can be audited against the
simulation constants at a glance. Every key is optional: an absent key
takes its value from the dataclass defaults (`TrainConfig()`, `SweepSpec()`),
which hold the only copy of the reference defaults. Unknown and duplicate
keys are rejected. `SCHEMA` is the one table of training-config keys; sweep
specs go through the same parser with `SWEEP_SCHEMA`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, is_dataclass
from functools import reduce

import numpy as np

from .rarl import TrainConfig


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _parse_floats(text: str):
    return [float(v) for v in text.split(",")]


def _parse_ints(text: str):
    return tuple(int(v) for v in text.split(","))


def _parse_names(text: str):
    return [p.strip() for p in text.split(",") if p.strip()]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


# Read/write pairs of the keys that are not one dataclass field. Each read
# raises ValueError when the config holds something its key cannot state.
def _wind_cov_scale(cfg) -> float:
    cov = cfg.env.phys.wind_cov
    if not np.array_equal(cov, cov[0, 0] * np.eye(3)):
        raise ValueError("wind_cov must be a multiple of the identity to be serialized")
    return float(cov[0, 0])


def _set_wind_cov_scale(cfg, value):
    cfg.env.phys.wind_cov = value * np.eye(3)


def _endpoints(cfg):
    """(height, separation) of endpoints at (0, -s/2, h) and (0, s/2, h)."""
    p = cfg.env.phys
    height, half = float(p.endpoint_a[2]), float(p.endpoint_b[1] - p.endpoint_a[1]) / 2.0
    if not np.array_equal([p.endpoint_a, p.endpoint_b], [[0.0, -half, height], [0.0, half, height]]):
        raise ValueError("endpoints must be (0, -s/2, h) and (0, s/2, h) to be serialized")
    return height, 2.0 * half


def _set_endpoint_height(cfg, value):
    cfg.env.phys.endpoint_a[2] = cfg.env.phys.endpoint_b[2] = value


def _set_endpoint_separation(cfg, value):
    cfg.env.phys.endpoint_a[1], cfg.env.phys.endpoint_b[1] = -value / 2.0, value / 2.0


def _set_observation_time(cfg, value):
    if not cfg.env.tau > 0:  # the horizon divides by it
        raise ConfigError(f"decision_interval_s must be > 0, got {cfg.env.tau!r}")
    cfg.env.horizon = int(math.floor(value / cfg.env.tau + 1e-9))


def _proxy_path(cfg):
    proxy = cfg.proxy_checkpoint
    if proxy is not None and not isinstance(proxy, (str, os.PathLike)):
        raise ValueError("proxy_checkpoint must be a path to be serialized; save the checkpoint first")
    return proxy or ""


def _set_proxy_path(cfg, value):
    cfg.proxy_checkpoint = value or None


# key -> (parser, attr). attr is a dotted attribute path into TrainConfig
# or a (read, write) pair. Order here is the canonical serialization order.
SCHEMA = {
    "n_points": (int, "env.phys.n_points"),
    "total_mass_kg": (float, "env.phys.total_mass"),
    "spring_constant_n_per_m": (float, "env.phys.spring_constant"),
    "drag_constant_per_s": (float, "env.phys.drag_constant"),
    "gravity_m_per_s2": (_parse_floats, "env.phys.gravity"),
    "wind_cov_scale": (float, (_wind_cov_scale, _set_wind_cov_scale)),
    "endpoint_height_m": (float, (lambda cfg: _endpoints(cfg)[0], _set_endpoint_height)),
    "endpoint_separation_m": (float, (lambda cfg: _endpoints(cfg)[1], _set_endpoint_separation)),
    "gateway_distance_m": (float, "env.gateway_distance"),
    "gateway_height_m": (float, "env.gateway_height"),
    "gateway_level_with_sbs": (_parse_bool, "env.gateway_level_with_sbs"),
    "sbs_point": (int, "env.sbs_point"),
    "tx_power_dbm": (float, "env.budget.tx_power"),
    "wavelength_m": (float, "env.antenna.wavelength"),
    "rx_gain_dbi": (float, "env.budget.rx_gain"),
    "element_gain_dbi": (float, "env.antenna.g_max"),
    "front_back_db": (float, "env.antenna.front_back"),
    "sla_v_db": (float, "env.antenna.sla_v"),
    "theta_3db_deg": (float, "env.antenna.theta_3db"),
    "phi_3db_deg": (float, "env.antenna.phi_3db"),
    "n_vertical": (int, "env.antenna.n_v"),
    "n_horizontal": (int, "env.antenna.n_h"),
    "spacing_v_m": (float, "env.antenna.spacing_v"),
    "spacing_h_m": (float, "env.antenna.spacing_h"),
    "observation_time_s": (float, (lambda cfg: cfg.env.horizon * cfg.env.tau, _set_observation_time)),
    "decision_interval_s": (float, "env.tau"),
    "substeps": (int, "env.substeps"),
    "beam_step_deg": (float, "env.beta"),
    "clip_offset_dbm": (float, "env.clip_offset"),
    "clip_scale_db": (float, "env.clip_scale"),
    "adversary_speed_m_per_s": (float, "env.adversary_speed"),
    "ambient_wind": (_parse_bool, "env.ambient_wind"),
    "episodes": (int, "episodes"),
    "epsilon": (float, "epsilon"),
    "gamma": (float, "gamma"),
    "target_period_episodes": (int, "target_period"),
    "test_steps": (int, "test_steps"),
    "batch_size": (int, "batch_size"),
    "replay_capacity": (int, "replay_capacity"),
    "learning_rate": (float, "learning_rate"),
    "hidden_units": (_parse_ints, "hidden"),
    "standardize_obs": (_parse_bool, "standardize_obs"),
    "head_init_scale": (float, "head_init_scale"),
    "variant": (str, "variant"),
    "seed": (int, "seed"),
    "proxy_checkpoint": (str, (_proxy_path, _set_proxy_path)),
}


def _read(obj, attr):
    return reduce(getattr, attr.split("."), obj) if isinstance(attr, str) else attr[0](obj)


def _write(obj, attr, value):
    if isinstance(attr, str):
        *owner, name = attr.split(".")
        setattr(reduce(getattr, owner, obj), name, value)
    else:
        attr[1](obj, value)


def _rebuilt(obj):
    """Copy of a dataclass tree built bottom-up, so that every __post_init__
    validates the final values."""
    values = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return type(obj)(**{k: _rebuilt(v) if is_dataclass(v) else v for k, v in values.items()})


def parse_pairs(text: str, schema: dict) -> dict:
    """Raw key -> (line number, string value); rejects unknown and duplicate
    keys and lines that are not `key: value`."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ConfigError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = (lineno, value.strip())
    return pairs


def _resolve(text: str, schema: dict, defaults) -> dict:
    """Parsed value of every schema key; an absent key reads `defaults`."""
    pairs = parse_pairs(text, schema)
    values = {}
    for key, (parser, attr) in schema.items():
        if key not in pairs:
            values[key] = _read(defaults, attr)
            continue
        lineno, raw = pairs[key]
        try:
            values[key] = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        # before any write: an infinite wind_cov_scale times the identity's zeros is NaN
        if parser in (float, _parse_floats) and not np.isfinite(values[key]).all():
            raise ConfigError(f"line {lineno}: {key} must be finite, got {raw!r}")
    return values


def _from_text(text: str, schema: dict, draft):
    """Write every schema key (its value in `text`, else the default) into
    the default-valued `draft`, then rebuild it so that the dataclasses
    validate the result."""
    values = _resolve(text, schema, draft)
    # derived keys go last: observation_time_s needs the final tau
    for key, (_, attr) in sorted(schema.items(), key=lambda item: not isinstance(item[1][1], str)):
        _write(draft, attr, values[key])
    try:
        return _rebuilt(draft)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def train_config_from_text(text: str) -> TrainConfig:
    return _from_text(text, SCHEMA, TrainConfig())


def load_config(path) -> TrainConfig:
    """Parse a config file; absent keys take the reference defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        return train_config_from_text(fh.read())


def serialize_train_config(cfg: TrainConfig) -> str:
    """Canonical text form; load(serialize(cfg)) reproduces cfg exactly.

    Raises ValueError for a config the text cannot state: a proxy
    checkpoint that is not a path, a wind_cov that is not a multiple of the
    identity, or endpoints other than (0, -s/2, h) and (0, s/2, h).
    """
    return "".join(f"{key}: {_fmt(_read(cfg, attr))}\n" for key, (_, attr) in SCHEMA.items())


@dataclass
class SweepSpec:
    """Grid of test-time environment parameters and policies to score."""

    mass_grid: list = field(default_factory=lambda: [1.0, 2.0, 5.0, 10.0, 15.0, 20.0])
    spring_grid: list = field(default_factory=lambda: [10.0, 25.0, 50.0, 100.0, 150.0, 200.0])
    policies: list = field(default_factory=lambda: ["stay"])
    episodes_per_cell: int = 1
    seeds_per_cell: int = 1

    def __post_init__(self):
        self.mass_grid = list(dict.fromkeys(self.mass_grid))  # dedupe, keep order
        self.spring_grid = list(dict.fromkeys(self.spring_grid))
        if not self.mass_grid or not self.spring_grid:
            raise ValueError("mass_grid and spring_grid must be non-empty")
        for name in ("mass_grid", "spring_grid"):
            if not all(map(math.isfinite, getattr(self, name))):
                raise ValueError(f"{name} values must be finite")
        if min(self.mass_grid) <= 0 or min(self.spring_grid) <= 0:
            raise ValueError("grid values must be positive")
        if not self.policies:
            raise ValueError("policies must be non-empty")
        if self.episodes_per_cell < 1 or self.seeds_per_cell < 1:
            raise ValueError("episodes_per_cell and seeds_per_cell must be >= 1")


SWEEP_SCHEMA = {
    "mass_grid_kg": (_parse_floats, "mass_grid"),
    "spring_grid_n_per_m": (_parse_floats, "spring_grid"),
    "policies": (_parse_names, "policies"),
    "episodes_per_cell": (int, "episodes_per_cell"),
    "seeds_per_cell": (int, "seeds_per_cell"),
}


def sweep_spec_from_text(text: str) -> SweepSpec:
    return _from_text(text, SWEEP_SCHEMA, SweepSpec())


def load_sweep_spec(path) -> SweepSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return sweep_spec_from_text(fh.read())
