"""Flat key-value configuration files with reference defaults.

The file format is one `key: value` pair per line, `#` comment lines, and
units spelled out in the key names so a config can be audited against the
simulation constants at a glance. Every key is optional (absent keys get
the reference defaults below); unknown keys are rejected.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .env import EnvConfig
from .radio import AntennaConfig, LinkBudget
from .rarl import TrainConfig, VARIANTS
from .wire import PhysParams


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
    return [int(v) for v in text.split(",")]


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


# key -> (parser, default); order here is the canonical serialization order
SCHEMA = {
    "n_points": (int, 11),
    "total_mass_kg": (float, 10.0),
    "spring_constant_n_per_m": (float, 100.0),
    "drag_constant_per_s": (float, 1.0),
    "gravity_m_per_s2": (_parse_floats, [0.0, 0.0, -9.8]),
    "wind_cov_scale": (float, 0.1),
    "endpoint_height_m": (float, 5.0),
    "endpoint_separation_m": (float, 10.0),
    "gateway_distance_m": (float, 5.0),
    "gateway_height_m": (float, 5.0),
    "gateway_level_with_sbs": (_parse_bool, True),
    "sbs_point": (int, 6),
    "tx_power_dbm": (float, 23.0),
    "wavelength_m": (float, 0.005),
    "rx_gain_dbi": (float, 8.0),
    "element_gain_dbi": (float, 8.0),
    "front_back_db": (float, 30.0),
    "sla_v_db": (float, 30.0),
    "theta_3db_deg": (float, 65.0),
    "phi_3db_deg": (float, 65.0),
    "n_vertical": (int, 32),
    "n_horizontal": (int, 32),
    "spacing_v_m": (float, 0.0025),
    "spacing_h_m": (float, 0.0025),
    "observation_time_s": (float, 10.0),
    "decision_interval_s": (float, 0.01),
    "substeps": (int, 1),
    "beam_step_deg": (float, 1.0),
    "clip_offset_dbm": (float, -27.0),
    "clip_scale_db": (float, 3.0),
    "adversary_speed_m_per_s": (float, 10.0),
    "ambient_wind": (_parse_bool, True),
    "episodes": (int, 400),
    "epsilon": (float, 0.2),
    "gamma": (float, 0.99),
    "target_period_episodes": (int, 5),
    "test_steps": (int, 1000),
    "batch_size": (int, 32),
    "replay_capacity": (int, 5000),
    "learning_rate": (float, 0.001),
    "hidden_units": (_parse_ints, [32, 32, 32, 32]),
    "standardize_obs": (_parse_bool, True),
    "head_init_scale": (float, 0.0),
    "variant": (str, "rarl"),
    "seed": (int, 0),
    "proxy_checkpoint": (str, ""),
}


def parse_pairs(text: str) -> dict:
    """Raw key -> string value pairs; rejects unknown keys and bad lines."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ConfigError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = (lineno, value.strip())
    return pairs


def _resolve(text: str) -> dict:
    pairs = parse_pairs(text)
    values = {}
    for key, (parser, default) in SCHEMA.items():
        if key in pairs:
            lineno, raw = pairs[key]
            try:
                values[key] = parser(raw)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        else:
            values[key] = default
    return values


def train_config_from_text(text: str) -> TrainConfig:
    v = _resolve(text)
    h_w = v["endpoint_height_m"]
    half = v["endpoint_separation_m"] / 2.0
    try:
        phys = PhysParams(
            n_points=v["n_points"],
            total_mass=v["total_mass_kg"],
            spring_constant=v["spring_constant_n_per_m"],
            drag_constant=v["drag_constant_per_s"],
            gravity=np.asarray(v["gravity_m_per_s2"]),
            wind_cov=v["wind_cov_scale"] * np.eye(3),
            endpoint_a=np.array([0.0, -half, h_w]),
            endpoint_b=np.array([0.0, half, h_w]),
        )
        antenna = AntennaConfig(
            g_max=v["element_gain_dbi"],
            front_back=v["front_back_db"],
            sla_v=v["sla_v_db"],
            theta_3db=v["theta_3db_deg"],
            phi_3db=v["phi_3db_deg"],
            n_v=v["n_vertical"],
            n_h=v["n_horizontal"],
            spacing_v=v["spacing_v_m"],
            spacing_h=v["spacing_h_m"],
            wavelength=v["wavelength_m"],
        )
        budget = LinkBudget(
            tx_power=v["tx_power_dbm"],
            rx_gain=v["rx_gain_dbi"],
            wavelength=v["wavelength_m"],
        )
        horizon = int(math.floor(v["observation_time_s"] / v["decision_interval_s"] + 1e-9))
        env = EnvConfig(
            phys=phys,
            antenna=antenna,
            budget=budget,
            gateway_distance=v["gateway_distance_m"],
            gateway_height=v["gateway_height_m"],
            gateway_level_with_sbs=v["gateway_level_with_sbs"],
            sbs_point=v["sbs_point"],
            tau=v["decision_interval_s"],
            horizon=horizon,
            beta=v["beam_step_deg"],
            clip_offset=v["clip_offset_dbm"],
            clip_scale=v["clip_scale_db"],
            adversary_speed=v["adversary_speed_m_per_s"],
            ambient_wind=v["ambient_wind"],
            substeps=v["substeps"],
        )
        return TrainConfig(
            env=env,
            episodes=v["episodes"],
            epsilon=v["epsilon"],
            gamma=v["gamma"],
            target_period=v["target_period_episodes"],
            test_steps=v["test_steps"],
            variant=v["variant"],
            seed=v["seed"],
            proxy_checkpoint=v["proxy_checkpoint"] or None,
            batch_size=v["batch_size"],
            replay_capacity=v["replay_capacity"],
            learning_rate=v["learning_rate"],
            hidden=tuple(v["hidden_units"]),
            standardize_obs=v["standardize_obs"],
            head_init_scale=v["head_init_scale"],
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> TrainConfig:
    """Parse a config file; absent keys take the reference defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        return train_config_from_text(fh.read())


def serialize_train_config(cfg: TrainConfig) -> str:
    """Canonical text form; load(serialize(cfg)) reproduces cfg exactly.

    Raises ValueError for a proxy checkpoint that is not a path: an
    in-memory checkpoint has no text form.
    """
    if cfg.proxy_checkpoint is not None and not isinstance(cfg.proxy_checkpoint, (str, os.PathLike)):
        raise ValueError("proxy_checkpoint must be a path to be serialized; save the checkpoint first")
    e = cfg.env
    p = e.phys
    a = e.antenna
    values = {
        "n_points": p.n_points,
        "total_mass_kg": p.total_mass,
        "spring_constant_n_per_m": p.spring_constant,
        "drag_constant_per_s": p.drag_constant,
        "gravity_m_per_s2": p.gravity,
        "wind_cov_scale": float(p.wind_cov[0, 0]),
        "endpoint_height_m": float(p.endpoint_a[2]),
        "endpoint_separation_m": float(np.linalg.norm(p.endpoint_b - p.endpoint_a)),
        "gateway_distance_m": e.gateway_distance,
        "gateway_height_m": e.gateway_height,
        "gateway_level_with_sbs": e.gateway_level_with_sbs,
        "sbs_point": e.sbs_point,
        "tx_power_dbm": e.budget.tx_power,
        "wavelength_m": e.budget.wavelength,
        "rx_gain_dbi": e.budget.rx_gain,
        "element_gain_dbi": a.g_max,
        "front_back_db": a.front_back,
        "sla_v_db": a.sla_v,
        "theta_3db_deg": a.theta_3db,
        "phi_3db_deg": a.phi_3db,
        "n_vertical": a.n_v,
        "n_horizontal": a.n_h,
        "spacing_v_m": a.spacing_v,
        "spacing_h_m": a.spacing_h,
        "observation_time_s": e.horizon * e.tau,
        "decision_interval_s": e.tau,
        "substeps": e.substeps,
        "beam_step_deg": e.beta,
        "clip_offset_dbm": e.clip_offset,
        "clip_scale_db": e.clip_scale,
        "adversary_speed_m_per_s": e.adversary_speed,
        "ambient_wind": e.ambient_wind,
        "episodes": cfg.episodes,
        "epsilon": cfg.epsilon,
        "gamma": cfg.gamma,
        "target_period_episodes": cfg.target_period,
        "test_steps": cfg.test_steps,
        "batch_size": cfg.batch_size,
        "replay_capacity": cfg.replay_capacity,
        "learning_rate": cfg.learning_rate,
        "hidden_units": list(cfg.hidden),
        "standardize_obs": cfg.standardize_obs,
        "head_init_scale": cfg.head_init_scale,
        "variant": cfg.variant,
        "seed": cfg.seed,
        "proxy_checkpoint": cfg.proxy_checkpoint or "",
    }
    return "".join(f"{key}: {_fmt(values[key])}\n" for key in SCHEMA)


@dataclass
class SweepSpec:
    """Grid of test-time environment parameters and policies to score."""

    mass_grid: list
    spring_grid: list
    policies: list
    episodes_per_cell: int = 1
    seeds_per_cell: int = 1

    def __post_init__(self):
        self.mass_grid = list(dict.fromkeys(self.mass_grid))  # dedupe, keep order
        self.spring_grid = list(dict.fromkeys(self.spring_grid))
        if not self.mass_grid or not self.spring_grid:
            raise ValueError("mass_grid and spring_grid must be non-empty")
        if min(self.mass_grid) <= 0 or min(self.spring_grid) <= 0:
            raise ValueError("grid values must be positive")
        if not self.policies:
            raise ValueError("policies must be non-empty")
        if self.episodes_per_cell < 1 or self.seeds_per_cell < 1:
            raise ValueError("episodes_per_cell and seeds_per_cell must be >= 1")


SWEEP_SCHEMA = {
    "mass_grid_kg": (_parse_floats, [1.0, 2.0, 5.0, 10.0, 15.0, 20.0]),
    "spring_grid_n_per_m": (_parse_floats, [10.0, 25.0, 50.0, 100.0, 150.0, 200.0]),
    "policies": (lambda s: [p.strip() for p in s.split(",") if p.strip()], ["stay"]),
    "episodes_per_cell": (int, 1),
    "seeds_per_cell": (int, 1),
}


def sweep_spec_from_text(text: str) -> SweepSpec:
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ConfigError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        if key not in SWEEP_SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        pairs[key] = (lineno, value.strip())
    values = {}
    for key, (parser, default) in SWEEP_SCHEMA.items():
        if key in pairs:
            lineno, raw = pairs[key]
            try:
                values[key] = parser(raw)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        else:
            values[key] = default
    try:
        return SweepSpec(
            mass_grid=values["mass_grid_kg"],
            spring_grid=values["spring_grid_n_per_m"],
            policies=values["policies"],
            episodes_per_cell=values["episodes_per_cell"],
            seeds_per_cell=values["seeds_per_cell"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_sweep_spec(path) -> SweepSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return sweep_spec_from_text(fh.read())
