"""Beam-tracking decision process on the swaying wire.

Couples the wire physics to the phased-array link: a tracking agent (the
protagonist) nudges the steering angles by +/- beta per step while an
optional adversary injects additional wind. The per-step reward is the
received power mapped through a clipped linear band, and the adversary's
reward is its exact negation (zero-sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from . import radio, wire


class EpisodeFinishedError(RuntimeError):
    """Raised when stepping an environment past its horizon."""


class ProtagonistAction(IntEnum):
    STAY = 0
    UP = 1
    DOWN = 2
    LEFT = 3
    RIGHT = 4


class AdversaryAction(IntEnum):
    STAY = 0
    UP = 1
    DOWN = 2
    LEFT = 3
    RIGHT = 4
    FRONT = 5
    BACK = 6


# (a_theta, a_phi) per protagonist action, in units of beta, rows in ProtagonistAction order;
# at most one entry is nonzero
ANGLE_STEPS = np.array([(0.0, 0.0), (-1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])

# unit direction of the adversary's wind, rows in AdversaryAction order (STAY adds none)
WIND_DIRS = np.array([(0, 0, 0), (0, 0, 1), (0, 0, -1), (-1, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 0)], dtype=np.float64)


@dataclass
class BeamState:
    """Steering angles of the transmit beam, degrees."""

    steer_zenith: float = 90.0
    steer_azimuth: float = 0.0

    def direction(self) -> np.ndarray:
        """Unit vector of the beam: beam_direction of one beam."""
        return beam_direction(self.steer_zenith, self.steer_azimuth)


def beam_direction(steer_zenith_deg, steer_azimuth_deg) -> np.ndarray:
    """Unit vectors [sin(t)cos(p), sin(t)sin(p), cos(t)] of beams steered at
    (zenith t, azimuth p) degrees: (3,) for one beam, (B, 3) for (B,) arrays."""
    t, p = np.radians(steer_zenith_deg), np.radians(steer_azimuth_deg)
    sin_t = np.sin(t)
    return np.array([sin_t * np.cos(p), sin_t * np.sin(p), np.cos(t)]).T


def apply_protagonist_action(beam: BeamState, action: ProtagonistAction, beta_deg: float) -> BeamState:
    """New beam after moving zenith/azimuth by beta per the action table."""
    a_theta, a_phi = ANGLE_STEPS[ProtagonistAction(action)].tolist()
    return BeamState(beam.steer_zenith + a_theta * beta_deg, beam.steer_azimuth + a_phi * beta_deg)


def adversary_wind(action: AdversaryAction, speed: float) -> np.ndarray:
    """Additional wind vector appended by the adversary (zero for STAY)."""
    return WIND_DIRS[AdversaryAction(action)] * speed


def reward_from_power(p_r_dbm: float, clip_offset: float, clip_scale: float) -> float:
    """Clipped linear reward: ((P_r - offset) / scale) clamped to [-1, 1]."""
    return float(np.clip((p_r_dbm - clip_offset) / clip_scale, -1.0, 1.0))


@dataclass
class EnvConfig:
    """Everything needed to build one beam-tracking episode.

    The gateway sits at horizontal distance gateway_distance from the
    resting SBS, at the resting SBS height if gateway_level_with_sbs else
    at gateway_height; level with the SBS, the resting link distance is
    exactly gateway_distance and the aligned steering (90, 0) degrees. An
    adversary that plays STAY adds no wind.
    """

    phys: wire.PhysParams = field(default_factory=wire.PhysParams)
    antenna: radio.AntennaConfig = field(default_factory=radio.AntennaConfig)
    budget: radio.LinkBudget = field(default_factory=radio.LinkBudget)
    gateway_distance: float = 5.0
    gateway_height: float = 5.0
    gateway_level_with_sbs: bool = True
    sbs_point: int = 6  # 1-based point number along the wire
    tau: float = 0.01
    horizon: int = 1000
    beta: float = 1.0
    clip_offset: float = -27.0
    clip_scale: float = 3.0
    adversary_speed: float = 10.0
    ambient_wind: bool = True
    substeps: int = 1

    def __post_init__(self):
        for name in ("gateway_distance", "gateway_height", "tau", "beta", "clip_offset", "clip_scale", "adversary_speed"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.clip_scale <= 0:
            raise ValueError("clip_scale must be > 0")
        if not 2 <= self.sbs_point <= self.phys.n_points - 1:
            raise ValueError(
                f"sbs_point must be an interior point (2..{self.phys.n_points - 1})"
            )
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")

    @property
    def sbs_index(self) -> int:
        return self.sbs_point - 1


def resolve_gateway(cfg: EnvConfig) -> np.ndarray:
    """Gateway position, derived from the resting wire."""
    rest = wire.equilibrium_shape(cfg.phys).positions[cfg.sbs_index]
    z = rest[2] if cfg.gateway_level_with_sbs else cfg.gateway_height
    return np.array([rest[0] - cfg.gateway_distance, rest[1], z])


class BeamTrackingEnv:
    """One episode of the two-agent beam-tracking process.

    The wire starts at its static equilibrium and the beam starts exactly
    aligned with the gateway as seen from that resting position. Each
    step: compose ambient plus adversary wind, advance the physics by tau,
    apply the protagonist's steering move, then score the received power
    at the new position and steering.
    """

    def __init__(self, cfg: EnvConfig, seed):
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)
        self.gateway = resolve_gateway(cfg)
        n_sub = wire.effective_substeps(cfg.phys, cfg.tau, cfg.substeps)  # wire.step's stepper, built once
        self._integrator = wire.Integrator([cfg.phys], cfg.tau, n_sub)
        self.wire_state: wire.WireState = None  # set by reset
        self.beam: BeamState = None
        self.steps_taken = 0
        self.reset()

    def reset(self) -> np.ndarray:
        """Equilibrium wire, time zero, beam aligned to the gateway."""
        self.wire_state = wire.equilibrium_shape(self.cfg.phys)
        aod = radio.aod_geometry(self.sbs_position, self.gateway)
        self.beam = BeamState(aod.zenith, aod.azimuth)
        self.steps_taken = 0
        return self.observe()

    @property
    def sbs_position(self) -> np.ndarray:
        return self.wire_state.positions[self.cfg.sbs_index]

    @property
    def sbs_velocity(self) -> np.ndarray:
        return self.wire_state.velocities[self.cfg.sbs_index]

    @property
    def time(self) -> float:
        return self.wire_state.time

    def observe(self) -> np.ndarray:
        """What both agents see: the 9-vector of SBS position, velocity and
        beam direction."""
        return np.concatenate([self.sbs_position, self.sbs_velocity, self.beam.direction()])

    def received_power_now(self) -> float:
        """Received power at the current position and steering, dBm."""
        aod = radio.aod_geometry(self.sbs_position, self.gateway)
        return radio.received_power(
            aod, self.beam.steer_zenith, self.beam.steer_azimuth, self.cfg.antenna, self.cfg.budget
        )

    def _total_wind(self, a_a: AdversaryAction) -> np.ndarray:
        v = wire.env_wind(self.time) if self.cfg.ambient_wind else np.zeros(3)
        return v + adversary_wind(a_a, self.cfg.adversary_speed)

    def preview_wire(self, a_a: AdversaryAction) -> wire.WireState:
        """Next wire state without mutating the env; reuses the exact noise
        the real step will draw (the RNG state is copied, not consumed)."""
        peek = np.random.Generator(np.random.PCG64())
        peek.bit_generator.state = self.rng.bit_generator.state
        return self._integrator.step(self.wire_state, self._total_wind(a_a), peek)

    def step(self, a_p: ProtagonistAction, a_a: AdversaryAction = AdversaryAction.STAY):
        """Advance one decision interval.

        Returns (observation, protagonist reward, adversary reward,
        received power in dBm). Raises EpisodeFinishedError past the horizon.
        """
        if self.steps_taken >= self.cfg.horizon:
            raise EpisodeFinishedError(
                f"episode horizon of {self.cfg.horizon} steps already reached"
            )
        self.wire_state = self._integrator.step(self.wire_state, self._total_wind(a_a), self.rng)
        self.beam = apply_protagonist_action(self.beam, a_p, self.cfg.beta)
        p_r = self.received_power_now()
        r_p = reward_from_power(p_r, self.cfg.clip_offset, self.cfg.clip_scale)
        self.steps_taken += 1
        return self.observe(), r_p, -r_p, p_r
