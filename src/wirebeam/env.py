"""Beam-tracking decision process on the swaying wire.

Couples the wire physics to the phased-array link: a tracking agent (the
protagonist) nudges the steering angles by +/- beta per step while an
optional adversary injects additional wind. The per-step reward is the
received power mapped through a clipped linear band, and the adversary's
reward is its exact negation (zero-sum).

EnvBatch holds the state once, as arrays of leading shape () for one
environment (BeamTrackingEnv) or (B,) for a batch (EnvBatch.of, which
rarl.rollout and rarl.train step), its wires point-major: its methods are
the only copy of the step arithmetic.
"""

from __future__ import annotations

import copy
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

# decision intervals per draw of a generator private to a batch: EnvBatch.of's wire noise, rarl.rollout's
# random actions; a bulk draw equals the same draws one at a time, so no output depends on it
NOISE_BLOCK = 64


def beam_direction(steer_zenith_deg, steer_azimuth_deg) -> np.ndarray:
    """Unit vectors [sin(t)cos(p), sin(t)sin(p), cos(t)] of beams steered at
    (zenith t, azimuth p) degrees: (3,) for one beam, (B, 3) for (B,) arrays."""
    t, p = np.radians(steer_zenith_deg), np.radians(steer_azimuth_deg)
    sin_t = np.sin(t)
    return np.array([sin_t * np.cos(p), sin_t * np.sin(p), np.cos(t)]).T


def reward_from_power(p_r_dbm, clip_offset: float, clip_scale: float):
    """Clipped linear reward: ((P_r - offset) / scale) clamped to [-1, 1], a float
    for one power and an array for an array; a NaN power gives a NaN reward,
    which ReplayMemory.push then refuses."""
    reward = np.minimum(np.maximum((p_r_dbm - clip_offset) / clip_scale, -1.0), 1.0)
    return float(reward) if np.ndim(reward) == 0 else reward


@dataclass
class EnvConfig:
    """Everything needed to build one beam-tracking episode.

    The gateway sits at horizontal distance gateway_distance from the
    resting SBS, at the resting SBS height if gateway_level_with_sbs else
    at gateway_height; level with the SBS, the resting link distance is
    exactly gateway_distance and the aligned steering (90, 0) degrees.
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


class EnvBatch:
    """Environments of one EnvConfig as arrays of leading shape () or (B,):
    point-major wires (N, ..., 3), so that the integrator reads every row's
    interior points as one contiguous slice, steering angles (..., 2),
    gateways (..., 3), one time.

    `groups` holds one (rows, wire.Integrator, generators) triple per
    substep count: rows index the leading shape (None for one environment,
    which the integrator sees as a batch of one; a slice or an index array
    for a batch), one generator per row. The generators that EnvBatch.of
    makes are the batch's own, so their integrators draw NOISE_BLOCK
    intervals of noise at a time; a generator that a caller can read
    (BeamTrackingEnv.rng) is drawn one interval at a time.
    """

    def __init__(self, cfg: EnvConfig, rest: np.ndarray, groups: list):
        self.cfg, self.rest, self.groups = cfg, rest, groups
        self.gateway = rest[cfg.sbs_index] - [cfg.gateway_distance, 0.0, 0.0]
        if not cfg.gateway_level_with_sbs:
            self.gateway[..., 2] = cfg.gateway_height
        self.gusts = WIND_DIRS * cfg.adversary_speed  # adversary wind per action
        self.moves = ANGLE_STEPS * cfg.beta  # steering change per protagonist action, degrees
        self.reset()

    @classmethod
    def of(cls, cfg: EnvConfig, physes, seeds) -> "EnvBatch":
        """B = len(seeds) environments in the order given, b with the physics
        physes[b] (one n_points for all, with cfg.sbs_point an interior point)
        and the noise of default_rng(seeds[b]), drawn NOISE_BLOCK intervals at
        a time; one group per substep count, whose rows are slice(None) if it
        holds every row, else an index array."""
        for b, p in enumerate(physes):
            if p.n_points != physes[0].n_points:
                raise ValueError(f"an EnvBatch needs one n_points: row {b} has {p.n_points}, row 0 {physes[0].n_points}")
        if not 2 <= cfg.sbs_point <= physes[0].n_points - 1:
            raise ValueError(
                f"sbs_point {cfg.sbs_point} must be an interior point (2..{physes[0].n_points - 1})"
                f" of the rows' wires of n_points {physes[0].n_points}"
            )
        substeps = np.array([wire.effective_substeps(p, cfg.tau, cfg.substeps) for p in physes])
        groups = []
        for n_sub in np.unique(substeps):
            members = np.flatnonzero(substeps == n_sub)
            rows = slice(None) if len(members) == len(physes) else members
            rngs = [np.random.default_rng(seeds[i]) for i in members]
            integrator = wire.Integrator([physes[i] for i in members], cfg.tau, int(n_sub), NOISE_BLOCK)
            groups.append((rows, integrator, rngs))
        return cls(cfg, np.stack([wire.equilibrium_shape(p).positions for p in physes], axis=1), groups)

    def reset(self) -> np.ndarray:
        """Every wire at rest, time zero, every beam aligned to its gateway."""
        self.pos, self.vel, self.time = self.rest.copy(), np.zeros_like(self.rest), 0.0
        # (..., 2) steering angles in degrees: the zenith and azimuth of departure
        self.steer = np.stack(radio.aod_batch(self.sbs_position, self.gateway)[1:], axis=-1)
        return self.observe()

    @property
    def sbs_position(self) -> np.ndarray:
        return self.pos[self.cfg.sbs_index]

    @property
    def sbs_velocity(self) -> np.ndarray:
        return self.vel[self.cfg.sbs_index]

    @staticmethod
    def observation(position, velocity, steer) -> np.ndarray:
        """What both agents see, in new memory: station position, velocity and
        the beam direction of the steering angles `steer`, (..., 9)."""
        return np.concatenate([position, velocity, beam_direction(*steer.T)], axis=-1)

    def observe(self, rows=()) -> np.ndarray:
        """The observation of `rows` (an index of the leading shape)."""
        return self.observation(self.sbs_position[rows], self.sbs_velocity[rows], self.steer[rows])

    def advance(self, a_a, track=None) -> list:
        """Advance every wire by tau, in place, under the ambient wind plus the
        gust of each adversary action in a_a (STAY adds none); or, given
        `track`, a pair of (L, ..., 3) buffers, by L intervals under the same
        gusts, one Integrator.advance call per group, writing each row's
        station position and velocity after interval l into track[0][l] and
        track[1][l]. The ambient wind of each interval is env_wind at its start
        time, the times adding tau once per interval. Returns the L times
        after each interval. A wire that diverges raises the
        SimulationDivergedError of a per-interval run: the earliest interval's,
        the first group's at a tie."""
        times = [self.time]
        for _ in range(1 if track is None else len(track[0])):
            times.append(times[-1] + self.cfg.tau)
        gust = self.gusts[a_a]  # (..., 3)
        if self.cfg.ambient_wind:
            ambient = np.array([wire.env_wind(t) for t in times[:-1]])
        else:
            ambient = np.zeros((len(times) - 1, 3))
        winds = (ambient[:, None] if gust.ndim == 2 else ambient) + gust  # (L, ..., 3)
        errors = []
        for rows, integrator, rngs in self.groups:
            pos, vel = self.pos[:, rows], self.vel[:, rows]  # views, or copies for an index array
            out = None if track is None else (self.cfg.sbs_index, track[0][:, rows], track[1][:, rows])
            try:
                integrator.advance(pos, vel, winds[:, rows], rngs, self.time, out)
            except wire.SimulationDivergedError as error:
                errors.append(error)
            if isinstance(rows, np.ndarray):
                self.pos[:, rows], self.vel[:, rows] = pos, vel
                if track is not None:
                    track[0][:, rows], track[1][:, rows] = out[1:]
        if errors:
            raise min(errors, key=lambda error: error.time)
        self.time = times[-1]
        return times[1:]

    def geometry(self, positions: np.ndarray):
        """The steering-free link terms of station positions toward the rows'
        gateways: (path gain, element gain, cos(theta), sin(theta)*sin(phi)),
        the first two in dB, the last two the array factor's arrival terms.
        Positions (..., 3) give terms of the leading shape; a track of L
        intervals, (L, B, 3), gives (L, B) terms in one call of each."""
        distance, zenith, azimuth = radio.aod_batch(positions, self.gateway)
        antenna = self.cfg.antenna
        path = radio.path_gain_db(distance, antenna.wavelength)
        return path, radio.element_pattern(zenith, azimuth, antenna), *radio.af_arrival(zenith, azimuth)

    def score(self, terms, beams: np.ndarray):
        """Received power in dBm of the steering angles `beams`, (..., 2), on
        geometry's four link terms `terms`, which broadcast against beams'
        leading shape: only the steered array factor is computed here."""
        path, element, *arrival = terms
        af = radio.af_steered(arrival, *beams.T, self.cfg.antenna)
        return radio.link_sum(element, af, path, self.cfg.budget)

    def power(self, beams: np.ndarray):
        """Received power in dBm of the steering angles `beams`, one per row,
        on the current geometry: its link terms, then their score."""
        return self.score(self.geometry(self.sbs_position), beams)

    def transition(self, a_p, a_a):
        """One decision interval of every environment: advance under the gusts of the
        adversary actions a_a, apply the steering moves of the tracker actions a_p and
        score the new geometry. Returns the received power in dBm and the tracker's
        clipped reward; the adversary's reward is its negation."""
        self.advance(a_a)
        self.steer += self.moves[a_p]
        p_r = self.power(self.steer)
        return p_r, reward_from_power(p_r, self.cfg.clip_offset, self.cfg.clip_scale)


class BeamTrackingEnv(EnvBatch):
    """One episode of the two-agent beam-tracking process: the EnvBatch of
    leading shape (), whose `wire_state` is a snapshot.

    The wire starts at its static equilibrium and the beam starts exactly
    aligned with the gateway as seen from that resting position. Each
    step: compose ambient plus adversary wind, advance the physics by tau,
    apply the protagonist's steering move, then score the received power
    at the new position and steering.
    """

    def __init__(self, cfg: EnvConfig, seed):
        self.rng = np.random.default_rng(seed)
        n_sub = wire.effective_substeps(cfg.phys, cfg.tau, cfg.substeps)
        stepper = (None, wire.Integrator([cfg.phys], cfg.tau, n_sub), [self.rng])
        super().__init__(cfg, wire.equilibrium_shape(cfg.phys).positions, [stepper])

    def reset(self) -> np.ndarray:
        """Equilibrium wire, time zero, beam aligned to the gateway."""
        self.steps_taken = 0
        return super().reset()

    @property
    def wire_state(self) -> wire.WireState:
        return wire.WireState(self.pos.copy(), self.vel.copy(), self.time)

    def received_power_now(self) -> float:
        """Received power at the current position and steering, dBm."""
        return float(self.power(self.steer))

    def preview_wire(self, a_a: AdversaryAction) -> wire.WireState:
        """Next wire state without mutating the env: a copy advances, drawing
        the exact noise the real step will draw from a copy of the generator."""
        peek = copy.deepcopy(self)
        peek.advance(a_a)
        return peek.wire_state

    def step(self, a_p: ProtagonistAction, a_a: AdversaryAction = AdversaryAction.STAY):
        """Advance one decision interval.

        Returns (observation, protagonist reward, adversary reward,
        received power in dBm). Raises EpisodeFinishedError past the horizon.
        """
        if self.steps_taken >= self.cfg.horizon:
            raise EpisodeFinishedError(
                f"episode horizon of {self.cfg.horizon} steps already reached"
            )
        p_r, r_p = self.transition(a_p, a_a)
        self.steps_taken += 1
        return self.observe(), r_p, -r_p, float(p_r)
