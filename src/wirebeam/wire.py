"""Stochastic dynamics of a suspended messenger wire.

The wire is modeled as a chain of N proxy mass points pinned at both ends.
Each interior point carries mass m/N and feels gravity, a linear tensile
force from its two neighbors, frictional drag relative to the wind, and a
random pressure-drag kick. Interior accelerations:

    a_i = g + (k0*N/m) * (x_{i+1} + x_{i-1} - 2*x_i)

and the velocity/position SDE is integrated with a first-order
semi-implicit Euler-Maruyama scheme (velocity first, position advanced
with the updated velocity; the fully explicit variant is unstable at the
default step for the stiffest modes). Integrator is the one stepper: it
advances B wires in place (the wires of an env.EnvBatch, for one), and
`step` advances one wire into new arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class SimulationDivergedError(RuntimeError):
    """Raised when the integrator produces non-finite state."""

    def __init__(self, time: float, substep: int, bad_points: np.ndarray):
        self.time = time
        self.substep = substep
        self.bad_points = np.asarray(bad_points)
        super().__init__(
            f"wire simulation diverged at t={time:.6g}s "
            f"(substep {substep}, points {self.bad_points.tolist()})"
        )


@dataclass
class PhysParams:
    """Physical constants of the wire and its environment.

    n_points        number of proxy mass points N (endpoints included)
    total_mass      total wire mass m in kg, split equally over points
    spring_constant tensile-force coefficient k0 in N/m
    drag_constant   frictional drag coefficient c0 in 1/s
    gravity         gravitational acceleration vector, m/s^2
    wind_cov        3x3 diffusion matrix multiplying the Wiener increment
    endpoint_a/b    fixed endpoint coordinates, m
    """

    n_points: int = 11
    total_mass: float = 10.0
    spring_constant: float = 100.0
    drag_constant: float = 1.0
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -9.8]))
    wind_cov: np.ndarray = field(default_factory=lambda: 0.1 * np.eye(3))
    endpoint_a: np.ndarray = field(default_factory=lambda: np.array([0.0, -5.0, 5.0]))
    endpoint_b: np.ndarray = field(default_factory=lambda: np.array([0.0, 5.0, 5.0]))

    def __post_init__(self):
        self.gravity = np.asarray(self.gravity, dtype=np.float64)
        self.wind_cov = np.asarray(self.wind_cov, dtype=np.float64)
        self.endpoint_a = np.asarray(self.endpoint_a, dtype=np.float64)
        self.endpoint_b = np.asarray(self.endpoint_b, dtype=np.float64)
        for name in ("total_mass", "spring_constant", "drag_constant", "gravity", "wind_cov", "endpoint_a", "endpoint_b"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if self.n_points < 3:
            raise ValueError("n_points must be >= 3 (need at least one interior point)")
        if self.total_mass <= 0:
            raise ValueError("total_mass must be > 0")
        if self.spring_constant <= 0:
            raise ValueError("spring_constant must be > 0")
        if self.drag_constant < 0:
            raise ValueError("drag_constant must be >= 0")
        if self.wind_cov.shape != (3, 3):
            raise ValueError("wind_cov must be a 3x3 matrix")
        if not np.allclose(self.wind_cov, self.wind_cov.T, atol=1e-12):
            raise ValueError("wind_cov must be symmetric")
        if np.linalg.eigvalsh(self.wind_cov).min() < -1e-12:
            raise ValueError("wind_cov must be positive semi-definite")

    @property
    def point_mass(self) -> float:
        return self.total_mass / self.n_points

    @property
    def tension_coeff(self) -> float:
        """Acceleration per unit second-difference, k0*N/m in 1/s^2."""
        return self.spring_constant * self.n_points / self.total_mass


@dataclass
class WireState:
    """Positions and velocities of all N proxy points at a time instant."""

    positions: np.ndarray  # (N, 3) m
    velocities: np.ndarray  # (N, 3) m/s
    time: float = 0.0

    def copy(self) -> "WireState":
        return WireState(self.positions.copy(), self.velocities.copy(), self.time)


def stability_bound(params: PhysParams) -> float:
    """Largest stable physics substep, 2*sqrt(m / (2*k0*N)) seconds."""
    return 2.0 * math.sqrt(params.total_mass / (2.0 * params.spring_constant * params.n_points))


# most substeps per decision interval; a wire that needs more would cost over 1000 stock steps per decision
MAX_SUBSTEPS = 1000


def effective_substeps(params: PhysParams, dt: float, substeps: int) -> int:
    """Raise the substep count if needed to keep h strictly below half of
    each stability bound: the spring's (stability_bound) and the drag's,
    c0*h < 2 for the semi-implicit drag term, so c0*h < 1 (matters only for
    extreme mass, stiffness or drag corners). Raises ValueError when no finite
    count does, e.g. when the spring's bound underflows to 0, or when the
    count exceeds MAX_SUBSTEPS."""
    half = 0.5 * stability_bound(params)
    needed = max(dt / half, dt * params.drag_constant) if half > 0.0 else math.inf
    if not math.isfinite(needed):
        raise ValueError(
            f"no finite substep count keeps the wire stable: its stability bound is {2.0 * half!r} s"
            f" (total_mass {params.total_mass!r} kg, spring_constant {params.spring_constant!r} N/m)"
        )
    count = max(substeps, int(math.floor(needed)) + 1)
    if count > MAX_SUBSTEPS:
        raise ValueError(
            f"the wire needs {float(count):.6g} substeps per decision interval, more than MAX_SUBSTEPS = {MAX_SUBSTEPS}"
            f" (total_mass {params.total_mass!r} kg, spring_constant {params.spring_constant!r} N/m,"
            f" drag_constant {params.drag_constant!r} 1/s, decision_interval_s {dt!r} s)"
        )
    return count


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises the ValueError below, not a warning
def equilibrium_shape(params: PhysParams) -> WireState:
    """Static wire shape: zero velocities and zero interior acceleration.

    The interior positions of all three axes solve one tridiagonal system
    x_{i-1} - 2*x_i + x_{i+1} = -g_c * m / (k0 * N), one right-hand-side
    column per axis, with the pinned endpoints folded into the right-hand
    side. The solve is LAPACK gtsv's elimination and back-substitution, op
    for op, so the shape is bit-equal to a LAPACK solve (the tests'
    reference; the package runs on numpy alone). Only gtsv's no-pivot
    branch is needed: the pivots are d_i = -(i+2)/(i+1) and |d_i| > 1 =
    |l_i|, so no row ever swaps, and the matrix is nonsingular for every
    n_points. Raises ValueError when the system or its solution is not finite.
    """
    n = params.n_points
    b = np.tile(-params.gravity * params.total_mass / (params.spring_constant * n), (n, 1))
    b[0] -= params.endpoint_a
    b[-3] -= params.endpoint_b
    b[-2:] = 0.0  # the b[i + 2] that gtsv's zeroed fill-in term multiplies in the last two rows
    if not np.isfinite(b).all():  # before the solve, whose 0 * inf fill-in terms would be NaN
        raise ValueError("wire equilibrium system is not finite: g * m / (k0 * N) overflows")
    d = np.full(n - 2, -2.0)
    for i in range(n - 3):
        fact = 1.0 / d[i]
        d[i + 1] -= fact
        b[i + 1] -= fact * b[i]
    b[n - 3] /= d[-1]
    for i in range(n - 4, -1, -1):
        b[i] = (b[i] - b[i + 1] - 0.0 * b[i + 2]) / d[i]
    if not np.isfinite(b).all():
        raise ValueError("wire equilibrium shape overflows")
    positions = np.vstack([params.endpoint_a, b[:-2], params.endpoint_b])
    return WireState(positions, np.zeros((n, 3)), 0.0)


class Integrator:
    """Semi-implicit Euler-Maruyama stepper for B wires that share n_points,
    the decision interval dt and the substep count n_sub. Each wire keeps its
    own PhysParams and draws its noise from its own generator, so a wire's
    trajectory does not depend on the others.

    Noise is drawn `block` decision intervals at a time: one standard_normal
    call per noisy wire fills all `block` * n_sub substeps. A bulk draw of
    numpy's Generator equals the same draws made one at a time, so the bits
    do not depend on `block`; but a generator is left up to block - 1
    intervals ahead of the draws consumed. So a block above 1 is only for
    generators that no caller reads (env.EnvBatch.of's own); with block 1,
    each advance draws exactly the noise it uses.
    """

    def __init__(self, params: list, dt: float, n_sub: int, block: int = 1):
        self.dt, self.n_sub = dt, n_sub
        self.h = dt / n_sub
        self.sqrt_h = math.sqrt(self.h)
        self.gravity = np.array([p.gravity for p in params])[:, None, :]
        self.coeff = np.array([p.tension_coeff for p in params])[:, None, None]
        self.drag = np.array([p.drag_constant for p in params])[:, None, None]
        # wires with a zero diffusion matrix draw no noise
        self.noisy = [b for b, p in enumerate(params) if np.count_nonzero(p.wind_cov)]
        self.all_noisy = len(self.noisy) == len(params)
        self.cov_t = [params[b].wind_cov.T for b in self.noisy]
        # per noisy wire, the (V @ xi)*sqrt(h) of `block` intervals of n_sub substeps, and one wire's draws
        self.kicks = np.empty((len(self.noisy), block, n_sub, params[0].n_points - 2, 3))
        self.xi = np.empty(self.kicks.shape[1:])
        self.used = block  # intervals of `kicks` consumed: all, so the first advance draws

    def advance(self, pos: np.ndarray, vel: np.ndarray, wind: np.ndarray, rngs: list, time: float):
        """Advance (B, N, 3) positions and velocities by dt, in place, under
        a wind (3,) shared by all wires or (B, 1, 3) per wire:

            v += a*h - c0*(v - v_wind)*h + (V @ xi)*sqrt(h),  xi ~ N(0, I3)
            x += v*h          (updated v; endpoints never move)

        Noise is i.i.d. per interior point per substep, wire b's from rngs[b]
        (the same generators on every call), drawn a block at a time. Raises
        SimulationDivergedError for the first wire that goes non-finite.
        """
        h = self.h
        if self.noisy:
            if self.used == self.kicks.shape[1]:
                for kick, cov_t, b in zip(self.kicks, self.cov_t, self.noisy):
                    rngs[b].standard_normal(out=self.xi)
                    np.matmul(self.xi, cov_t, out=kick)
                self.kicks *= self.sqrt_h
                self.used = 0
            kicks = self.kicks[:, self.used]
            self.used += 1
        for s in range(self.n_sub):
            inner = pos[:, 1:-1]
            accel = self.gravity + self.coeff * (pos[:, 2:] + pos[:, :-2] - 2.0 * inner)
            dv = (accel - self.drag * (vel[:, 1:-1] - wind)) * h
            if self.all_noisy:
                dv += kicks[:, s]
            elif self.noisy:
                dv[self.noisy] += kicks[:, s]
            vel[:, 1:-1] += dv
            pos[:, 1:-1] += vel[:, 1:-1] * h

        if not (np.isfinite(pos).all() and np.isfinite(vel).all()):
            bad_pos = ~np.isfinite(pos).all(axis=2)
            bad_vel = ~np.isfinite(vel).all(axis=2)
            b = int(np.nonzero((bad_pos | bad_vel).any(axis=1))[0][0])
            bad = np.nonzero(bad_pos[b] | bad_vel[b])[0]
            raise SimulationDivergedError(time + self.dt, self.n_sub, bad)


def step(
    state: WireState,
    wind_velocity: np.ndarray,
    params: PhysParams,
    dt: float,
    substeps: int,
    rng: np.random.Generator,
) -> WireState:
    """The wire advanced by dt from `state`, in new arrays, under a wind held
    constant over the interval: Integrator.advance of one wire over `substeps`
    (auto-raised when the stability bound demands it) sub-intervals
    h = dt/substeps, drawing from `rng` exactly the noise it uses (block 1).
    Raises SimulationDivergedError on non-finite state.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    pos, vel = state.positions[None].copy(), state.velocities[None].copy()
    integrator = Integrator([params], dt, effective_substeps(params, dt, substeps))
    integrator.advance(pos, vel, np.asarray(wind_velocity, dtype=np.float64), [rng], state.time)
    return WireState(pos[0], vel[0], state.time + dt)


def env_wind(t: float) -> np.ndarray:
    """Ambient wind at time t: slow sinusoids with 4/6/8 s periods, 5 m/s peaks."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return np.array(
        [
            5.0 * math.sin(2.0 * math.pi * t / 4.0),
            5.0 * math.sin(2.0 * math.pi * t / 6.0),
            5.0 * math.sin(2.0 * math.pi * t / 8.0),
        ]
    )


def mechanical_energy(state: WireState, params: PhysParams) -> float:
    """Kinetic plus spring potential energy (Lyapunov function of the drag)."""
    ke = 0.5 * params.point_mass * float(np.sum(state.velocities**2))
    seg = np.diff(state.positions, axis=0)
    pe = 0.5 * params.spring_constant * float(np.sum(seg**2))
    return ke + pe
