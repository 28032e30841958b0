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
advances B point-major wires, (N, B, 3), in place by any number of
decision intervals per call (the wires of an env.EnvBatch, for one) and
returns the track of one point; `step` advances one (N, 3) wire by one
interval into new arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class SimulationDivergedError(RuntimeError):
    """Raised when the integrator produces non-finite state."""

    def __init__(self, time: float, n_sub: int, bad_points: np.ndarray):
        self.time = time
        self.n_sub = n_sub
        self.bad_points = np.asarray(bad_points)
        super().__init__(
            f"wire simulation diverged at t={time:.6g}s "
            f"(within the interval's {n_sub} substeps, points {self.bad_points.tolist()})"
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


def _finite(pos: np.ndarray, vel: np.ndarray) -> bool:
    return bool(np.isfinite(pos).all() and np.isfinite(vel).all())


class Integrator:
    """Semi-implicit Euler-Maruyama stepper for B wires that share n_points,
    the decision interval dt and the substep count n_sub. Each wire keeps its
    own PhysParams and draws its noise from its own generator, so a wire's
    trajectory does not depend on the others. The wires are point-major,
    (N, B, 3): each substep's ufuncs read every wire's interior points as one
    contiguous slice. One `advance` call steps any number of intervals.

    Noise is drawn `block` decision intervals at a time: one standard_normal
    call per noisy wire fills all `block` * n_sub substeps. A bulk draw of
    numpy's Generator equals the same draws made one at a time, so the bits
    do not depend on `block`; but a generator is left up to block - 1
    intervals ahead of the draws consumed. So a block above 1 is only for
    generators that no caller reads (env.EnvBatch.of's own); with block 1,
    each interval draws exactly the noise it uses.
    """

    def __init__(self, params: list, dt: float, n_sub: int, block: int = 1):
        self.dt, self.n_sub = dt, n_sub
        self.h = dt / n_sub
        self.sqrt_h = math.sqrt(self.h)
        self.gravity = np.array([p.gravity for p in params])
        self.coeff = np.array([p.tension_coeff for p in params])[:, None]
        self.drag = np.array([p.drag_constant for p in params])[:, None]
        # wires with a zero diffusion matrix draw no noise
        self.noisy = [b for b, p in enumerate(params) if np.count_nonzero(p.wind_cov)]
        self.all_noisy = len(self.noisy) == len(params)
        self.cov_t = [params[b].wind_cov.T for b in self.noisy]
        # the (V @ xi)*sqrt(h) of `block` intervals of n_sub substeps, point-major: (block, n_sub, N - 2, noisy
        # wires, 3); one wire's draws xi
        self.kicks = np.empty((block, n_sub, params[0].n_points - 2, len(self.noisy), 3))
        self.xi = np.empty((block, n_sub, params[0].n_points - 2, 3))
        self.used = block  # intervals of `kicks` consumed: all, so the first advance draws
        self.accel, self.temp = np.empty((2, params[0].n_points - 2, len(params), 3))  # each substep's temporaries

    def _draw(self, rngs: list):
        """Refill `kicks` with the next `block` intervals of every noisy wire's noise: each wire's xi @ V
        as one 2-D matmul into its strided slot, then the whole block scaled by sqrt(h) at once."""
        slots = self.kicks.reshape(-1, len(self.noisy), 3)
        for j, (cov_t, b) in enumerate(zip(self.cov_t, self.noisy)):
            rngs[b].standard_normal(out=self.xi)
            np.matmul(self.xi.reshape(-1, 3), cov_t, out=slots[:, j])
        self.kicks *= self.sqrt_h
        self.used = 0

    def advance(self, pos: np.ndarray, vel: np.ndarray, winds: np.ndarray, rngs: list, times, point: int) -> np.ndarray:
        """Advance point-major (N, B, 3) positions and velocities by L
        intervals of dt, in place, under the winds of L intervals, (L, 3)
        shared by all wires or (L, B, 3) per wire, each held over its interval:

            v += a*h - c0*(v - v_wind)*h + (V @ xi)*sqrt(h),  xi ~ N(0, I3)
            x += v*h          (updated v; endpoints never move)

        Noise is i.i.d. per interior point per substep, wire b's from rngs[b]
        (the same generators on every call), drawn a block at a time. `times`
        holds the L + 1 interval-edge times. Returns the (L, B, 6) track of
        `point`: each wire's pos[point] and vel[point] after each interval.

        Finiteness is checked once per noise block that the call reaches, not
        per interval: the update only adds, subtracts and multiplies, which
        never turn inf or NaN back into a finite number, and the endpoints never
        move, so a wire that went non-finite anywhere in the block ends
        non-finite. The block is then rerun from its start state and its noise
        cursor (the kicks already drawn) one interval at a time, so the call
        raises the SimulationDivergedError of a per-interval run, at times[l + 1]
        for the first interval l after which a wire is non-finite, with the same
        substep count and points, and leaves every generator where such a run
        leaves it.
        """
        track, done = np.empty((len(winds), pos.shape[1], 6)), 0
        while done < len(winds):
            if self.noisy and self.used == len(self.kicks):
                self._draw(rngs)
            count = len(winds) - done
            if self.noisy:
                count = min(count, len(self.kicks) - self.used)
            start = (pos.copy(), vel.copy(), self.used) if count > 1 else None
            self._substeps(pos, vel, winds[done : done + count], track[done : done + count], point)
            if not _finite(pos, vel):
                l = done
                if start is not None:  # rerun the block one interval at a time up to its first bad one
                    pos[...], vel[...], self.used = start
                    for l in range(done, done + count):
                        self._substeps(pos, vel, winds[l : l + 1], track[l : l + 1], point)
                        if not _finite(pos, vel):
                            break
                bad = ~(np.isfinite(pos).all(axis=2) & np.isfinite(vel).all(axis=2))  # (N, B)
                b = int(np.flatnonzero(bad.any(axis=0))[0])
                raise SimulationDivergedError(times[l + 1], self.n_sub, np.flatnonzero(bad[:, b]))
            done += count
        return track

    def _substeps(self, pos, vel, winds, track, point: int):
        """The substeps of the intervals of `winds`, each wire's pos[point] and vel[point] after each into `track`."""
        h, inner, right, left, inner_vel = self.h, pos[1:-1], pos[2:], pos[:-2], vel[1:-1]
        accel, temp = self.accel, self.temp
        for wind, out in zip(winds, track):
            if self.noisy:
                kicks = self.kicks[self.used]
                self.used += 1
            for s in range(self.n_sub):  # the formula of `advance`, op for op, in two buffers
                np.add(right, left, out=accel)
                np.multiply(2.0, inner, out=temp)
                np.subtract(accel, temp, out=accel)
                np.multiply(self.coeff, accel, out=accel)
                np.add(self.gravity, accel, out=accel)
                np.subtract(inner_vel, wind, out=temp)
                np.multiply(self.drag, temp, out=temp)
                np.subtract(accel, temp, out=accel)
                dv = np.multiply(accel, h, out=accel)
                if self.all_noisy:
                    dv += kicks[s]
                elif self.noisy:
                    dv[:, self.noisy] += kicks[s]
                inner_vel += dv
                inner += np.multiply(inner_vel, h, out=temp)
            out[:, :3], out[:, 3:] = pos[point], vel[point]


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
    pos, vel = state.positions[:, None].copy(), state.velocities[:, None].copy()
    integrator = Integrator([params], dt, effective_substeps(params, dt, substeps))
    winds = np.asarray(wind_velocity, dtype=np.float64)[None]
    integrator.advance(pos, vel, winds, [rng], [state.time, state.time + dt], 0)
    return WireState(pos[:, 0], vel[:, 0], state.time + dt)


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
