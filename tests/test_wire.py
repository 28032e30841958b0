import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from wirebeam import wire
from wirebeam.wire import (
    PhysParams,
    SimulationDivergedError,
    effective_substeps,
    env_wind,
    equilibrium_shape,
)
from conftest import tensile_acceleration

TAU = 0.01


def sag_parabola(params):
    """Closed-form equilibrium oracle: linear span plus a discrete parabola
    per axis, z_j = lerp_j - (c/2) * j * (N-1-j) with c = g*m/(k0*N)."""
    n = params.n_points
    c = -params.gravity * params.total_mass / (params.spring_constant * n)
    j = np.arange(n)[:, None]
    lerp = params.endpoint_a + (params.endpoint_b - params.endpoint_a) * j / (n - 1)
    return lerp - 0.5 * c * (j * (n - 1 - j))


def dense_solve_oracle(params):
    """Independent dense linear solve of the zero-acceleration system."""
    n = params.n_points
    n_int = n - 2
    a = np.zeros((n_int, n_int))
    for i in range(n_int):
        a[i, i] = -2.0
        if i > 0:
            a[i, i - 1] = 1.0
        if i < n_int - 1:
            a[i, i + 1] = 1.0
    out = np.empty((n, 3))
    out[0] = params.endpoint_a
    out[-1] = params.endpoint_b
    for axis in range(3):
        rhs = np.full(n_int, -params.gravity[axis] * params.total_mass / (params.spring_constant * n))
        rhs[0] -= params.endpoint_a[axis]
        rhs[-1] -= params.endpoint_b[axis]
        out[1:-1, axis] = np.linalg.solve(a, rhs)
    return out


class TestEquilibrium:
    def test_single_interior_point_hand_value(self):
        # one unknown: z1 satisfies (z0 + z2 - 2*z1) = -g*m/(k0*N)
        # => offset below the endpoint line = 9.8*10/(100*3)/2 = 0.163333 m
        p = PhysParams(n_points=3, total_mass=10.0, spring_constant=100.0)
        eq = equilibrium_shape(p)
        assert eq.positions[1][2] == pytest.approx(5.0 - 0.98 / 6.0, abs=1e-12)
        assert eq.positions[1][2] == pytest.approx(5.0 - 0.1633333333, abs=1e-9)

    def test_reference_midpoint_sag(self):
        p = PhysParams()
        eq = equilibrium_shape(p)
        assert 5.0 - eq.positions[5][2] == pytest.approx(1.1136363636363635, abs=1e-9)
        np.testing.assert_allclose(eq.positions, sag_parabola(p), atol=1e-9)
        np.testing.assert_allclose(eq.positions, dense_solve_oracle(p), atol=1e-9)

    def test_zero_gravity_straight_line(self):
        p = PhysParams(gravity=np.zeros(3))
        eq = equilibrium_shape(p)
        expected = np.linspace(p.endpoint_a, p.endpoint_b, p.n_points)
        np.testing.assert_allclose(eq.positions, expected, atol=1e-12)

    def test_zero_velocities_and_residual(self):
        p = PhysParams()
        eq = equilibrium_shape(p)
        assert not eq.velocities.any()
        worst = max(
            np.linalg.norm(tensile_acceleration(eq, i, p)) for i in range(1, p.n_points - 1)
        )
        assert worst < 1e-9


def banded_solve_oracle(params):
    """The rest shape as LAPACK solves it: scipy's solve_banded of the
    (1, -2, 1) system, the solve equilibrium_shape reproduces op for op."""
    n = params.n_points
    rhs = np.tile(-params.gravity * params.total_mass / (params.spring_constant * n), (n - 2, 1))
    rhs[0] -= params.endpoint_a
    rhs[-1] -= params.endpoint_b
    ab = np.zeros((3, n - 2))
    ab[0, 1:] = 1.0
    ab[1, :] = -2.0
    ab[2, :-1] = 1.0
    return np.vstack([params.endpoint_a, solve_banded((1, 1), ab, rhs), params.endpoint_b])


class TestEquilibriumBits:
    def test_bit_equal_to_banded_solve(self):
        # random wires, with zeroed components so that signed zeros pass
        # through the solve (the default wire's x right-hand side is all -0.0)
        rng = np.random.default_rng(2024)

        def vector(scale):
            return rng.normal(0.0, scale, 3) * (rng.random(3) < 0.7)

        params = [PhysParams()] + [
            PhysParams(
                n_points=int(rng.integers(3, 81)),
                total_mass=float(rng.uniform(0.1, 50.0)),
                spring_constant=float(rng.uniform(1.0, 500.0)),
                gravity=vector(10.0),
                endpoint_a=vector(10.0),
                endpoint_b=vector(10.0),
            )
            for _ in range(2000)
        ]
        assert {p.n_points for p in params} >= {3, 4, 80}
        for p in params:
            assert equilibrium_shape(p).positions.tobytes() == banded_solve_oracle(p).tobytes(), p

    def test_overflowing_system_rejected(self):
        p = PhysParams(total_mass=1e300, spring_constant=1e-300)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            equilibrium_shape(p)


class TestTensileAcceleration:
    def test_collinear_zero_gravity(self):
        p = PhysParams(n_points=5, gravity=np.zeros(3))
        eq = equilibrium_shape(p)
        for i in range(1, 4):
            np.testing.assert_allclose(tensile_acceleration(eq, i, p), np.zeros(3), atol=1e-12)

    def test_hand_value(self):
        # neighbors at the origin, point at (0,0,-1): 110 * 2 - 9.8 = 210.2
        p = PhysParams(n_points=11, total_mass=10.0, spring_constant=100.0, drag_constant=0.0,
                       wind_cov=np.zeros((3, 3)))
        state = wire.WireState(np.zeros((11, 3)), np.zeros((11, 3)))
        state.positions[5] = [0.0, 0.0, -1.0]
        np.testing.assert_allclose(
            tensile_acceleration(state, 5, p), [0.0, 0.0, 210.2], atol=1e-12
        )
        # the integrator applies the same acceleration: one drag-free, noise-free substep
        h = 1e-3
        nxt = wire.step(state, np.zeros(3), p, h, 1, np.random.default_rng(0))
        np.testing.assert_allclose(nxt.velocities[5] / h, [0.0, 0.0, 210.2], atol=1e-9)


class TestStep:
    def test_equilibrium_is_fixed_point(self):
        p = PhysParams(wind_cov=np.zeros((3, 3)))
        eq = equilibrium_shape(p)
        rng = np.random.default_rng(0)
        nxt = wire.step(eq, np.zeros(3), p, TAU, 1, rng)
        assert np.abs(nxt.positions - eq.positions).max() < 1e-12
        assert np.abs(nxt.velocities).max() < 1e-12

    def test_drag_vanishes_when_moving_with_wind(self):
        # a = 0, v = wind => dv = 0 and dx = v*dt exactly
        p = PhysParams(
            n_points=3,
            spring_constant=1.0,
            gravity=np.zeros(3),
            wind_cov=np.zeros((3, 3)),
            endpoint_a=np.array([0.0, 0.0, 0.0]),
            endpoint_b=np.array([2.0, 0.0, 0.0]),
        )
        eq = equilibrium_shape(p)
        eq.velocities[1] = [1.0, 0.0, 0.0]
        nxt = wire.step(eq, np.array([1.0, 0.0, 0.0]), p, TAU, 1, np.random.default_rng(0))
        np.testing.assert_allclose(nxt.velocities[1], [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(nxt.positions[1], [1.0 + TAU, 0.0, 0.0], atol=1e-15)

    def test_matches_independent_fine_step_reference(self):
        # trajectory statistic vs a plain-loop integration at 10x substeps
        p = PhysParams()

        def impl_stat(seed):
            st = equilibrium_shape(p)
            rng = np.random.default_rng(seed)
            x0 = st.positions[5].copy()
            acc = 0.0
            for _ in range(1000):
                st = wire.step(st, env_wind(st.time), p, TAU, 1, rng)
                acc += np.linalg.norm(st.positions[5] - x0)
            return acc / 1000

        def reference_stat(seed, substeps=10):
            rng = np.random.default_rng(seed)
            eq = equilibrium_shape(p)
            pos = [eq.positions[i].copy() for i in range(p.n_points)]
            vel = [np.zeros(3) for _ in range(p.n_points)]
            coef = p.spring_constant * p.n_points / p.total_mass
            h = TAU / substeps
            x0 = pos[5].copy()
            acc, t = 0.0, 0.0
            for _ in range(1000):
                w = env_wind(t)
                for _ in range(substeps):
                    xi = rng.standard_normal((p.n_points - 2, 3))
                    for j, i in enumerate(range(1, p.n_points - 1)):
                        a = p.gravity + coef * (pos[i + 1] + pos[i - 1] - 2 * pos[i])
                        vel[i] = vel[i] + (a - p.drag_constant * (vel[i] - w)) * h + (
                            p.wind_cov @ xi[j]
                        ) * np.sqrt(h)
                        pos[i] = pos[i] + vel[i] * h
                t += TAU
                acc += np.linalg.norm(pos[5] - x0)
            return acc / 1000

        a = impl_stat(123)
        b = reference_stat(321)
        assert abs(a - b) / b < 0.05

    def test_integrator_batch_matches_per_wire_loop(self):
        # per-wire winds, two substeps, and a zero-diffusion wire that draws no noise
        params = [
            PhysParams(total_mass=10.0),
            PhysParams(total_mass=5.0, wind_cov=np.zeros((3, 3))),
            PhysParams(total_mass=2.0, spring_constant=50.0, wind_cov=np.diag([0.1, 0.2, 0.3])),
        ]
        winds = np.array([[1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 3.0]])
        n_sub, h = 2, TAU / 2
        pos = np.stack([equilibrium_shape(p).positions for p in params], axis=1)  # point-major (N, B, 3)
        vel = np.zeros_like(pos)
        ref_pos, ref_vel = pos.transpose(1, 0, 2).copy(), vel.transpose(1, 0, 2).copy()
        rngs = [np.random.default_rng(i) for i in range(3)]
        ref_rngs = [np.random.default_rng(i) for i in range(3)]
        integrator = wire.Integrator(params, TAU, n_sub)
        for k in range(50):
            integrator.advance(pos, vel, winds[None], rngs, k * TAU)
            for x, v, w, p, rng in zip(ref_pos, ref_vel, winds, params, ref_rngs):
                for _ in range(n_sub):
                    accel = p.gravity + p.tension_coeff * (x[2:] + x[:-2] - 2.0 * x[1:-1])
                    dv = (accel - p.drag_constant * (v[1:-1] - w)) * h
                    if np.any(p.wind_cov):
                        dv += (rng.standard_normal((p.n_points - 2, 3)) @ p.wind_cov.T) * math.sqrt(h)
                    v[1:-1] += dv
                    x[1:-1] += v[1:-1] * h
        np.testing.assert_array_equal(pos, ref_pos.transpose(1, 0, 2))
        np.testing.assert_array_equal(vel, ref_vel.transpose(1, 0, 2))

    def test_block_draws_equal_one_interval_draws(self):
        # a block of 4 intervals over 10 advances (two refills and a partial last block) gives the bits of
        # block 1, whose generators end exactly where the draws consumed leave them; the quiet wire draws none
        params = [PhysParams(total_mass=10.0), PhysParams(total_mass=5.0, wind_cov=np.zeros((3, 3)))]
        states = {}
        for block in (1, 4):
            pos = np.stack([equilibrium_shape(p).positions for p in params], axis=1)  # point-major (N, B, 3)
            vel, rngs = np.zeros_like(pos), [np.random.default_rng(i) for i in range(2)]
            integrator = wire.Integrator(params, TAU, 2, block)
            for k in range(10):
                integrator.advance(pos, vel, env_wind(k * TAU)[None], rngs, k * TAU)
            states[block] = pos, vel, [rng.bit_generator.state for rng in rngs]
        np.testing.assert_array_equal(states[4][0], states[1][0])
        np.testing.assert_array_equal(states[4][1], states[1][1])
        consumed = [np.random.default_rng(i) for i in range(2)]
        consumed[0].standard_normal((10 * 2, params[0].n_points - 2, 3))
        assert states[1][2] == [rng.bit_generator.state for rng in consumed]

    @pytest.mark.parametrize("bad", [None, 1, 6, 9])
    def test_interval_axis_equals_one_interval_calls(self, bad):
        # one call of 10 intervals on a block of 4 (its noise chunks cross two refills) against ten one-interval
        # calls: equal tracks, states and generator states, and, when a NaN wind makes wire 1 go non-finite in
        # interval `bad`, the same error with its generators where the one-interval run leaves them
        params = [PhysParams(total_mass=10.0), PhysParams(total_mass=5.0, wind_cov=np.zeros((3, 3))),
                  PhysParams(total_mass=2.0)]
        winds = np.repeat(np.array([[[1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 3.0]]]), 10, axis=0)
        if bad is not None:
            winds[bad, 1] = np.nan
        runs = []
        for calls in ([slice(k, k + 1) for k in range(10)], [slice(0, 10)]):
            pos = np.stack([equilibrium_shape(p).positions for p in params], axis=1)
            vel, rngs = np.zeros_like(pos), [np.random.default_rng(i) for i in range(3)]
            track, error = np.full((2, 10, 3, 3), -1.0), None
            integrator, time = wire.Integrator(params, TAU, 2, 4), 0.0
            try:
                for call in calls:
                    integrator.advance(pos, vel, winds[call], rngs, time, (5, track[0, call], track[1, call]))
                    time += TAU
            except SimulationDivergedError as err:
                error = err.time, err.n_sub, err.bad_points.tolist(), str(err)
            runs.append((track[:, : bad or 10], error, [rng.bit_generator.state for rng in rngs],
                         None if bad else (pos, vel)))
        (one_track, one_error, one_rngs, one_state), (track, error, rngs, state) = runs
        np.testing.assert_array_equal(track, one_track)
        assert error == one_error and rngs == one_rngs
        if bad is None:
            assert error is None
            np.testing.assert_array_equal(state, one_state)
        else:
            assert round(error[0] / TAU) == bad + 1 and error[2] == list(range(1, 10))

    def test_diverged_state_raises_with_metadata(self):
        p = PhysParams()
        st = equilibrium_shape(p)
        st.positions[4] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(SimulationDivergedError) as err:
            wire.step(st, np.zeros(3), p, TAU, 1, np.random.default_rng(0))
        assert err.value.bad_points.size > 0
        assert err.value.time == pytest.approx(TAU)

    def test_bad_arguments(self):
        p = PhysParams()
        eq = equilibrium_shape(p)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            wire.step(eq, np.zeros(3), p, 0.0, 1, rng)
        with pytest.raises(ValueError):
            wire.step(eq, np.zeros(3), p, TAU, 0, rng)


class TestInvariants:
    def test_endpoint_pinning_bit_identical(self):
        p = PhysParams()
        st = equilibrium_shape(p)
        a0, b0 = st.positions[0].copy(), st.positions[-1].copy()
        rng = np.random.default_rng(5)
        for k in range(200):
            gust = rng.normal(scale=10.0, size=3)
            st = wire.step(st, gust, p, TAU, 1, rng)
        assert np.array_equal(st.positions[0], a0)
        assert np.array_equal(st.positions[-1], b0)
        assert not st.velocities[0].any() and not st.velocities[-1].any()

    def test_deterministic_replay(self):
        p = PhysParams()

        def run(seed):
            st = equilibrium_shape(p)
            rng = np.random.default_rng(seed)
            traj = []
            for _ in range(300):
                st = wire.step(st, env_wind(st.time), p, TAU, 1, rng)
                traj.append(st.positions.copy())
            return np.array(traj)

        np.testing.assert_array_equal(run(99), run(99))

    def test_drag_dissipates_mechanical_energy(self):
        # straight rest shape, one velocity kick, no gravity/noise/wind:
        # kinetic + spring potential must never increase
        p = PhysParams(gravity=np.zeros(3), wind_cov=np.zeros((3, 3)))
        st = equilibrium_shape(p)
        st.velocities[4] = [0.0, 0.0, 2.0]

        def energy(s):
            ke = 0.5 * p.point_mass * np.sum(s.velocities**2)
            pe = 0.5 * p.spring_constant * np.sum(np.diff(s.positions, axis=0) ** 2)
            return ke + pe

        rng = np.random.default_rng(0)
        levels = [energy(st)]
        for _ in range(200):
            st = wire.step(st, np.zeros(3), p, TAU, 10, rng)
            levels.append(energy(st))
        diffs = np.diff(levels)
        assert np.all(diffs <= 1e-12)
        assert levels[-1] < levels[0]

    def test_first_order_convergence(self):
        p = PhysParams(wind_cov=np.zeros((3, 3)))

        def end_midpoint(substeps):
            st = equilibrium_shape(p)
            rng = np.random.default_rng(0)
            for _ in range(100):
                st = wire.step(st, env_wind(st.time), p, TAU, substeps, rng)
            return st.positions[5]

        ref = end_midpoint(64)
        e1 = np.linalg.norm(end_midpoint(1) - ref)
        e2 = np.linalg.norm(end_midpoint(2) - ref)
        assert 1.4 < e1 / e2 < 3.0

    def test_auto_substepping_extreme_corner(self):
        p = PhysParams(total_mass=0.5, spring_constant=500.0)
        n = effective_substeps(p, TAU, 1)
        assert n > 1
        assert TAU / n < 0.5 * wire.stability_bound(p)
        # default parameters keep the requested count
        assert effective_substeps(PhysParams(), TAU, 1) == 1

    def test_auto_substepping_heavy_drag(self):
        # the semi-implicit drag term is stable only while c0*h < 2; one substep gives c0*h = 10
        p = PhysParams(drag_constant=1000.0)
        n = effective_substeps(p, TAU, 1)
        assert p.drag_constant * TAU / n < 1.0
        st, rng = equilibrium_shape(p), np.random.default_rng(0)
        for _ in range(1000):
            st = wire.step(st, env_wind(st.time), p, TAU, 1, rng)
        # the wire is dragged along with the wind but stays within tens of metres of its span
        assert np.abs(st.positions).max() < 100.0
        assert effective_substeps(PhysParams(drag_constant=99.0), TAU, 1) == 1

    def test_substep_count_capped(self):
        assert effective_substeps(PhysParams(), TAU, wire.MAX_SUBSTEPS) == wire.MAX_SUBSTEPS
        with pytest.raises(ValueError, match="needs 1001 substeps per decision interval, more than MAX_SUBSTEPS"):
            effective_substeps(PhysParams(), TAU, wire.MAX_SUBSTEPS + 1)
        # a light, soft wire needs ~1e143: refused, with every quantity the count depends on
        message = r"\(total_mass 1e-300 kg, spring_constant 1e-10 N/m, drag_constant 1.0 1/s, decision_interval_s 0.01 s\)$"
        with pytest.raises(ValueError, match=message):
            effective_substeps(PhysParams(total_mass=1e-300, spring_constant=1e-10), TAU, 1)


class TestEnvWind:
    def test_reference_values(self):
        np.testing.assert_allclose(env_wind(0.0), np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(
            env_wind(1.0), [5.0, 5.0 * np.sin(np.pi / 3), 5.0 * np.sin(np.pi / 4)], atol=1e-12
        )
        np.testing.assert_allclose(env_wind(1.0), [5.0, 4.330127, 3.5355339], atol=1e-6)
        np.testing.assert_allclose(env_wind(12.0), np.zeros(3), atol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            env_wind(-0.1)


class TestPhysParamsValidation:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PhysParams(n_points=2)
        with pytest.raises(ValueError):
            PhysParams(total_mass=-1.0)
        with pytest.raises(ValueError):
            PhysParams(spring_constant=0.0)
        with pytest.raises(ValueError):
            PhysParams(drag_constant=-0.5)
        with pytest.raises(ValueError):
            PhysParams(wind_cov=np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]))
        with pytest.raises(ValueError):
            PhysParams(wind_cov=-np.eye(3))
