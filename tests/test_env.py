import numpy as np
import pytest
from dataclasses import replace

import wirebeam as wb
from wirebeam.env import (
    NOISE_BLOCK,
    AdversaryAction,
    BeamTrackingEnv,
    EnvBatch,
    EnvConfig,
    EpisodeFinishedError,
    ProtagonistAction,
    beam_direction,
    reward_from_power,
)

STATIC_POWER = -12.881197714043807  # aligned boresight at 5 m


class TestReset:
    def test_initial_power_is_aligned_boresight(self):
        env = BeamTrackingEnv(EnvConfig(), seed=0)
        assert env.received_power_now() == pytest.approx(STATIC_POWER, abs=1e-9)
        np.testing.assert_allclose(env.steer, [90.0, 0.0], rtol=0, atol=1e-9)

    def test_zero_gravity_alignment(self):
        cfg = EnvConfig(phys=wb.PhysParams(gravity=np.zeros(3)))
        env = BeamTrackingEnv(cfg, seed=0)
        np.testing.assert_allclose(env.steer, [90.0, 0.0], rtol=0, atol=1e-12)
        # gateway level with the unsagged midpoint
        assert env.gateway[2] == pytest.approx(5.0, abs=1e-12)

    def test_reset_deterministic(self):
        cfg = EnvConfig()
        a = BeamTrackingEnv(cfg, seed=3).observe()
        b = BeamTrackingEnv(cfg, seed=3).observe()
        np.testing.assert_array_equal(a, b)
        env = BeamTrackingEnv(cfg, seed=3)
        first = env.observe()
        env.step(ProtagonistAction.UP, AdversaryAction.UP)
        np.testing.assert_array_equal(env.reset(), first)

    def test_observation_at_rest(self):
        env = BeamTrackingEnv(EnvConfig(), seed=0)
        obs = env.observe()
        assert obs.shape == (9,)
        np.testing.assert_array_equal(obs[0:3], env.sbs_position)
        np.testing.assert_array_equal(obs[3:6], np.zeros(3))
        np.testing.assert_allclose(obs[6:9], [1.0, 0.0, 0.0], atol=1e-12)


class TestActions:
    def test_protagonist_mapping(self):
        moves = BeamTrackingEnv(EnvConfig(beta=1.0), seed=0).moves
        assert moves[ProtagonistAction.STAY].tolist() == [0.0, 0.0]
        assert moves[ProtagonistAction.UP].tolist() == [-1.0, 0.0]
        assert moves[ProtagonistAction.DOWN].tolist() == [1.0, 0.0]
        assert moves[ProtagonistAction.LEFT].tolist() == [0.0, 1.0]
        assert moves[ProtagonistAction.RIGHT].tolist() == [0.0, -1.0]

    def test_adversary_wind_table(self):
        gusts = BeamTrackingEnv(EnvConfig(adversary_speed=10.0), seed=0).gusts
        np.testing.assert_array_equal(gusts[AdversaryAction.STAY], [0, 0, 0])
        np.testing.assert_array_equal(gusts[AdversaryAction.UP], [0, 0, 10.0])
        np.testing.assert_array_equal(gusts[AdversaryAction.DOWN], [0, 0, -10.0])
        np.testing.assert_array_equal(gusts[AdversaryAction.LEFT], [-10.0, 0, 0])
        np.testing.assert_array_equal(gusts[AdversaryAction.RIGHT], [10.0, 0, 0])
        np.testing.assert_array_equal(gusts[AdversaryAction.FRONT], [0, 10.0, 0])
        np.testing.assert_array_equal(gusts[AdversaryAction.BACK], [0, -10.0, 0])

    def test_beam_direction_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            b = beam_direction(rng.uniform(-400, 400), rng.uniform(-400, 400))
            assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(beam_direction(0.0, 123.0), [0, 0, 1], atol=1e-12)


class TestReward:
    def test_clipping_band(self):
        assert reward_from_power(STATIC_POWER, -27.0, 3.0) == 1.0  # (14.1)/3 clips high
        assert reward_from_power(-27.0, -27.0, 3.0) == 0.0
        assert reward_from_power(-40.0, -27.0, 3.0) == -1.0
        assert reward_from_power(-28.5, -27.0, 3.0) == pytest.approx(-0.5)

    def test_monotone_in_power(self):
        grid = np.linspace(-60.0, 0.0, 400)
        vals = [reward_from_power(p, -27.0, 3.0) for p in grid]
        assert np.all(np.diff(vals) >= 0.0)

    def test_clamp_equals_clip(self):
        powers = np.random.default_rng(0).normal(-27.0, 6.0, 2000)
        expected = np.clip((powers + 27.0) / 3.0, -1.0, 1.0).tolist()
        assert [reward_from_power(p, -27.0, 3.0) for p in powers] == expected

    def test_nan_power_gives_nan_reward_that_replay_refuses(self):
        reward = reward_from_power(float("nan"), -27.0, 3.0)
        assert np.isnan(reward)
        memory = wb.ReplayMemory(10, [np.random.default_rng(0), np.random.default_rng(1)])
        with pytest.raises(ValueError):  # one NaN row refuses the whole push
            memory.push(np.zeros((2, 9)), [0, 0], [0.5, reward], np.zeros((2, 9)))
        assert len(memory) == 0

    def test_step_reward_when_aligned(self, frozen_env_cfg):
        env = BeamTrackingEnv(frozen_env_cfg, seed=0)
        _, r_p, r_a, p_r = env.step(ProtagonistAction.STAY, AdversaryAction.STAY)
        assert r_p == 1.0 and r_a == -1.0
        assert p_r == pytest.approx(STATIC_POWER, abs=1e-6)


class TestStep:
    def test_horizon_enforced(self):
        cfg = EnvConfig(horizon=3)
        env = BeamTrackingEnv(cfg, seed=0)
        for _ in range(3):
            env.step(ProtagonistAction.STAY, AdversaryAction.STAY)
        with pytest.raises(EpisodeFinishedError):
            env.step(ProtagonistAction.STAY, AdversaryAction.STAY)

    def test_randomized_step_properties(self):
        # rewards bounded and zero-sum, exactly one angle moves by one beta
        # step (or none), endpoints pinned bitwise
        cfg = EnvConfig(horizon=1000)
        env = BeamTrackingEnv(cfg, seed=8)
        ends0 = (env.wire_state.positions[0].copy(), env.wire_state.positions[-1].copy())
        rng = np.random.default_rng(9)
        for _ in range(1000):
            prev = env.steer.copy()
            a_p = ProtagonistAction(int(rng.integers(5)))
            a_a = AdversaryAction(int(rng.integers(7)))
            _, r_p, r_a, _ = env.step(a_p, a_a)
            assert -1.0 <= r_p <= 1.0
            assert r_a == -r_p
            assert sorted(abs(env.steer - prev)) in ([0.0, 0.0], [0.0, cfg.beta])
        assert np.array_equal(env.wire_state.positions[0], ends0[0])
        assert np.array_equal(env.wire_state.positions[-1], ends0[1])

    def test_inactive_adversary_ignores_action_argument(self):
        # an adversary at speed 0 moves nothing whatever it plays, and STAY at
        # full speed adds no wind: the two runs agree bit for bit
        rng = np.random.default_rng(4)
        actions = [AdversaryAction(int(rng.integers(7))) for _ in range(200)]
        env_a = BeamTrackingEnv(EnvConfig(adversary_speed=0.0, horizon=200), seed=5)
        env_b = BeamTrackingEnv(EnvConfig(adversary_speed=10.0, horizon=200), seed=5)
        for a_a in actions:
            env_a.step(ProtagonistAction.STAY, a_a)
            env_b.step(ProtagonistAction.STAY, AdversaryAction.STAY)
        assert env_a.wire_state.positions.tobytes() == env_b.wire_state.positions.tobytes()
        assert env_a.wire_state.velocities.tobytes() == env_b.wire_state.velocities.tobytes()

    def test_active_adversary_changes_trajectory(self):
        cfg = EnvConfig(horizon=50)
        env_a = BeamTrackingEnv(cfg, seed=5)
        env_b = BeamTrackingEnv(cfg, seed=5)
        for _ in range(50):
            env_a.step(ProtagonistAction.STAY, AdversaryAction.UP)
            env_b.step(ProtagonistAction.STAY, AdversaryAction.STAY)
        assert not np.array_equal(env_a.wire_state.positions, env_b.wire_state.positions)

    def test_seeded_trajectory_bitwise_deterministic(self):
        cfg = EnvConfig(horizon=300)

        def run():
            env = BeamTrackingEnv(cfg, seed=77)
            out = []
            for k in range(300):
                obs, _, _, p = env.step(
                    ProtagonistAction(k % 5), AdversaryAction(k % 7)
                )
                out.append((obs, p))
            return out

        for (va, pa), (vb, pb) in zip(run(), run()):
            np.testing.assert_array_equal(va, vb)
            assert pa == pb

    def test_step_advances_a_copy_as_wire_step_does(self):
        cfg = EnvConfig(horizon=20, substeps=3)
        env = BeamTrackingEnv(cfg, seed=5)
        for k in range(20):
            before = env.wire_state
            snapshot = before.copy()
            rng = np.random.Generator(np.random.PCG64())
            rng.bit_generator.state = env.rng.bit_generator.state
            wind = wb.env_wind(before.time) + env.gusts[k % 7]
            expected = wb.wire.step(before, wind, cfg.phys, cfg.tau, cfg.substeps, rng)
            env.step(ProtagonistAction.STAY, AdversaryAction(k % 7))
            after = env.wire_state
            assert after is not before and not np.shares_memory(after.positions, before.positions)
            np.testing.assert_array_equal(before.positions, snapshot.positions)  # the old state is untouched
            np.testing.assert_array_equal(before.velocities, snapshot.velocities)
            assert after.positions.tobytes() == expected.positions.tobytes()
            assert after.velocities.tobytes() == expected.velocities.tobytes()
            assert after.time == expected.time


class TestEnvConfigValidation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            EnvConfig(horizon=0)
        with pytest.raises(ValueError):
            EnvConfig(beta=0.0)
        with pytest.raises(ValueError):
            EnvConfig(clip_scale=0.0)
        with pytest.raises(ValueError):
            EnvConfig(sbs_point=1)
        with pytest.raises(ValueError):
            EnvConfig(sbs_point=11)

    def test_explicit_gateway_override(self):
        cfg = EnvConfig(gateway_level_with_sbs=False, gateway_height=3.0)
        env = BeamTrackingEnv(cfg, seed=0)
        rest = wb.equilibrium_shape(cfg.phys).positions[cfg.sbs_index]
        np.testing.assert_array_equal(env.gateway, [rest[0] - 5.0, rest[1], 3.0])
        # alignment is still exact: the array factor sits at its coherent
        # peak, only the element pattern is off-boresight
        aod = wb.aod_geometry(env.sbs_position, env.gateway)
        af_peak = 10.0 * np.log10(32 * 32)
        expected = (
            23.0
            + wb.element_pattern(aod.zenith, aod.azimuth, cfg.antenna)
            + af_peak
            + 8.0
            + 20.0 * np.log10(0.005 / (4 * np.pi * aod.distance))
        )
        assert env.received_power_now() == pytest.approx(expected, abs=1e-9)


class TestHeldState:
    def test_observation_survives_later_steps(self):
        # train keeps `state` across a step: a view of the env state would corrupt replay
        env = BeamTrackingEnv(EnvConfig(), seed=3)
        first = env.observe()
        obs, *_ = env.step(ProtagonistAction.UP, AdversaryAction.LEFT)
        kept = first.copy(), obs.copy()
        env.step(ProtagonistAction.LEFT, AdversaryAction.UP)
        np.testing.assert_array_equal(first, kept[0])
        np.testing.assert_array_equal(obs, kept[1])
        assert not np.array_equal(env.observe(), kept[1])  # the state itself did move

    def test_batch_observation_survives_advance(self):
        cfg = EnvConfig()
        batch = EnvBatch.of(cfg, [cfg.phys, replace(cfg.phys, total_mass=2.0)], [1, 2])
        every, one = batch.observe(), batch.observe(np.array([1]))
        kept = every.copy(), one.copy()
        batch.advance(np.array([AdversaryAction.UP, AdversaryAction.STAY]))
        batch.steer = batch.steer + batch.moves[[ProtagonistAction.UP, ProtagonistAction.LEFT]]
        moved = batch.observe(), batch.observe(np.array([1]))
        np.testing.assert_array_equal(every, kept[0])
        np.testing.assert_array_equal(one, kept[1])
        assert not np.array_equal(moved[0], kept[0]) and not np.array_equal(moved[1], kept[1])

    def test_batch_rows_step_as_lone_envs(self):
        # 0.3 kg / 200 N/m needs two substeps, the others one: two integrator groups
        cfg = EnvConfig(horizon=200)
        physes = [cfg.phys, replace(cfg.phys, total_mass=0.3, spring_constant=200.0), replace(cfg.phys, total_mass=2.0)]
        seeds = [[4, 0], [4, 1], [4, 2]]
        batch = EnvBatch.of(cfg, physes, seeds)
        assert [rows.tolist() for rows, *_ in batch.groups] == [[0, 2], [1]]
        lone = [BeamTrackingEnv(replace(cfg, phys=physes[i]), seed=seeds[i]) for i in range(3)]
        np.testing.assert_array_equal(batch.observe(), [env.observe() for env in lone])
        rng = np.random.default_rng(5)
        for _ in range(200):
            a_p, a_a = rng.integers(5, size=3), rng.integers(7, size=3)
            batch.advance(a_a)
            batch.steer = batch.steer + batch.moves[a_p]
            powers = batch.power(batch.steer)
            for b, env in enumerate(lone):
                obs, _, _, p_r = env.step(ProtagonistAction(a_p[b]), AdversaryAction(a_a[b]))
                assert obs.tobytes() == batch.observe(np.array([b]))[0].tobytes()
                assert p_r == powers[b]
        assert batch.time == lone[0].wire_state.time

    @pytest.mark.parametrize("ambient_wind", [True, False])
    def test_block_advance_equals_one_interval_advances(self, ambient_wind):
        # two substep groups (index-array rows), a quiet row among noisy ones in the first, and a partial last
        # block: block calls give the station tracks, times, states and generator states of one-interval calls
        cfg = EnvConfig(ambient_wind=ambient_wind)
        physes = [cfg.phys, replace(cfg.phys, total_mass=0.3, spring_constant=200.0),
                  replace(cfg.phys, total_mass=5.0, wind_cov=np.zeros((3, 3))), replace(cfg.phys, total_mass=2.0)]
        seeds = [[6, i] for i in range(4)]
        a_a = np.array([AdversaryAction.STAY, AdversaryAction.UP, AdversaryAction.LEFT, AdversaryAction.STAY])
        steps = 2 * NOISE_BLOCK + 5
        one, block = EnvBatch.of(cfg, physes, seeds), EnvBatch.of(cfg, physes, seeds)
        assert [rows.tolist() for rows, *_ in one.groups] == [[0, 2, 3], [1]]
        assert [integrator.noisy for _, integrator, _ in one.groups] == [[0, 2], [0]]
        one_pos, one_vel, one_times = np.empty((steps, 4, 3)), np.empty((steps, 4, 3)), []
        for k in range(steps):
            one_times += one.advance(a_a)
            one_pos[k], one_vel[k] = one.sbs_position, one.sbs_velocity
        track_pos, track_vel, times = np.empty((steps, 4, 3)), np.empty((steps, 4, 3)), []
        for k in range(0, steps, NOISE_BLOCK):
            end = min(k + NOISE_BLOCK, steps)
            times += block.advance(a_a, (track_pos[k:end], track_vel[k:end]))
        np.testing.assert_array_equal(track_pos, one_pos)
        np.testing.assert_array_equal(track_vel, one_vel)
        assert times == one_times and block.time == one.time == one_times[-1]
        np.testing.assert_array_equal(block.pos, one.pos)
        np.testing.assert_array_equal(block.vel, one.vel)
        for (_, _, rngs), (_, _, one_rngs) in zip(block.groups, one.groups):
            assert [rng.bit_generator.state for rng in rngs] == [rng.bit_generator.state for rng in one_rngs]

    def test_block_advance_raises_the_earliest_divergence(self, monkeypatch):
        # a NaN wind makes row 0 (the first group) go non-finite in interval 40 and row 1 (the second) in
        # interval 20: the block call raises row 1's error, as one-interval calls do
        cfg = EnvConfig()
        physes = [cfg.phys, replace(cfg.phys, total_mass=0.3, spring_constant=200.0)]
        bad_at, advance = {p.tension_coeff: at for p, at in zip(physes, (39, 19))}, wb.wire.Integrator.advance

        def diverge(self, pos, vel, winds, rngs, time, track=None):
            winds, first = winds.copy(), round(time / self.dt)
            for coeff, at in bad_at.items():
                if 0 <= at - first < len(winds):
                    winds[at - first, self.coeff[:, 0] == coeff] = np.nan
            advance(self, pos, vel, winds, rngs, time, track)

        monkeypatch.setattr(wb.wire.Integrator, "advance", diverge)
        errors = []
        for block in (False, True):
            batch = EnvBatch.of(cfg, physes, [1, 2])
            with pytest.raises(wb.SimulationDivergedError) as err:
                if block:
                    batch.advance(np.zeros(2, dtype=np.int64), np.empty((2, NOISE_BLOCK, 2, 3)))
                for _ in range(NOISE_BLOCK):
                    batch.advance(np.zeros(2, dtype=np.int64))
            errors.append((err.value.time, err.value.n_sub, err.value.bad_points.tolist(), str(err.value)))
        assert errors[0] == errors[1] and round(errors[0][0] / cfg.tau) == 20 and errors[0][1] == 2
