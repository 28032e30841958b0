import copy

import numpy as np
import pytest
from dataclasses import replace

import wirebeam as wb
from wirebeam import rarl
from wirebeam.checkpoint import AgentCheckpoint, load_checkpoint, save_checkpoint
from wirebeam.deepq import init_qnetwork
from wirebeam.env import NOISE_BLOCK, AdversaryAction, BeamTrackingEnv, ProtagonistAction
from wirebeam.rarl import (
    Policy,
    PolicyKind,
    TrainConfig,
    _eval_streams,
    check_adversary,
    check_protagonist,
    config_fingerprint,
    random_adversary_action,
    rollout,
    run_policy,
    train,
)
from conftest import reference_average, reference_train

STATIC_POWER = -12.881197714043807


def tiny_cfg(**kw):
    """Short episodes to keep behavioral training tests fast."""
    env = wb.EnvConfig(horizon=kw.pop("horizon", 80))
    base = dict(env=env, episodes=2, test_steps=40, variant="no_adversary", seed=21)
    base.update(kw)
    return TrainConfig(**base)


def zero_bias_net(n_actions, favored=None):
    net = init_qnetwork(n_actions, np.random.default_rng(0))
    for p in net.parameters():
        p[...] = 0.0
    if favored is not None:
        net.adv_b[favored] = 1.0
    return net


class TestTrainValidation:
    def test_rarl_without_proxy_trains_its_own(self):
        result = train(tiny_cfg(variant="rarl"))
        proxy = train(tiny_cfg()).protagonist  # the no_adversary run of the same config
        assert result.proxy.net.flat.tobytes() == proxy.net.flat.tobytes()
        assert result.proxy.adam.second_moment.tobytes() == proxy.adam.second_moment.tobytes()
        assert result.proxy.manifest == proxy.manifest
        assert all(np.isfinite(r.adversary_check_avg_power) for r in result.records)
        assert train(tiny_cfg(variant="rarl", proxy_checkpoint=proxy)).proxy is None
        assert train(tiny_cfg()).proxy is None

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"episodes": 3}, "episodes"),
            ({"env": wb.EnvConfig(horizon=81)}, "env"),
            ({"learning_rate": 2e-3}, "learning_rate"),
            ({"env": wb.EnvConfig(horizon=80, phys=wb.PhysParams(n_points=12))}, "n_points"),
        ],
    )
    def test_lockstep_configs_differ_only_in_run_settings(self, change, field):
        base = tiny_cfg()
        with pytest.raises(ValueError, match=f"config 1 differs from config 0 in {field}$"):
            train([base, replace(base, seed=3, **change)])
        with pytest.raises(ValueError, match="at least one config"):
            train([])

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            tiny_cfg(episodes=0)
        with pytest.raises(ValueError):
            tiny_cfg(test_steps=0)
        with pytest.raises(ValueError):
            tiny_cfg(variant="bogus")
        with pytest.raises(ValueError):
            tiny_cfg(epsilon=1.5)

    @pytest.mark.parametrize(
        "bad, field",
        [
            ({"batch_size": 64, "replay_capacity": 16}, "replay_capacity"),  # would never train
            ({"batch_size": 0}, "batch_size"),
            ({"learning_rate": -0.1}, "learning_rate"),
            ({"learning_rate": float("nan")}, "learning_rate"),
            ({"gamma": 1.5}, "gamma"),
            ({"gamma": 1.0}, "gamma"),
            ({"gamma": -0.1}, "gamma"),
            ({"hidden": (32, 0)}, "hidden"),
            ({"hidden": ()}, "hidden"),
        ],
    )
    def test_learner_settings_rejected(self, bad, field):
        with pytest.raises(ValueError, match=field):
            tiny_cfg(**bad)

    def test_learner_setting_edges_accepted(self):
        cfg = tiny_cfg(batch_size=16, replay_capacity=16, gamma=0.0, hidden=(1,), episodes=1, horizon=20)
        assert np.isfinite(train(cfg).records[0].loss_p)


class TestConfigFingerprint:
    def test_unchanged_without_proxy(self):
        assert config_fingerprint(TrainConfig()) == "184d164dc662175c"

    def test_proxy_keyed_by_content(self, tmp_path):
        proxy = AgentCheckpoint(net=init_qnetwork(5, np.random.default_rng(3)))
        path = tmp_path / "proxy.ckpt"
        save_checkpoint(path, proxy)
        cfg = tiny_cfg(variant="rarl")
        by_object = config_fingerprint(replace(cfg, proxy_checkpoint=proxy))
        assert config_fingerprint(replace(cfg, proxy_checkpoint=str(path))) == by_object
        assert config_fingerprint(replace(cfg, proxy_checkpoint=proxy.net)) == by_object
        other = AgentCheckpoint(net=init_qnetwork(5, np.random.default_rng(4)))
        assert config_fingerprint(replace(cfg, proxy_checkpoint=other)) != by_object
        assert config_fingerprint(cfg) != by_object


class TestTrainLoop:
    def test_smoke_single_episode_deterministic(self):
        cfg = tiny_cfg(episodes=1, test_steps=10)
        a = train(cfg)
        b = train(cfg)
        assert len(a.records) == 1
        assert a.records[0].protagonist_avg_power == b.records[0].protagonist_avg_power
        for pa, pb in zip(a.protagonist.net.parameters(), b.protagonist.net.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_path_proxy_loaded_once(self, tmp_path, monkeypatch):
        path = tmp_path / "proxy.ckpt"
        save_checkpoint(path, AgentCheckpoint(net=init_qnetwork(5, np.random.default_rng(3))))
        cfg = tiny_cfg(variant="rarl", episodes=3, horizon=10, test_steps=5)
        by_object = train(replace(cfg, proxy_checkpoint=load_checkpoint(path)))
        loads = []
        monkeypatch.setattr(rarl, "load_checkpoint", lambda p: loads.append(p) or load_checkpoint(p))
        by_path = train(replace(cfg, proxy_checkpoint=str(path)))
        assert loads == [str(path)]
        assert by_path.adversary.manifest == by_object.adversary.manifest
        assert [r.adversary_check_avg_power for r in by_path.records] == [
            r.adversary_check_avg_power for r in by_object.records
        ]

    def test_variants_produce_expected_checkpoints(self):
        no_adv = train(tiny_cfg())
        assert no_adv.adversary is None
        assert no_adv.protagonist.manifest["variant"] == "no_adversary"
        rarl = train(tiny_cfg(variant="rarl", proxy_checkpoint=no_adv.protagonist))
        assert rarl.adversary is not None
        assert rarl.adversary.net.n_actions == 7
        assert not np.isnan(rarl.records[-1].adversary_check_avg_power)
        rand = train(tiny_cfg(variant="random_adversary"))
        assert rand.adversary is None
        assert np.isnan(rand.records[-1].adversary_check_avg_power)

    def test_no_adversary_equals_zero_speed_random_adversary(self):
        # stream isolation: the protagonist's trajectory depends on the
        # adversary only through the wind it injects
        quiet = replace(tiny_cfg().env, adversary_speed=0.0)
        a = train(tiny_cfg())
        b = train(replace(tiny_cfg(), variant="random_adversary", env=quiet))
        for ra, rb in zip(a.records, b.records):
            assert ra.protagonist_avg_power == rb.protagonist_avg_power

    def test_target_sync_schedule(self):
        cfg = tiny_cfg(episodes=7, target_period=3, horizon=40, test_steps=10)
        result = train(cfg)
        synced = [r.episode for r in result.records if r.target_synced]
        assert synced == [3, 6]

    def test_zero_sum_bookkeeping_and_synchronization(self, monkeypatch):
        cfg = tiny_cfg(variant="rarl", horizon=60, episodes=1, test_steps=10)
        proxy = train(tiny_cfg(episodes=1, test_steps=10))
        pushed, push = [], wb.ReplayMemory.push  # one stacked push per tick: rows protagonist, adversary

        def recording_push(memory, states, actions, rewards, next_states):
            pushed.append((np.array(states), np.array(rewards), np.array(next_states)))
            push(memory, states, actions, rewards, next_states)

        monkeypatch.setattr(wb.ReplayMemory, "push", recording_push)
        train(replace(cfg, proxy_checkpoint=proxy.protagonist))
        states, rewards, next_states = map(np.array, zip(*pushed))  # (tick, row, ...)
        assert states.shape == next_states.shape == (60, 2, 9) and rewards.shape == (60, 2)
        (sp, sa), (rp, ra), (np_next, na_next) = (part.swapaxes(0, 1) for part in (states, rewards, next_states))
        assert len(rp) == len(ra) == 60
        np.testing.assert_array_equal(rp, -ra)  # exact zero-sum
        np.testing.assert_array_equal(sp, sa)  # both agents saw the same s_k
        np.testing.assert_array_equal(np_next, na_next)


class TestTrainMatchesReference:
    """train runs every agent through one parameter block; the per-agent loop
    of conftest.reference_train must give the same bits."""

    @pytest.mark.parametrize("variant", ["no_adversary", "random_adversary", "rarl"])
    def test_block_training_equals_per_agent_loop(self, variant):
        proxy = train(tiny_cfg(episodes=1, horizon=40, test_steps=10)).protagonist
        # six episodes with the default target period of 5: a target sync falls inside the run
        cfg = tiny_cfg(variant=variant, episodes=6, horizon=50, test_steps=15, seed=5)
        if variant == "rarl":
            cfg = replace(cfg, proxy_checkpoint=proxy)
        result, reference = train(cfg), reference_train(cfg)

        assert [r.target_synced for r in result.records] == [False] * 4 + [True, False]
        assert [repr(replace(r, wall_clock=0.0)) for r in result.records] == [repr(r) for r in reference.records]
        pairs = [(result.protagonist, reference.protagonist)]
        assert (result.adversary is None) == (reference.adversary is None) == (variant != "rarl")
        if variant == "rarl":
            pairs.append((result.adversary, reference.adversary))
        for got, want in pairs:
            assert got.net.flat.tobytes() == want.net.flat.tobytes()
            assert got.adam.first_moment.tobytes() == want.adam.first_moment.tobytes()
            assert got.adam.second_moment.tobytes() == want.adam.second_moment.tobytes()
            assert got.adam.step_count == want.adam.step_count == 6 * 50 - (cfg.batch_size - 1)
            assert got.manifest == want.manifest


def assert_same_run(got, want):
    """Records (wall clock aside), weights, Adam moments and manifests of two
    TrainResults (and of their self-trained proxies) agree byte for byte."""
    assert [repr(replace(r, wall_clock=0.0)) for r in got.records] == [
        repr(replace(r, wall_clock=0.0)) for r in want.records
    ]
    pairs = [(got.protagonist, want.protagonist), (got.adversary, want.adversary), (got.proxy, want.proxy)]
    for a, b in pairs:
        assert (a is None) == (b is None)
        if a is not None:
            assert a.net.flat.tobytes() == b.net.flat.tobytes()
            assert a.adam.first_moment.tobytes() == b.adam.first_moment.tobytes()
            assert a.adam.second_moment.tobytes() == b.adam.second_moment.tobytes()
            assert a.adam.step_count == b.adam.step_count
            assert a.manifest == b.manifest


class TestLockstep:
    """One train call of S runs: every row must equal its run trained alone."""

    def test_mixed_population_equals_single_runs_and_reference(self):
        proxy = train(tiny_cfg(episodes=1, horizon=40, test_steps=10, seed=2)).protagonist
        # six episodes with the default target period of 5: a target sync falls inside the run
        base = tiny_cfg(episodes=6, horizon=50, test_steps=15)
        cfgs = [
            replace(base, seed=5, variant="no_adversary"),
            replace(base, seed=6, variant="random_adversary"),
            replace(base, seed=7, variant="rarl", proxy_checkpoint=proxy),
            replace(base, seed=8, variant="rarl"),
            replace(base, seed=9, variant="no_adversary", proxy_checkpoint=proxy),  # keyed by it, never probed
        ]
        results = train(cfgs)
        assert [r.records[4].target_synced for r in results] == [True] * 5
        for cfg, result in zip(cfgs, results):
            assert_same_run(result, train(cfg))
            if result.proxy is None:
                assert_same_run(result, reference_train(cfg))
        # the self-proxied run equals the reference pair: its proxy first, then the rarl run on it
        own = reference_train(replace(cfgs[3], variant="no_adversary"))
        reference = reference_train(replace(cfgs[3], proxy_checkpoint=own.protagonist))
        assert_same_run(results[3], replace(reference, proxy=own.protagonist))
        assert all(np.isfinite(r.adversary_check_avg_power) for r in results[3].records)

    def test_runs_on_different_wires_equal_single_runs(self):
        # the stock wire, a wire that needs two substeps and one that rests below ground, each net anchored at
        # its own wire's rest observation; the self-proxied rarl run trains its proxy on its own wire too
        two_substeps = wb.PhysParams(total_mass=0.3, spring_constant=200.0)
        below_ground = wb.PhysParams(total_mass=20.0, spring_constant=10.0)
        assert wb.wire.effective_substeps(two_substeps, 0.01, 1) == 2
        assert wb.equilibrium_shape(below_ground).positions[5, 2] < -17.0
        proxy = train(tiny_cfg(episodes=1, horizon=40, test_steps=10, seed=2)).protagonist
        base = tiny_cfg(episodes=3, horizon=40, test_steps=10)
        cfgs = [
            replace(base, seed=5, variant="no_adversary"),
            replace(base, seed=6, variant="random_adversary", env=replace(base.env, phys=two_substeps)),
            replace(base, seed=7, variant="rarl", env=replace(base.env, phys=below_ground)),
            replace(base, seed=8, variant="rarl", env=replace(base.env, phys=two_substeps), proxy_checkpoint=proxy),
        ]
        results = train(cfgs)
        for cfg, result in zip(cfgs, results):
            assert_same_run(result, train(cfg))
            assert all(np.isfinite(r.protagonist_avg_power) for r in result.records)
        assert_same_run(results[1], reference_train(cfgs[1]))
        assert results[2].proxy is not None and all(np.isfinite(r.adversary_check_avg_power) for r in results[2].records)

    def test_horizons_across_noise_blocks_equal_reference(self):
        # training episodes and probes longer than NOISE_BLOCK intervals: each run's batch rows draw their
        # noise a block at a time, the reference one interval at a time, on a one- and a two-substep wire
        proxy = train(tiny_cfg(episodes=1, horizon=40, test_steps=10, seed=2)).protagonist
        base = tiny_cfg(episodes=2, horizon=NOISE_BLOCK + 6, test_steps=NOISE_BLOCK + 2)
        two_substeps = replace(base.env, phys=wb.PhysParams(total_mass=0.3, spring_constant=200.0))
        cfgs = [
            replace(base, seed=5, variant="random_adversary"),
            replace(base, seed=6, variant="rarl", env=two_substeps, proxy_checkpoint=proxy),
        ]
        for cfg, result in zip(cfgs, train(cfgs)):
            assert_same_run(result, reference_train(cfg))

    def test_one_seed_twice_gives_twin_rows(self):
        cfg = tiny_cfg(variant="rarl", episodes=2, horizon=40, test_steps=10)
        a, b = train([cfg, cfg])
        assert_same_run(a, b)
        assert a.protagonist.net.flat is not b.protagonist.net.flat

    def test_runs_share_one_wall_clock_per_episode(self):
        # a plain run and a self-proxied rarl run, whose adversary probes all land in the last episode
        base = tiny_cfg(episodes=3, horizon=40, test_steps=10)
        cfgs = [replace(base, seed=5), replace(base, seed=8, variant="rarl")]
        a, b = train(cfgs)
        assert all(r.wall_clock > 0 for r in a.records + b.records)
        assert [r.wall_clock for r in a.records] == [r.wall_clock for r in b.records]


class TestChecks:
    def test_check_protagonist_deterministic(self):
        net = zero_bias_net(5)  # always STAY
        cfg = wb.EnvConfig()
        a = check_protagonist(net, cfg, 50, seed=101)
        b = check_protagonist(net, cfg, 50, seed=101)
        assert a == b

    def test_stay_on_frozen_env_hits_static_power(self, frozen_env_cfg):
        avg, _ = run_policy(Policy(PolicyKind.STAY), frozen_env_cfg, 100, seed=0)
        assert avg == pytest.approx(STATIC_POWER, abs=1e-6)

    def test_check_adversary_stay_reduces_to_protagonist_check(self):
        proxy = zero_bias_net(5, favored=1)  # prefers UP, arbitrary
        stay_adv = zero_bias_net(7)  # argmax ties break to STAY
        cfg = wb.EnvConfig()
        a = check_adversary(stay_adv, proxy, cfg, 60, seed=5)
        b = check_protagonist(proxy, cfg, 60, seed=5)
        assert a == b

    def test_seed_sequence_reused_gives_same_physics(self):
        # evaluating leaves a SeedSequence untouched; an int seed keeps its streams
        stay, cfg = Policy(PolicyKind.STAY), wb.EnvConfig()
        ss = np.random.SeedSequence(5)
        first, second = run_policy(stay, cfg, 100, ss)[0], run_policy(stay, cfg, 100, ss)[0]
        assert first == second == run_policy(stay, cfg, 100, 5)[0] == pytest.approx(-25.088600138014055, abs=1e-9)

    def test_check_adversary_rejects_zero_steps(self):
        net5, net7 = zero_bias_net(5), zero_bias_net(7)
        with pytest.raises(ValueError):
            check_adversary(net7, net5, wb.EnvConfig(), 0, seed=0)
        with pytest.raises(ValueError):
            check_protagonist(net5, wb.EnvConfig(), 0, seed=0)


class TestRunPolicy:
    def test_upper_limit_equals_exhaustive_max(self, small_env_cfg):
        steps, seed = 100, 31
        avg, rows = run_policy(Policy(PolicyKind.UPPER_LIMIT), small_env_cfg, steps, seed)

        # brute force: clone the environment and try all five actions
        env_stream, _ = _eval_streams(seed)
        cfg = replace(small_env_cfg, horizon=steps)
        env = BeamTrackingEnv(cfg, seed=env_stream)
        for k in range(steps):
            outcomes = []
            for a in ProtagonistAction:
                clone = copy.deepcopy(env)
                _, _, _, p = clone.step(a, AdversaryAction.STAY)
                outcomes.append(p)
            best = int(np.argmax(outcomes))
            assert rows[k][4] == ProtagonistAction(best).name.lower()
            _, _, _, p = env.step(ProtagonistAction(best), AdversaryAction.STAY)
            assert p == rows[k][2]  # identical noise draw, identical power

    def test_upper_limit_dominates_stay(self, small_env_cfg):
        for seed in (1, 2, 3):
            up, _ = run_policy(Policy(PolicyKind.UPPER_LIMIT), small_env_cfg, 120, seed)
            st, _ = run_policy(Policy(PolicyKind.STAY), small_env_cfg, 120, seed)
            assert up >= st

    def test_upper_limit_dominates_learned_policy(self, small_env_cfg):
        # the oracle sees the true next-step geometry, so no causal policy
        # can beat it on average under the same seed
        result = train(tiny_cfg(episodes=2, test_steps=10))
        for seed in (4, 5):
            up, _ = run_policy(Policy(PolicyKind.UPPER_LIMIT), small_env_cfg, 120, seed)
            dq, _ = run_policy(
                Policy(PolicyKind.GREEDY_DQN, checkpoint=result.protagonist), small_env_cfg, 120, seed
            )
            assert up >= dq

    def test_frozen_env_upper_limit_equals_stay(self, frozen_env_cfg):
        up, _ = run_policy(Policy(PolicyKind.UPPER_LIMIT), frozen_env_cfg, 50, seed=0)
        st, _ = run_policy(Policy(PolicyKind.STAY), frozen_env_cfg, 50, seed=0)
        assert up == pytest.approx(st, abs=1e-12)
        assert up == pytest.approx(STATIC_POWER, abs=1e-6)

    def test_greedy_dqn_policy_from_checkpoint(self, tmp_path, small_env_cfg):
        result = train(tiny_cfg(episodes=1, test_steps=10))
        path = tmp_path / "p.ckpt"
        wb.save_checkpoint(path, result.protagonist)
        avg, rows = run_policy(Policy(PolicyKind.GREEDY_DQN, checkpoint=str(path)), small_env_cfg, 30, 7)
        assert len(rows) == 30 and np.isfinite(avg)

    def test_trajectory_row_shape(self, small_env_cfg):
        _, rows = run_policy(Policy(PolicyKind.STAY), small_env_cfg, 10, 0)
        assert len(rows) == 10
        step, t, p_r, r_p, a_p, a_a, x, y, z, th, ph = rows[0]
        assert step == 0 and t == pytest.approx(0.01)
        assert a_p == "stay" and a_a == "stay"

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            Policy(PolicyKind.GREEDY_DQN)
        with pytest.raises(ValueError):
            run_policy(Policy(PolicyKind.STAY), wb.EnvConfig(), 0, 0)


def greedy_ckpt(n_actions, seed):
    """Random-weight agent with the reference input normalizer recorded."""
    net = init_qnetwork(n_actions, np.random.default_rng(seed), head_scale=1.0)
    norm = wb.make_normalizer(wb.EnvConfig())
    return AgentCheckpoint(net=net, manifest={"obs_norm": norm.manifest_entry()})


# 0.3 kg / 200 N/m needs 2 substeps, the others 1: the batch mixes groups
MIXED_PHYSES = [
    wb.PhysParams(total_mass=1.0, spring_constant=200.0),
    wb.PhysParams(total_mass=0.3, spring_constant=200.0),
    wb.PhysParams(total_mass=10.0, spring_constant=100.0),
]


class TestRollout:
    @pytest.mark.parametrize("kind", list(PolicyKind) + ["mixed"])
    def test_batch_matches_reference_loop(self, kind):
        assert [wb.wire.effective_substeps(p, 0.01, 1) for p in MIXED_PHYSES] == [1, 2, 1]
        if kind == "mixed":  # all four kinds and two different greedy checkpoints in one batch
            distinct = [Policy(k) for k in PolicyKind if k is not PolicyKind.GREEDY_DQN]
            distinct += [Policy(PolicyKind.GREEDY_DQN, greedy_ckpt(5, s)) for s in (3, 8)]
            policies = [p for p in distinct for _ in MIXED_PHYSES]
            physes = MIXED_PHYSES * len(distinct)
        else:
            policies = [Policy(kind, greedy_ckpt(5, 3) if kind is PolicyKind.GREEDY_DQN else None)] * 6
            physes = MIXED_PHYSES * 2
        cfg, steps = wb.EnvConfig(), 60
        seeds = [[7, i] for i in range(len(physes))]
        avg, _ = rollout(policies, cfg, physes, seeds, steps)
        expected = [
            reference_average(policy, replace(cfg, phys=p), s, steps)
            for policy, p, s in zip(policies, physes, seeds)
        ]
        assert avg.tolist() == expected

    def test_adversary_probe_matches_reference_loop(self):
        proxy, adversary = Policy(PolicyKind.GREEDY_DQN, greedy_ckpt(5, 3)), greedy_ckpt(7, 4)
        cfg, steps = wb.EnvConfig(), 60
        seeds = [11, 12, 13]
        avg, _ = rollout([proxy] * 3, cfg, MIXED_PHYSES, seeds, steps, adversary=adversary)
        expected = [
            reference_average(proxy, replace(cfg, phys=p), s, steps, adversary=adversary)
            for p, s in zip(MIXED_PHYSES, seeds)
        ]
        assert avg.tolist() == expected
        probe_cfg = replace(cfg, phys=MIXED_PHYSES[0])
        assert check_adversary(adversary, proxy.checkpoint, probe_cfg, steps, 11) == expected[0]

    def test_per_row_adversaries_match_reference_loop(self):
        # every tracker kind with and without wind; two adversaries and no adversary in both substep groups
        adv_a, adv_b = greedy_ckpt(7, 4), greedy_ckpt(7, 9)
        kinds = [Policy(k) for k in PolicyKind if k is not PolicyKind.GREEDY_DQN]
        kinds.append(Policy(PolicyKind.GREEDY_DQN, greedy_ckpt(5, 3)))
        policies = [policy for policy in kinds for _ in MIXED_PHYSES]
        physes = MIXED_PHYSES * len(kinds)
        adversaries = [None, adv_a, None, adv_b] * 3
        cfg, steps = wb.EnvConfig(), 60
        seeds = [[19, i] for i in range(len(physes))]
        avg, _ = rollout(policies, cfg, physes, seeds, steps, adversary=adversaries)
        expected = [
            reference_average(policy, replace(cfg, phys=p), s, steps, adversary=adv)
            for policy, p, s, adv in zip(policies, physes, seeds, adversaries)
        ]
        assert avg.tolist() == expected

    def test_rows_cross_noise_blocks_as_reference_loop(self):
        # two block boundaries and a partial last block: the batch draws wire noise and random moves
        # NOISE_BLOCK intervals at a time, the reference loop one at a time; one substep group holds a quiet
        # wire among noisy ones, and greedy trackers and an adversary play beside the oracle and random rows
        quiet = replace(MIXED_PHYSES[0], wind_cov=np.zeros((3, 3)))
        physes = MIXED_PHYSES + [quiet]
        greedy, adversary = Policy(PolicyKind.GREEDY_DQN, greedy_ckpt(5, 3)), greedy_ckpt(7, 4)
        kinds = [Policy(PolicyKind.RANDOM_UNIFORM), Policy(PolicyKind.UPPER_LIMIT), greedy]
        policies = [policy for policy in kinds for _ in physes]
        physes, adversaries = physes * len(kinds), [None, adversary] * (len(policies) // 2)
        cfg, steps = wb.EnvConfig(), 2 * NOISE_BLOCK + 3
        seeds = [[29, i] for i in range(len(physes))]
        avg, _ = rollout(policies, cfg, physes, seeds, steps, adversary=adversaries)
        expected = [
            reference_average(policy, replace(cfg, phys=p), s, steps, adversary=adv)
            for policy, p, s, adv in zip(policies, physes, seeds, adversaries)
        ]
        assert avg.tolist() == expected

    def test_adversary_free_rows_cross_blocks_as_reference_loop(self):
        # no row has an adversary, so the batch advances its wires NOISE_BLOCK intervals ahead and scores each
        # step on the recorded track: two block boundaries and a partial last block, every tracker kind, a quiet
        # wire, and one- and two-substep groups
        quiet = replace(MIXED_PHYSES[0], wind_cov=np.zeros((3, 3)))
        physes = MIXED_PHYSES + [quiet]
        greedy = Policy(PolicyKind.GREEDY_DQN, greedy_ckpt(5, 3))
        kinds = [Policy(k) for k in PolicyKind if k is not PolicyKind.GREEDY_DQN] + [greedy]
        policies = [policy for policy in kinds for _ in physes]
        physes = physes * len(kinds)
        cfg, steps = wb.EnvConfig(), 2 * NOISE_BLOCK + 3
        seeds = [[31, i] for i in range(len(physes))]
        avg, rows = rollout(policies, cfg, physes, seeds, steps, trajectory=True)
        expected = [
            reference_average(policy, replace(cfg, phys=p), s, steps)
            for policy, p, s in zip(policies, physes, seeds)
        ]
        assert avg.tolist() == expected
        for policy, phys, seed, batch_rows in zip(policies, physes, seeds, rows):
            row_cfg = replace(cfg, phys=phys)
            assert run_policy(policy, row_cfg, steps, seed)[1] == batch_rows
            # each row's time, station position, steering and power are those of its own environment, stepped
            # one interval at a time with the row's moves
            env = BeamTrackingEnv(replace(row_cfg, horizon=steps), seed=rarl._eval_streams(seed)[0])
            for _, t, p_r, _, a_p, _, *station_and_steer in batch_rows:
                *_, power = env.step(ProtagonistAction[a_p.upper()])
                assert (t, p_r, station_and_steer) == (env.time, power, [*env.sbs_position, *env.steer])

    def test_integrator_calls_per_rollout(self, monkeypatch):
        # 1000 adversary-free steps are 16 Integrator.advance calls per substep group, one per noise block; with an
        # adversary row the block is one interval, so 1000 calls per group
        calls, advance = [], wb.wire.Integrator.advance
        monkeypatch.setattr(wb.wire.Integrator, "advance", lambda self, *args: calls.append(self) or advance(self, *args))
        cfg, policies, seeds = wb.EnvConfig(), [Policy(PolicyKind.STAY)] * 2, [[41, 0], [41, 1]]
        assert [wb.wire.effective_substeps(p, cfg.tau, cfg.substeps) for p in MIXED_PHYSES[:2]] == [1, 2]
        rollout(policies, cfg, MIXED_PHYSES[:2], seeds, 1000)
        assert len(calls) == 2 * 16 and len(set(calls)) == 2
        calls.clear()
        rollout(policies, cfg, MIXED_PHYSES[:2], seeds, 1000, adversary=[greedy_ckpt(7, 2), None])
        assert len(calls) == 2 * 1000 and len(set(calls)) == 2

    def test_random_row_beside_an_adversary_row_equals_it_alone(self):
        # beside a greedy adversary the block is one interval, so the random row draws its moves one at a time;
        # alone it draws them NOISE_BLOCK at a time: a bulk draw of the action stream equals sequential draws
        random, cfg, steps = Policy(PolicyKind.RANDOM_UNIFORM), wb.EnvConfig(), 2 * NOISE_BLOCK + 3
        avg, rows = rollout([random, Policy(PolicyKind.STAY)], cfg, MIXED_PHYSES[:2], [[43, 0], [43, 1]], steps,
                            adversary=[None, greedy_ckpt(7, 2)], trajectory=True)
        alone = rollout([random], cfg, MIXED_PHYSES[:1], [[43, 0]], steps, trajectory=True)
        assert avg[0] == alone[0][0] and rows[0] == alone[1][0]
        assert {row[4] for row in rows[0]} == {action.name.lower() for action in ProtagonistAction}

    def test_batch_rows_equal_single_rows(self):
        policy, cfg = Policy(PolicyKind.UPPER_LIMIT), wb.EnvConfig()
        _, rows = rollout([policy] * 3, cfg, MIXED_PHYSES, [1, 2, 3], 30, trajectory=True)
        for phys, seed, batch_rows in zip(MIXED_PHYSES, [1, 2, 3], rows):
            assert run_policy(policy, replace(cfg, phys=phys), 30, seed)[1] == batch_rows

    def test_raw_and_normalized_players_share_one_stack(self, monkeypatch):
        # bare nets read raw inputs (offset 0, scale 1), checkpoints their normalized ones; a raw and a
        # normalized tracker (5 actions) and adversary (7) play two rows each, so all four players are one
        # stacked group with two head groups, and every row must equal its own B = 1 rollout
        raw_tracker = init_qnetwork(5, np.random.default_rng(8), head_scale=1.0)
        raw_adversary = init_qnetwork(7, np.random.default_rng(10), head_scale=1.0)
        trackers = [raw_tracker] * 2 + [greedy_ckpt(5, 3)] * 2
        adversaries = [greedy_ckpt(7, 4)] * 2 + [raw_adversary] * 2
        policies = [Policy(PolicyKind.GREEDY_DQN, tracker) for tracker in trackers]
        cfg, steps, physes, seeds = wb.EnvConfig(), 60, MIXED_PHYSES[:2] * 2, [[23, i] for i in range(4)]
        blocks, block = [], rarl.deepq.QBlock
        monkeypatch.setattr(rarl.deepq, "QBlock", lambda nets: blocks.append(nets) or block(nets))
        avg, rows = rollout(policies, cfg, physes, seeds, steps, adversary=adversaries, trajectory=True)
        assert [[net.n_actions for net in nets] for nets in blocks] == [[5, 5, 7, 7]]
        for b in range(4):
            alone = rollout(policies[b : b + 1], cfg, physes[b : b + 1], seeds[b : b + 1], steps,
                            adversary=adversaries[b], trajectory=True)
            assert avg[b] == alone[0][0] and rows[b] == alone[1][0]
        # first step, on the rest observation: a bare net picks on it raw, a checkpoint on its normalized zeros
        # (seeds 8 and 10 pick differently on the raw, the zero and the rest / scale input)
        for b, agents in enumerate(zip(trackers, adversaries)):
            rest = BeamTrackingEnv(replace(cfg, phys=physes[b]), seed=0).observe()
            picks = [np.argmax(wb.forward(a, rest) if isinstance(a, wb.QNetwork) else wb.forward(a.net, 0.0 * rest))
                     for a in agents]
            assert rows[b][0][4:6] == (ProtagonistAction(picks[0]).name.lower(), AdversaryAction(picks[1]).name.lower())

    def test_wrong_action_count_names_the_row(self):
        tracker, adversary = greedy_ckpt(5, 1), greedy_ckpt(7, 2)
        stay, cfg = Policy(PolicyKind.STAY), wb.EnvConfig()
        as_tracker = [stay, Policy(PolicyKind.GREEDY_DQN, adversary)]
        message = "^rollout row 1: its tracker has n_actions 7; trackers need 5, adversaries 7$"
        with pytest.raises(ValueError, match=message):
            rollout(as_tracker, cfg, [cfg.phys] * 2, [1, 2], 5)
        with pytest.raises(ValueError, match="^rollout row 0: its adversary has n_actions 5;"):
            rollout([stay] * 2, cfg, [cfg.phys] * 2, [1, 2], 5, adversary=[tracker, None])
        assert np.isfinite(rollout([stay] * 2, cfg, [cfg.phys] * 2, [1, 2], 5, adversary=[None, adversary])[0]).all()

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="one PhysParams per seed"):
            rollout([Policy(PolicyKind.STAY)] * 3, wb.EnvConfig(), MIXED_PHYSES, [1], 10)
        with pytest.raises(ValueError, match="one Policy and one PhysParams per seed"):
            rollout([Policy(PolicyKind.STAY)], wb.EnvConfig(), MIXED_PHYSES, [1, 2, 3], 10)
        with pytest.raises(ValueError, match=r"one adversary \(or None\) per seed"):
            rollout([Policy(PolicyKind.STAY)] * 3, wb.EnvConfig(), MIXED_PHYSES, [1, 2, 3], 10, adversary=[None] * 2)

    def test_mixed_point_counts_rejected(self):
        physes = [wb.PhysParams(), wb.PhysParams(), wb.PhysParams(n_points=12)]
        with pytest.raises(ValueError, match="^an EnvBatch needs one n_points: row 2 has 12, row 0 11$"):
            rollout([Policy(PolicyKind.STAY)] * 3, wb.EnvConfig(), physes, [1, 2, 3], 5)
        # the default station, point 6, lies past a 5-point wire and on a 6-point wire's pinned end
        for n_points in (5, 6):
            interior = f"an interior point \\(2..{n_points - 1}\\) of the rows' wires of n_points {n_points}$"
            with pytest.raises(ValueError, match=f"^sbs_point 6 must be {interior}"):
                rollout([Policy(PolicyKind.UPPER_LIMIT)], wb.EnvConfig(), [wb.PhysParams(n_points=n_points)], [1], 5)

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="^a rollout needs at least one row$"):
            rollout([], wb.EnvConfig(), [], [], 5)


class TestRandomAdversary:
    def test_uniform_frequencies(self):
        rng = np.random.default_rng(55)
        n = 100_000
        counts = np.bincount([random_adversary_action(rng) for _ in range(n)], minlength=7)
        p = 1.0 / 7.0
        bound = 3.0 * np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) < bound)


class TestProxy:
    def test_self_trained_proxy_round_trip(self, tmp_path):
        proxy = train(tiny_cfg(variant="rarl", episodes=1, test_steps=10)).proxy
        assert proxy.manifest["variant"] == "no_adversary"
        path = tmp_path / "proxy.ckpt"
        wb.save_checkpoint(path, proxy)
        loaded = wb.load_checkpoint(path)
        # drives the adversary probe without error
        adv = zero_bias_net(7)
        val = check_adversary(adv, loaded.net, wb.EnvConfig(), 20, seed=1)
        assert np.isfinite(val)


def count_rollouts(monkeypatch):
    """Batch sizes of every rollout that rarl makes from now on."""
    calls = []
    monkeypatch.setattr(rarl, "rollout", lambda *args, **kw: calls.append(len(args[0])) or rollout(*args, **kw))
    return calls


class TestProbes:
    def test_probes_equal_standalone_checks(self):
        proxy = train(tiny_cfg(episodes=1, test_steps=10)).protagonist
        cfg = tiny_cfg(variant="rarl", episodes=1, proxy_checkpoint=proxy)
        result = train(cfg)  # after one episode, the final nets are the probe nets
        (record,) = result.records
        p4 = check_protagonist(result.protagonist, cfg.env, cfg.test_steps, record.p4_seed)
        p5 = check_adversary(result.adversary, proxy, cfg.env, cfg.test_steps, record.p5_seed)
        assert (record.protagonist_avg_power, record.adversary_check_avg_power) == (p4, p5)

    def test_self_proxied_probes_equal_standalone_checks(self):
        cfg = tiny_cfg(variant="rarl", episodes=1)
        result = train(cfg)  # after one episode, the final nets are the probe nets
        (record,) = result.records
        p4 = check_protagonist(result.protagonist, cfg.env, cfg.test_steps, record.p4_seed)
        p5 = check_adversary(result.adversary, result.proxy, cfg.env, cfg.test_steps, record.p5_seed)
        assert (record.protagonist_avg_power, record.adversary_check_avg_power) == (p4, p5)

    def test_rarl_train_makes_one_rollout_per_episode(self, monkeypatch):
        proxy = train(tiny_cfg(episodes=1, test_steps=10)).protagonist
        cfg = tiny_cfg(variant="rarl", episodes=3, horizon=20, test_steps=10)
        calls = count_rollouts(monkeypatch)
        train(replace(cfg, proxy_checkpoint=proxy))
        assert calls == [2, 2, 2]
        # a self-proxied run: its proxy is probed by no row, and the last rollout holds every adversary probe
        calls.clear()
        train(cfg)
        assert calls == [1, 1, 1 + 3]
        calls.clear()
        train([cfg, replace(cfg, seed=4, variant="no_adversary"), replace(cfg, seed=5, proxy_checkpoint=proxy)])
        assert calls == [4, 4, 4 + 3]  # 1 + 1 + 2 rows per episode, and the deferred 3


@pytest.mark.slow
class TestTrainingEffects:
    def test_proxy_learning_trend(self, training_stock):
        # the proxy runs without probes, so its trend is its end against its start: on the last five
        # tracker-probe seeds, the final proxy gets at least the power of its untrained net (heads at
        # indifference, so greedy is the no-op), which shares its input normalizer
        proxy, records = training_stock[11]["no_adversary"], training_stock[11]["rarl"].records
        start = wb.AgentCheckpoint(
            net=init_qnetwork(5, np.random.default_rng(0), head_scale=TrainConfig().head_init_scale),
            manifest={"obs_norm": proxy.manifest["obs_norm"]},
        )
        seeds = [r.p4_seed for r in records[-5:]]
        policies = [Policy(PolicyKind.GREEDY_DQN, agent) for agent in (proxy, start) for _ in seeds]
        cfg = wb.EnvConfig()
        avg, _ = rollout(policies, cfg, [cfg.phys] * len(policies), seeds * 2, 1000)
        end, begin = avg.reshape(2, -1).mean(axis=1)
        assert end >= begin

    def test_trained_adversary_beats_untrained(self, training_stock):
        # median over the stock seeds: a trained adversary extracts less
        # power from the proxy than a random-weight adversary (the fresh
        # one gets the same input normalizer so only the weights differ)
        trained, untrained = [], []
        for i, (seed, stock) in enumerate(sorted(training_stock.items())):
            proxy = stock["no_adversary"]
            adv = stock["rarl"].adversary
            fresh = wb.AgentCheckpoint(
                net=init_qnetwork(7, np.random.default_rng(1000 + i)),
                manifest={"obs_norm": adv.manifest["obs_norm"]},
            )
            cfg = wb.EnvConfig()
            trained.append(check_adversary(adv, proxy, cfg, 1000, seed=777))
            untrained.append(check_adversary(fresh, proxy, cfg, 1000, seed=777))
        assert np.median(trained) <= np.median(untrained)
