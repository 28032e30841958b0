import csv

import numpy as np
import pytest
from dataclasses import replace

import wirebeam as wb
from wirebeam.config import train_config_from_text
from wirebeam.env import ANGLE_STEPS, AdversaryAction, BeamTrackingEnv, ProtagonistAction
from wirebeam.rarl import (
    EpisodeRecord,
    Policy,
    PolicyKind,
    TrainResult,
    _eval_streams,
    config_fingerprint,
    random_adversary_action,
)

# Training runs shared by the slow tests: five seeds, 50 episodes each,
# reference parameters otherwise. The no-adversary arm of each seed is the
# proxy tracker that the adversarial arm of the same seed trains for itself.
STOCK_SEEDS = (11, 12, 13, 14, 15)
STOCK_EPISODES = 50


@pytest.fixture()
def default_cfg():
    """Full reference-default training config (1000-step episodes)."""
    return train_config_from_text("")


@pytest.fixture()
def small_env_cfg():
    """Short-horizon environment for fast behavioral tests."""
    return wb.EnvConfig(horizon=120)


@pytest.fixture()
def frozen_env_cfg():
    """No ambient wind, no pressure noise: a statically aligned link."""
    return wb.EnvConfig(
        phys=wb.PhysParams(wind_cov=np.zeros((3, 3))),
        ambient_wind=False,
        horizon=100,
    )


@pytest.fixture(scope="session")
def training_stock():
    """Every stock seed's self-proxied rarl run, all trained in one lockstep call
    (shared by criteria 7/8): {seed: {"rarl": TrainResult, "no_adversary": the
    proxy tracker checkpoint, the no_adversary run's protagonist}}."""
    base = replace(train_config_from_text(""), episodes=STOCK_EPISODES, variant="rarl")
    results = wb.train([replace(base, seed=seed) for seed in STOCK_SEEDS])
    return {seed: {"no_adversary": r.proxy, "rarl": r} for seed, r in zip(STOCK_SEEDS, results)}


def tensile_acceleration(state, i, params):
    """Acceleration of interior wire point i, gravity plus the tensile term:
    the closed form that wire.Integrator applies to every interior point."""
    x = state.positions
    return params.gravity + params.tension_coeff * (x[i + 1] + x[i - 1] - 2.0 * x[i])


def reference_average(policy, env_cfg, seed, steps, adversary=None):
    """Average received power of one environment stepped by
    BeamTrackingEnv.step, with the one-step oracle looking ahead through
    preview_wire: the per-environment loop that the batched rollout must
    reproduce bit for bit. Greedy agents are AgentCheckpoints whose
    manifest records the input scale."""
    env_stream, act_stream = _eval_streams(seed)
    cfg = replace(env_cfg, horizon=steps)
    env = BeamTrackingEnv(cfg, seed=env_stream)
    rng = np.random.default_rng(act_stream)
    rest = env.observe()

    def greedy(ckpt, state):
        scale = np.asarray(ckpt.manifest["obs_norm"]["scale"])
        return int(np.argmax(wb.forward(ckpt.net, (state - rest) / scale)))

    total = 0.0
    for _ in range(steps):
        state = env.observe()
        a_a = greedy(adversary, state) if adversary is not None else AdversaryAction.STAY
        if policy.kind is PolicyKind.STAY:
            a_p = ProtagonistAction.STAY
        elif policy.kind is PolicyKind.RANDOM_UNIFORM:
            a_p = int(rng.integers(len(ProtagonistAction)))
        elif policy.kind is PolicyKind.GREEDY_DQN:
            a_p = greedy(policy.checkpoint, state)
        else:
            nxt = env.preview_wire(AdversaryAction(a_a))
            aod = wb.aod_geometry(nxt.positions[cfg.sbs_index], env.gateway)
            powers = []
            for a in ProtagonistAction:
                zenith, azimuth = env.steer + ANGLE_STEPS[a] * cfg.beta
                powers.append(wb.received_power(aod, zenith, azimuth, cfg.antenna, cfg.budget))
            a_p = int(np.argmax(powers))
        _, _, _, p_r = env.step(ProtagonistAction(a_p), AdversaryAction(a_a))
        total += p_r
    return total / steps


def reference_train(cfg):
    """The per-agent training loop that rarl.train must reproduce bit for bit:
    each agent acts through act_epsilon_greedy and takes its own train_batch
    and sync_target, the environment advances through BeamTrackingEnv.step,
    and the probes run through reference_average. Records carry wall_clock 0.
    Needs standardize_obs (reference_average reads the input scale)."""
    assert cfg.standardize_obs
    rng_init_p, rng_init_a, rng_phys, rng_eps_p, rng_eps_a, rng_replay_p, rng_replay_a, rng_eval = (
        np.random.default_rng(stream) for stream in np.random.SeedSequence(cfg.seed).spawn(8)
    )
    phys_seeds = rng_phys.integers(0, 2**63, size=cfg.episodes)
    eval_seeds = rng_eval.integers(0, 2**63, size=(cfg.episodes, 2))
    agents = [(len(ProtagonistAction), rng_init_p, rng_replay_p, rng_eps_p)]
    if cfg.variant == "rarl":
        agents.append((len(AdversaryAction), rng_init_a, rng_replay_a, rng_eps_a))
    nets = [wb.init_qnetwork(n, rng, hidden=cfg.hidden, head_scale=cfg.head_init_scale) for n, rng, _, _ in agents]
    targets = [net.copy() for net in nets]
    adams = [wb.AdamState.init_like(net, cfg.learning_rate) for net in nets]
    memories = [wb.ReplayMemory(cfg.replay_capacity, rng) for _, _, rng, _ in agents]
    norm = wb.make_normalizer(cfg.env)

    records = []
    for ep in range(1, cfg.episodes + 1):
        env = BeamTrackingEnv(cfg.env, seed=phys_seeds[ep - 1])
        state = norm.apply(env.observe())
        losses = [[], []]
        for _ in range(cfg.env.horizon):
            actions = [wb.act_epsilon_greedy(net, state, cfg.epsilon, agent[3]) for net, agent in zip(nets, agents)]
            if cfg.variant == "random_adversary":
                actions.append(random_adversary_action(rng_eps_a))
            elif cfg.variant == "no_adversary":
                actions.append(AdversaryAction.STAY)
            obs, r_p, r_a, _ = env.step(ProtagonistAction(actions[0]), AdversaryAction(actions[1]))
            next_state = norm.apply(obs)
            for k, reward in enumerate((r_p, r_a)[: len(nets)]):
                memories[k].push(state, actions[k], reward, next_state)
                if len(memories[k]) >= cfg.batch_size:
                    batch = memories[k].sample(cfg.batch_size)
                    losses[k].append(wb.train_batch(nets[k], targets[k], batch, cfg.gamma, adams[k]))
            state = next_state
        synced = ep % cfg.target_period == 0
        if synced:
            for net, target in zip(nets, targets):
                wb.sync_target(net, target)

        p4_seed, p5_seed = int(eval_seeds[ep - 1, 0]), int(eval_seeds[ep - 1, 1])
        probes = [wb.AgentCheckpoint(net.copy(), manifest={"obs_norm": norm.manifest_entry()}) for net in nets]
        p4 = reference_average(Policy(PolicyKind.GREEDY_DQN, probes[0]), cfg.env, p4_seed, cfg.test_steps)
        p5 = float("nan")
        if cfg.variant == "rarl":
            proxy = Policy(PolicyKind.GREEDY_DQN, cfg.proxy_checkpoint)
            p5 = reference_average(proxy, cfg.env, p5_seed, cfg.test_steps, adversary=probes[1])
        loss_p, loss_a = (float(np.mean(x)) if x else float("nan") for x in losses)
        records.append(EpisodeRecord(ep, p4, p5, loss_p, loss_a, 0.0, p4_seed, p5_seed, synced))

    manifest = {
        "variant": cfg.variant,
        "seed": cfg.seed,
        "episodes": cfg.episodes,
        "config_hash": config_fingerprint(cfg),
        "obs_norm": norm.manifest_entry(),
    }
    ckpts = [
        wb.AgentCheckpoint(net, adam, {"agent": name, "n_actions": net.n_actions, **manifest})
        for name, net, adam in zip(("protagonist", "adversary"), nets, adams)
    ]
    return TrainResult(ckpts[0], ckpts[1] if cfg.variant == "rarl" else None, records)


def reference_write_csv(path, header, rows):
    """The per-cell row writer that bench._write_csv must match byte for byte:
    csv.writer over rows, each float cell (Python or numpy) written as
    repr(float(v)), every other cell left to csv.writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])
