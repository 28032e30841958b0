import numpy as np
import pytest
from dataclasses import replace

import wirebeam as wb
from wirebeam.config import train_config_from_text
from wirebeam.env import AdversaryAction, BeamTrackingEnv, ProtagonistAction, apply_protagonist_action
from wirebeam.rarl import PolicyKind, _eval_streams

# Training runs shared by the slow tests: five seeds, 50 episodes each,
# reference parameters otherwise. The no-adversary arm of each seed doubles
# as the proxy tracker for the adversarial arm of the same seed.
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
        adversary_active=False,
        horizon=100,
    )


@pytest.fixture(scope="session")
def training_stock():
    """Train both variants for every stock seed (shared by criteria 7/8)."""
    base = train_config_from_text("")
    stock = {}
    for seed in STOCK_SEEDS:
        cfg = replace(base, episodes=STOCK_EPISODES, seed=seed, variant="no_adversary")
        no_adv = wb.train(cfg)
        rarl_cfg = replace(cfg, variant="rarl", proxy_checkpoint=no_adv.protagonist)
        stock[seed] = {"no_adversary": no_adv, "rarl": wb.train(rarl_cfg)}
    return stock


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
    cfg = replace(env_cfg, adversary_active=adversary is not None, horizon=steps)
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
                beam = apply_protagonist_action(env.beam, a, cfg.beta)
                powers.append(wb.received_power(aod, beam.steer_zenith, beam.steer_azimuth, cfg.antenna, cfg.budget))
            a_p = int(np.argmax(powers))
        _, _, _, p_r = env.step(ProtagonistAction(a_p), AdversaryAction(a_a))
        total += p_r
    return total / steps
