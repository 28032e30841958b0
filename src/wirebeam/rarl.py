"""Two-agent adversarial training loop and the fixed evaluation policies.

Per episode, both agents explore epsilon-greedily on a shared environment
tick, every transition is stored, and the networks, the rows of one
deepq.QBlock, act through one stacked forward and take one stacked gradient
step per environment step; targets re-sync every few episodes, and probes
score the greedy tracker with the adversary off and the greedy adversary
against a frozen proxy tracker that was pre-trained without an adversary.

Every evaluation is one call of `rollout`, which steps an env.EnvBatch of B
environments, each with its own policy and adversary (or none): both probes
of a `rarl` episode with B = 2 (the other variants' one probe and
`run_policy` with B = 1), a whole sweep with one call. `pretrain_proxy` runs
no probes, since it keeps only the proxy checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from enum import Enum

import numpy as np

from . import deepq
from .checkpoint import AgentCheckpoint, load_checkpoint, param_digest
from .env import AdversaryAction, BeamTrackingEnv, EnvBatch, EnvConfig, ProtagonistAction, reward_from_power

VARIANTS = ("rarl", "no_adversary", "random_adversary")

N_PROTAGONIST_ACTIONS = len(ProtagonistAction)
N_ADVERSARY_ACTIONS = len(AdversaryAction)


@dataclass
class TrainConfig:
    env: EnvConfig = field(default_factory=EnvConfig)
    episodes: int = 400
    epsilon: float = 0.2
    gamma: float = 0.99
    target_period: int = 5
    test_steps: int = 1000
    variant: str = "rarl"
    seed: int = 0
    proxy_checkpoint: object = None  # path or AgentCheckpoint; required for variant="rarl"
    batch_size: int = 32
    replay_capacity: int = 5000  # recency-weighted experience; 100k reproduces the slow full-scale recipe
    learning_rate: float = 1e-3
    hidden: tuple = (32, 32, 32, 32)
    standardize_obs: bool = True  # feed (obs - rest obs) / characteristic scales to the nets
    head_init_scale: float = 0.0  # 0 starts the heads at indifference (greedy = no-op)

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.test_steps < 1:
            raise ValueError("test_steps must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.target_period < 1:
            raise ValueError("target_period must be >= 1")
        if not 1 <= self.batch_size <= self.replay_capacity:  # else the memory never fills a batch
            raise ValueError("batch_size must lie in [1, replay_capacity]")
        if not 0.0 < self.learning_rate < float("inf"):
            raise ValueError("learning_rate must be finite and > 0")
        if not 0.0 <= self.gamma < 1.0:  # episodes never terminate, so 1 lets Q grow without bound
            raise ValueError("gamma must lie in [0, 1)")
        if min(self.hidden, default=1) < 1:
            raise ValueError("hidden widths must be >= 1")
        if not np.isfinite(self.head_init_scale):
            raise ValueError("head_init_scale must be finite")


@dataclass
class EpisodeRecord:
    episode: int
    protagonist_avg_power: float
    adversary_check_avg_power: float
    loss_p: float
    loss_a: float
    wall_clock: float
    p4_seed: int = 0
    p5_seed: int = 0
    target_synced: bool = False


@dataclass
class TrainResult:
    protagonist: AgentCheckpoint
    adversary: AgentCheckpoint | None
    records: list


class PolicyKind(Enum):
    STAY = "stay"
    UPPER_LIMIT = "upper_limit"
    GREEDY_DQN = "greedy_dqn"
    RANDOM_UNIFORM = "random_uniform"


# characteristic magnitudes of (displacement, velocity, beam-direction delta)
OBS_SCALE = np.array([1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 0.1, 0.1, 0.1])


@dataclass
class ObsNormalizer:
    """Affine input map applied before the Q networks.

    Anchored at the rest observation of the environment the network runs
    in (the station can always calibrate its rest pose in situ), so the
    position inputs mean "displacement from rest" in every environment.
    The beam components are amplified because their excursions (~0.1) are
    tiny next to raw positions (~4 m), which otherwise starves the
    network of steering sensitivity.
    """

    offset: np.ndarray
    scale: np.ndarray

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return (vec - self.offset) / self.scale

    def manifest_entry(self) -> dict:
        return {"anchor": "env_rest", "scale": self.scale.tolist()}


def make_normalizer(env_cfg: EnvConfig) -> ObsNormalizer:
    """Normalizer anchored at the rest state of the given environment."""
    return ObsNormalizer(offset=BeamTrackingEnv(env_cfg, seed=0).observe(), scale=OBS_SCALE.copy())


def _apply_norm(norm, vec):
    return norm.apply(vec) if norm is not None else vec


@dataclass
class Policy:
    kind: PolicyKind
    checkpoint: object = None  # path or AgentCheckpoint for GREEDY_DQN

    def __post_init__(self):
        if self.kind is PolicyKind.GREEDY_DQN and self.checkpoint is None:
            raise ValueError("greedy_dqn policy needs a checkpoint")


def config_fingerprint(cfg: TrainConfig) -> str:
    """Stable short hash of the full configuration (numpy fields included); a
    proxy checkpoint enters as the param_digest of its network, so the same
    proxy given as an object or as a path hashes alike."""

    def default(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        return str(obj)

    fields = asdict(replace(cfg, proxy_checkpoint=None))
    if cfg.proxy_checkpoint is not None:
        fields["proxy_checkpoint"] = param_digest(_resolve_agent(cfg.proxy_checkpoint)[0])
    blob = json.dumps(fields, sort_keys=True, default=default)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _resolve_agent(obj):
    """(network, input-normalizer scale or None) from a checkpoint path,
    an AgentCheckpoint (scale recorded in its manifest), or a bare net."""
    if isinstance(obj, deepq.QNetwork):
        return obj, None
    if not isinstance(obj, AgentCheckpoint):
        obj = load_checkpoint(obj)
    entry = (obj.manifest or {}).get("obs_norm")
    return obj.net, np.asarray(entry["scale"]) if entry else None


def random_adversary_action(rng: np.random.Generator) -> int:
    """Action draw of the untrained random-adversary variant: uniform over
    all seven wind choices."""
    return int(rng.integers(N_ADVERSARY_ACTIONS))


def _eval_streams(seed):
    """Fixed {environment, action} stream split so that every evaluation
    entry point sees identical physics under the same seed; a SeedSequence
    is read, not spawned from, so it gives the same streams on every use."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    key, size = ss.spawn_key, ss.pool_size
    return [np.random.SeedSequence(ss.entropy, spawn_key=(*key, i), pool_size=size) for i in (0, 1)]


def rollout(policies, env_cfg: EnvConfig, physes, seeds, steps: int, adversary=None, trajectory=False):
    """Roll B = len(seeds) environments together for `steps` decision intervals.

    Environment b runs `env_cfg` with the physics `physes[b]` (one n_points
    for all) under `seeds[b]`, its tracker plays `policies[b]`, and it follows
    exactly the trajectory it would follow alone. `adversary` is one agent
    (net, checkpoint or path) for every row or a list with one agent or None
    per row; a row without one has its adversary play STAY. The rows are one
    EnvBatch; per step this loop runs one stacked QBlock forward per group of
    distinct greedy agents (trackers and adversaries alike) that share a
    trunk shape and a row count, and takes the argmax of one EnvBatch.power
    call over each oracle row's five candidate beams and the chosen beams.

    Returns the (B,) average powers in dBm and, with `trajectory`, one list
    of rows (step, t, p_r_dbm, r_p, a_p, a_a, sbs_x, sbs_y, sbs_z, theta_s,
    phi_s) per environment, else None.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not len(policies) == len(physes) == len(seeds):
        raise ValueError("need one Policy and one PhysParams per seed")
    if not isinstance(adversary, (list, tuple)):
        adversary = [adversary] * len(seeds)
    elif len(adversary) != len(seeds):
        raise ValueError("need one adversary (or None) per seed")
    streams = [_eval_streams(seed) for seed in seeds]
    env = EnvBatch.of(env_cfg, physes, [stream[0] for stream in streams])
    policies = [policies[i] for i in env.order]
    adversaries = [adversary[i] for i in env.order]
    act_rngs = [np.random.default_rng(streams[i][1]) for i in env.order]
    obs = env.observe()  # the rest observations

    # one player per distinct greedy agent (by identity): 0 for a tracker or 1 for an adversary, the
    # rows it plays, its net and its normalizer, anchored on those rows' rest observations
    shared, trackers = {}, [p.checkpoint if p.kind is PolicyKind.GREEDY_DQN else None for p in policies]
    for slot, agents in enumerate((trackers, adversaries)):
        for agent in {id(a): a for a in agents if a is not None}.values():
            own, (net, scale) = np.flatnonzero([a is agent for a in agents]), _resolve_agent(agent)
            norm = ObsNormalizer(offset=obs[own], scale=np.asarray(scale)) if scale is not None else None
            shared.setdefault((net.n_inputs, net.hidden, len(own)), []).append((slot, own, net, norm))
    # players that share a trunk shape and a row count act through one stacked forward (heads by count)
    players = [sorted(group, key=lambda player: player[2].n_actions) for group in shared.values()]
    stacks = [(group, deepq.QBlock([p[2] for p in group])) for group in players]

    every = np.arange(len(policies))
    kinds = np.array([p.kind for p in policies])
    observed = np.flatnonzero([a is not None or t is not None for a, t in zip(adversaries, trackers)])  # read by a net
    randoms = np.flatnonzero(kinds == PolicyKind.RANDOM_UNIFORM)
    oracle = (kinds == PolicyKind.UPPER_LIMIT)[:, None]
    actions = np.arange(N_PROTAGONIST_ACTIONS)[None, :]
    a_p, a_a = chosen = np.zeros((2, len(every)), dtype=np.int64)  # views of `chosen`, written in place
    total = np.zeros(len(every))
    rows = [[] for _ in every]
    for k in range(steps):
        if observed.size:
            obs[observed] = env.observe(observed)
        for group, block in stacks:
            qs = block.forward(np.array([_apply_norm(norm, obs[own]) for _, own, _, norm in group]))
            for (slot, own, _, _), q in zip(group, qs):
                chosen[slot, own] = np.argmax(q, axis=1)
        a_p[randoms] = [act_rngs[b].integers(N_PROTAGONIST_ACTIONS) for b in randoms]

        env.advance(a_a)
        # score the oracle's five moves and every other row's chosen one, on the wire state the step keeps
        beams = env.steer[:, None, :] + env.moves  # (B, moves, 2)
        b, m = np.nonzero(oracle | (actions == a_p[:, None]))
        powers = np.full(beams.shape[:2], -np.inf)
        powers[b, m] = env.power(beams[b, m], b)
        a_p[:] = np.argmax(powers, axis=1)
        env.steer, p_r = beams[every, a_p], powers[every, a_p]
        total += p_r

        if trajectory:
            for b, env_rows in enumerate(rows):
                r_p = reward_from_power(p_r[b], env_cfg.clip_offset, env_cfg.clip_scale)
                names = ProtagonistAction(a_p[b]).name.lower(), AdversaryAction(a_a[b]).name.lower()
                env_rows.append((k, env.time, p_r[b], r_p, *names, *env.sbs_position[b], *env.steer[b]))

    inverse = np.argsort(env.order)
    return (total / steps)[inverse], [rows[j] for j in inverse] if trajectory else None


def run_policy(policy: Policy, env_cfg: EnvConfig, steps: int, seed):
    """Roll a fixed policy (no adversary) for `steps` decision intervals;
    returns (average received power in dBm, rollout's trajectory rows)."""
    avg, rows = rollout([policy], env_cfg, [env_cfg.phys], [seed], steps, trajectory=True)
    return float(avg[0]), rows[0]


def check_protagonist(net, env_cfg: EnvConfig, test_steps: int, seed) -> float:
    """Average received power of the greedy tracker with the adversary off;
    `net` is a bare QNetwork or a checkpoint (its input normalizer applies)."""
    avg, _ = rollout([Policy(PolicyKind.GREEDY_DQN, net)], env_cfg, [env_cfg.phys], [seed], test_steps)
    return float(avg[0])


def check_adversary(adv_net, proxy_net, env_cfg: EnvConfig, test_steps: int, seed) -> float:
    """Average power the frozen proxy tracker obtains while the greedy
    adversary disturbs it (lower means a stronger adversary)."""
    policy = Policy(PolicyKind.GREEDY_DQN, proxy_net)
    avg, _ = rollout([policy], env_cfg, [env_cfg.phys], [seed], test_steps, adversary=adv_net)
    return float(avg[0])


def train(cfg: TrainConfig, *, _probe: bool = True) -> TrainResult:
    """Run the full two-agent training loop and return checkpoints + records.

    Variants: "rarl" trains both agents (and requires a proxy checkpoint
    for the adversary probe), "no_adversary" has the adversary play STAY,
    which adds no wind, "random_adversary" keeps the wind but picks adversary
    actions uniformly at random without training a network. The private
    `_probe=False` skips the per-episode probes (their powers read NaN);
    their seeds are drawn up front either way, so no other draw moves.
    """
    trains_adversary = cfg.variant == "rarl"
    if trains_adversary and cfg.proxy_checkpoint is None:
        raise ValueError('variant "rarl" requires proxy_checkpoint for the adversary probe')
    norm = make_normalizer(cfg.env) if cfg.standardize_obs else None

    # One master seed fans out to fixed streams so that variants sharing a
    # seed see identical physics and protagonist exploration draws.
    rng_init_p, rng_init_a, rng_phys, rng_eps_p, rng_eps_a, rng_replay_p, rng_replay_a, rng_eval = (
        np.random.default_rng(stream) for stream in np.random.SeedSequence(cfg.seed).spawn(8)
    )

    phys_seeds = rng_phys.integers(0, 2**63, size=cfg.episodes)
    eval_seeds = rng_eval.integers(0, 2**63, size=(cfg.episodes, 2))

    # the tracker first, then the adversary when it learns: one row of the parameter block each
    agents = [(N_PROTAGONIST_ACTIONS, rng_init_p, rng_replay_p, rng_eps_p)]
    if trains_adversary:
        agents.append((N_ADVERSARY_ACTIONS, rng_init_a, rng_replay_a, rng_eps_a))
    nets = [deepq.init_qnetwork(n, rng, hidden=cfg.hidden, head_scale=cfg.head_init_scale)
            for n, rng, *_ in agents]
    block = deepq.QBlock(nets, cfg.learning_rate)
    memories = [deepq.ReplayMemory(cfg.replay_capacity, rng) for *_, rng, _ in agents]
    explore = [rng for *_, rng in agents]

    # read a proxy path once, so that a file replaced mid-run cannot change the probe
    proxy = cfg.proxy_checkpoint
    if proxy is not None and not isinstance(proxy, (AgentCheckpoint, deepq.QNetwork)):
        proxy = load_checkpoint(proxy)
    fingerprint = config_fingerprint(replace(cfg, proxy_checkpoint=proxy))

    records = []
    for ep in range(1, cfg.episodes + 1):
        t0 = time.perf_counter()
        e = BeamTrackingEnv(cfg.env, seed=phys_seeds[ep - 1])
        state = _apply_norm(norm, e.observe())
        losses = [[], []]  # per agent; the adversary's stays empty unless it learns

        for _ in range(cfg.env.horizon):
            actions = block.act(state, cfg.epsilon, explore)
            if cfg.variant == "random_adversary":
                actions.append(random_adversary_action(rng_eps_a))
            elif cfg.variant == "no_adversary":
                actions.append(int(AdversaryAction.STAY))

            obs, r_p, r_a, _ = e.step(ProtagonistAction(actions[0]), AdversaryAction(actions[1]))
            next_state = _apply_norm(norm, obs)
            for memory, action, reward in zip(memories, actions, (r_p, r_a)):
                memory.push(state, action, reward, next_state)
            if len(memories[0]) >= cfg.batch_size:  # every memory holds as many transitions
                batches = [memory.sample(cfg.batch_size) for memory in memories]
                for agent_losses, loss in zip(losses, block.train(batches, cfg.gamma)):
                    agent_losses.append(float(loss))
            state = next_state

        synced = ep % cfg.target_period == 0
        if synced:
            block.sync_target()

        p4_seed, p5_seed = int(eval_seeds[ep - 1, 0]), int(eval_seeds[ep - 1, 1])
        p4 = p5 = float("nan")
        if _probe:  # one rollout: the tracker, wind off; for rarl also the proxy against the adversary
            probe_manifest = {"obs_norm": norm.manifest_entry() if norm else None}
            probes = [AgentCheckpoint(net, manifest=probe_manifest) for net in block.nets]
            rows = [(probes[0], None, p4_seed), (proxy, probes[-1], p5_seed)][: len(probes)]
            trackers, adversaries, seeds = zip(*rows)
            policies = [Policy(PolicyKind.GREEDY_DQN, tracker) for tracker in trackers]
            physes = [cfg.env.phys] * len(rows)
            avg, _ = rollout(policies, cfg.env, physes, seeds, cfg.test_steps, adversary=adversaries)
            p4 = float(avg[0])
            if trains_adversary:
                p5 = float(avg[1])
        loss_p, loss_a = (float(np.mean(x)) if x else float("nan") for x in losses)
        records.append(
            EpisodeRecord(
                episode=ep,
                protagonist_avg_power=p4,
                adversary_check_avg_power=p5,
                loss_p=loss_p,
                loss_a=loss_a,
                wall_clock=time.perf_counter() - t0,
                p4_seed=p4_seed,
                p5_seed=p5_seed,
                target_synced=synced,
            )
        )

    manifest = {
        "variant": cfg.variant,
        "seed": cfg.seed,
        "episodes": cfg.episodes,
        "config_hash": fingerprint,
        "obs_norm": norm.manifest_entry() if norm else None,
    }
    ckpts = [
        AgentCheckpoint(net, adam, {"agent": name, "n_actions": net.n_actions, **manifest})
        for name, net, adam in zip(("protagonist", "adversary"), block.nets, block.adams)
    ]
    return TrainResult(ckpts[0], ckpts[1] if trains_adversary else None, records)


def pretrain_proxy(cfg: TrainConfig) -> AgentCheckpoint:
    """Train the proxy tracker (no adversary) used by the adversary probe."""
    result = train(replace(cfg, variant="no_adversary", proxy_checkpoint=None), _probe=False)
    return result.protagonist
