"""Two-agent adversarial training loop and the fixed evaluation policies.

Per episode, both agents explore epsilon-greedily on a shared environment
tick, every transition is stored, and the networks, the rows of one
deepq.QBlock, act through one stacked forward and take one stacked gradient
step per environment step; targets re-sync every few episodes, and probes
score the greedy tracker with the adversary off and the greedy adversary
against a frozen proxy tracker trained without an adversary. `train` steps
S runs in lockstep, a rarl run and the proxy it trains for itself among
them: one env.EnvBatch of S environments and one QBlock of all their agents.

Every evaluation is one call of `rollout`, which steps an env.EnvBatch of B
environments, each with its own policy and adversary (or none): every probe
of a training episode with one call, `run_policy` with B = 1, a whole sweep
with one call.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from enum import Enum

import numpy as np

from . import deepq
from .checkpoint import AgentCheckpoint, load_checkpoint, param_digest
from .env import (NOISE_BLOCK, AdversaryAction, BeamTrackingEnv, EnvBatch, EnvConfig, ProtagonistAction,
                  beam_direction, reward_from_power)

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
    proxy_checkpoint: object = None  # path or AgentCheckpoint; a "rarl" run without one trains its own
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
        if not self.hidden or min(self.hidden) < 1:  # the heads read the last trunk layer
            raise ValueError(f"hidden needs at least one layer and widths >= 1, got {tuple(self.hidden)}")
        if not np.isfinite(self.head_init_scale):
            raise ValueError("head_init_scale must be finite")
        if self.seed < 0:  # a SeedSequence takes no negative entropy
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    proxy: AgentCheckpoint | None = None  # the proxy a rarl run trained itself, when it was given none


class PolicyKind(Enum):
    STAY = "stay"
    UPPER_LIMIT = "upper_limit"
    GREEDY_DQN = "greedy_dqn"
    RANDOM_UNIFORM = "random_uniform"


# characteristic magnitudes of (displacement, velocity, beam-direction delta)
OBS_SCALE = np.array([1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 0.1, 0.1, 0.1])


@dataclass
class ObsNormalizer:
    """The one input rule of every Q network, in training and in rollout: inputs = (observation - offset)
    / scale, offset the rest observation of the net's own row (the station can always calibrate its rest
    pose in situ), so position inputs mean "displacement from rest" on every wire. The beam components are
    amplified: their excursions (~0.1) are tiny next to raw positions (~4 m) and would starve the network
    of steering sensitivity."""

    offset: np.ndarray  # (..., 9) rest observations, one per row
    scale: np.ndarray

    @classmethod
    def at_rest(cls, rest: np.ndarray, scale=None) -> "ObsNormalizer":
        """At rest at `rest`, with `scale`; scale None (a bare net, standardize_obs off) gives offset 0 and scale 1."""
        return cls(rest, scale) if scale is not None else cls(np.zeros_like(rest), np.ones(rest.shape[-1]))

    def manifest_entry(self) -> dict:
        return {"anchor": "env_rest", "scale": self.scale.tolist()}


def make_normalizer(env_cfg: EnvConfig) -> ObsNormalizer:
    """The rule of one environment of `env_cfg`, whose manifest_entry a checkpoint records."""
    return ObsNormalizer(offset=BeamTrackingEnv(env_cfg, seed=0).observe(), scale=OBS_SCALE.copy())


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

    fields = asdict(replace(cfg, proxy_checkpoint=None))
    if cfg.proxy_checkpoint is not None:
        fields["proxy_checkpoint"] = param_digest(_resolve_agent(cfg.proxy_checkpoint)[0])
    blob = json.dumps(fields, sort_keys=True, default=_jsonable)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return str(obj)


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
    EnvBatch, advanced a block at a time: the wire never depends on the
    tracker, so without adversaries a block is NOISE_BLOCK intervals, which
    one EnvBatch.advance call (one Integrator.advance call per substep group)
    steps, returning its times and station track, and whose steering-free
    link terms EnvBatch.geometry computes in one call; with any adversary,
    whose gusts read each step's observation, it is one interval. Step j of
    a block observes track row j - 1 (the previous block's last for j = 0):
    each stack of greedy players builds its inputs from that state and the
    beam direction of the kept steering, and runs one stacked QBlock forward
    per group of distinct greedy agents (trackers and adversaries alike)
    that share a trunk shape and a row count. Each step scores one
    EnvBatch.score call over each oracle row's five candidate beams, then
    every other row's chosen beam, keeping each oracle row's best. A random
    row draws each block's moves at once from its own action stream. A wire
    that diverges raises the SimulationDivergedError of a per-step loop,
    with the same time and points, only before the steps of its block are
    scored.

    Returns the (B,) average powers in dBm and, with `trajectory`, one list
    of rows (step, t, p_r_dbm, r_p, a_p, a_a, sbs_x, sbs_y, sbs_z, theta_s,
    phi_s) per environment, else None.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if len(seeds) == 0:
        raise ValueError("a rollout needs at least one row")
    if not len(policies) == len(physes) == len(seeds):
        raise ValueError("need one Policy and one PhysParams per seed")
    if not isinstance(adversary, (list, tuple)):
        adversary = [adversary] * len(seeds)
    elif len(adversary) != len(seeds):
        raise ValueError("need one adversary (or None) per seed")
    streams = [_eval_streams(seed) for seed in seeds]
    env = EnvBatch.of(env_cfg, physes, [stream[0] for stream in streams])
    rest = env.observe()

    # one player per distinct greedy agent (by identity): 0 for a tracker or 1 for an adversary, the rows it
    # plays, its net, and the offsets and scale of its inputs: the ObsNormalizer of its rows and recorded scale
    shared, trackers = {}, [p.checkpoint if p.kind is PolicyKind.GREEDY_DQN else None for p in policies]
    for slot, agents in enumerate((trackers, adversary)):
        for agent in {id(a): a for a in agents if a is not None}.values():
            own, (net, scale) = np.flatnonzero([a is agent for a in agents]), _resolve_agent(agent)
            if net.n_actions != (N_PROTAGONIST_ACTIONS, N_ADVERSARY_ACTIONS)[slot]:
                raise ValueError(
                    f"rollout row {own[0]}: its {('tracker', 'adversary')[slot]} has n_actions "
                    f"{net.n_actions}; trackers need {N_PROTAGONIST_ACTIONS}, adversaries {N_ADVERSARY_ACTIONS}"
                )
            norm = ObsNormalizer.at_rest(rest[own], scale)
            shared.setdefault((net.hidden, len(own)), []).append((slot, own, net, norm.offset, norm.scale))
    # players that share a trunk shape and a row count act through one stacked forward; sorted by slot, so
    # each head group is one slot's players: per group its (P, R) rows, (P, R, 9) offsets, (P, 1, 9) scales,
    # block and the (slot, (P_g, R) rows) that each head group's argmax is scattered to
    stacks = []
    for group in shared.values():
        slots, own, nets, offsets, scales = zip(*sorted(group, key=lambda player: player[0]))
        own, slots = np.array(own), np.array(slots)
        heads = [(slot, own[slots == slot]) for slot in np.unique(slots)]
        stacks.append((own, np.array(offsets), np.array(scales)[:, None], deepq.QBlock(nets), heads))

    kinds = np.array([p.kind for p in policies])
    randoms = np.flatnonzero(kinds == PolicyKind.RANDOM_UNIFORM)
    draws = [np.random.default_rng(streams[b][1]) for b in randoms]  # each random row's own action stream
    # the beams each step scores, on the wire state the step keeps: every oracle row's five moves, then every
    # other row's chosen move (rewritten per step); `pick` is each row's kept candidate, an oracle row's best
    oracles, others = np.flatnonzero(kinds == PolicyKind.UPPER_LIMIT), np.flatnonzero(kinds != PolicyKind.UPPER_LIMIT)
    scored = N_PROTAGONIST_ACTIONS * len(oracles)
    cand_rows = np.concatenate([np.repeat(oracles, N_PROTAGONIST_ACTIONS), others])
    cand_moves = np.concatenate([np.tile(np.arange(N_PROTAGONIST_ACTIONS), len(oracles)), np.zeros_like(others)])
    pick, first = np.empty(len(kinds), dtype=np.int64), np.arange(0, scored, N_PROTAGONIST_ACTIONS)
    pick[others] = np.arange(scored, len(cand_rows))
    a_p, a_a = chosen = np.zeros((2, len(kinds)), dtype=np.int64)  # views of `chosen`, written in place
    total = np.zeros(len(kinds))
    rows = [[] for _ in kinds]
    free = all(a is None for a in adversary)
    span = NOISE_BLOCK if free else 1
    state = np.concatenate([env.sbs_position, env.sbs_velocity], axis=-1)  # the station state a step observes
    for start in range(0, steps, span):
        intervals = min(span, steps - start)
        if free:  # advance through the block first: the wire never depends on the tracker
            times, track = env.advance(a_a, intervals)
        moves = np.reshape([rng.integers(N_PROTAGONIST_ACTIONS, size=intervals) for rng in draws], (-1, intervals))
        for j in range(intervals):
            for own, offset, scale, block, heads in stacks:
                inputs = (np.concatenate([state[own], beam_direction(*env.steer[own].T)], axis=-1) - offset) / scale
                for (slot, head_rows), q in zip(heads, block.forward(inputs)):
                    chosen[slot, head_rows] = np.argmax(q, axis=-1)
            a_p[randoms] = moves[:, j]

            if j == 0:  # the block's link terms on each candidate's row: (4, intervals, candidates)
                if not free:  # an adversary's gust reads this step's observation
                    times, track = env.advance(a_a)
                terms = np.stack(env.geometry(track[..., :3]))[..., cand_rows]
            cand_moves[scored:] = a_p[others]
            beams = env.steer[cand_rows] + env.moves[cand_moves]
            powers = env.score(terms[:, j], beams)
            best = np.argmax(powers[:scored].reshape(-1, N_PROTAGONIST_ACTIONS), axis=1)
            a_p[oracles], pick[oracles] = best, first + best
            env.steer, p_r, state = beams[pick], powers[pick], track[j]
            total += p_r

            if trajectory:
                for b, env_rows in enumerate(rows):
                    r_p = reward_from_power(p_r[b], env_cfg.clip_offset, env_cfg.clip_scale)
                    names = ProtagonistAction(a_p[b]).name.lower(), AdversaryAction(a_a[b]).name.lower()
                    env_rows.append((start + j, times[j], p_r[b], r_p, *names, *state[b, :3], *env.steer[b]))

    return total / steps, rows if trajectory else None


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


class _Run:
    """One run of a `train` call: its config, eight generators, agents (the tracker, then the
    adversary when it learns) with their replay and exploration streams, and its proxy (a given
    checkpoint, or the _Run that trains it); the loop fills in its block rows, the adversary
    probes that wait for a proxy and, unless the run only trains a proxy, its EpisodeRecords."""

    def __init__(self, cfg: TrainConfig):
        self.cfg, self.rows, self.records, self.waiting = cfg, [], [], []
        # One master seed fans out to fixed streams so that variants sharing a
        # seed see identical physics and protagonist exploration draws.
        init_p, init_a, phys, explore_p, self.explore_a, replay_p, replay_a, evals = (
            np.random.default_rng(stream) for stream in np.random.SeedSequence(cfg.seed).spawn(8)
        )
        self.phys_seeds = phys.integers(0, 2**63, size=cfg.episodes)
        self.eval_seeds = evals.integers(0, 2**63, size=(cfg.episodes, 2)).tolist()
        agents = [(N_PROTAGONIST_ACTIONS, init_p, replay_p, explore_p)]
        if cfg.variant == "rarl":
            agents.append((N_ADVERSARY_ACTIONS, init_a, replay_a, self.explore_a))
        self.nets = [deepq.init_qnetwork(n, rng, hidden=cfg.hidden, head_scale=cfg.head_init_scale)
                     for n, rng, *_ in agents]
        self.replay, self.explore = [rng for *_, rng, _ in agents], [rng for *_, rng in agents]
        # read a proxy path once, so that a file replaced mid-run cannot change the probe
        self.proxy = cfg.proxy_checkpoint
        if self.proxy is not None and not isinstance(self.proxy, (AgentCheckpoint, deepq.QNetwork)):
            self.proxy = load_checkpoint(self.proxy)
        elif self.proxy is None and cfg.variant == "rarl":
            self.proxy = _Run(replace(cfg, variant="no_adversary"))


def train(cfgs):
    """Run the two-agent training loop of one config, or of a list of S configs
    in lockstep; returns its TrainResult, or a list of them.

    Variants: "rarl" trains both agents, "no_adversary" has the adversary play
    STAY, which adds no wind, "random_adversary" keeps the wind but picks
    adversary actions uniformly at random without training a network. A
    "rarl" run probes its adversary against a frozen proxy tracker: the given
    proxy_checkpoint, else one it trains itself, the "no_adversary" run of its
    config, which runs without probes and comes back as TrainResult.proxy.

    The runs of one call step together: per episode one EnvBatch of their
    environments, per tick one stacked act over each learner's own state, one
    push of every learner's transition into one ReplayMemory (a ring per
    learner, sampled by the learner's own replay stream) and one QBlock.train
    of all rows on its stacked sample, and after each episode one rollout of
    every probe. Each run keeps its own generators, exploration draws and wire,
    its nets read the ObsNormalizer of their own rows, and each result has the
    bits of its config trained alone. Configs may differ only in seed, variant,
    proxy_checkpoint and wire physics, with one n_points for all (one learning
    rate and step count for the block, one capacity for the replay).
    Each run's EpisodeRecord is made when its episode ends; every probe writes
    its power into the record of the episode it scored, and the adversary
    probes of a run that trains its own proxy wait for the final proxy: all
    of them run in the last episode's rollout.
    """
    single = isinstance(cfgs, TrainConfig)
    cfgs = [cfgs] if single else list(cfgs)
    if not cfgs:
        raise ValueError("train needs at least one config")
    shared = [asdict(replace(c, proxy_checkpoint=None)) for c in cfgs]
    for fields in shared:  # of the wire physics, only the point count is shared
        fields["n_points"] = fields["env"].pop("phys")["n_points"]
    shared = [{k: json.dumps(v, default=_jsonable) for k, v in fields.items()} for fields in shared]
    for i, settings in enumerate(shared):
        if differ := [k for k, v in settings.items() if k not in ("seed", "variant") and v != shared[0][k]]:
            raise ValueError("the configs of one train call may differ only in seed, variant, proxy_checkpoint and"
                             f" wire physics; config {i} differs from config 0 in {', '.join(differ)}")
    cfg = cfgs[0]

    results = [_Run(c) for c in cfgs]
    runs = results + [run.proxy for run in results if isinstance(run.proxy, _Run)]
    # block rows: every run's tracker, then every learning adversary
    agents = [(i, 0) for i in range(len(runs))] + [(i, 1) for i, run in enumerate(runs) if len(run.nets) == 2]
    for k, (i, _) in enumerate(agents):
        runs[i].rows.append(k)
    block = deepq.QBlock([runs[i].nets[slot] for i, slot in agents], cfg.learning_rate)
    memory = deepq.ReplayMemory(cfg.replay_capacity, [runs[i].replay[slot] for i, slot in agents])
    explore = [runs[i].explore[slot] for i, slot in agents]
    envs = np.array([i for i, _ in agents])  # the environment of each row
    signs = np.array([-1.0 if slot else 1.0 for _, slot in agents])  # an adversary's reward is its tracker's, negated
    randoms = [i for i, run in enumerate(runs) if run.cfg.variant == "random_adversary"]
    a_a = np.zeros(len(runs), dtype=np.int64)  # STAY for the runs without an adversary
    losses = np.empty((len(agents), cfg.env.horizon))  # per row, of the ticks that trained

    nan, last = float("nan"), cfg.episodes - 1
    for ep in range(cfg.episodes):
        t0 = time.perf_counter()
        env = EnvBatch.of(cfg.env, [run.cfg.env.phys for run in runs], [run.phys_seeds[ep] for run in runs])
        norm, trained = ObsNormalizer.at_rest(env.observe(), OBS_SCALE if cfg.standardize_obs else None), 0
        probe_manifest = {"obs_norm": norm.manifest_entry() if cfg.standardize_obs else None}
        states = ((env.observe() - norm.offset) / norm.scale)[envs]
        for _ in range(cfg.env.horizon):
            actions = block.act(states, cfg.epsilon, explore)
            a_a[envs[len(runs) :]] = actions[len(runs) :]
            for i in randoms:
                a_a[i] = random_adversary_action(runs[i].explore_a)
            _, r_p = env.transition(actions[: len(runs)], a_a)
            next_states = ((env.observe() - norm.offset) / norm.scale)[envs]
            memory.push(states, actions, r_p[envs] * signs, next_states)
            if len(memory) >= cfg.batch_size:
                losses[:, trained] = block.train(memory.sample(cfg.batch_size), cfg.gamma)
                trained += 1
            states = next_states

        synced = (ep + 1) % cfg.target_period == 0
        if synced:
            block.sync_target()

        # each run's record (the adversary's loss is NaN unless it learns), and one rollout whose probes fill in
        # its powers: each tracker, wind off; each rarl adversary, as a copy, against its proxy once that is
        # final. Every row has its own agent object, so that each acts through a forward of one row.
        rows = []  # (tracker, adversary, seed, run, record, power field)
        for run in results:
            means = [float(losses[k, :trained].mean()) if trained else nan for k in run.rows] + [nan, nan]
            record = EpisodeRecord(ep + 1, nan, nan, *means[:2], nan, *run.eval_seeds[ep], synced)
            run.records.append(record)
            probes = [AgentCheckpoint(block.nets[k], manifest=probe_manifest) for k in run.rows]
            rows.append((probes[0], None, record.p4_seed, run, record, "protagonist_avg_power"))
            if len(probes) == 2:  # the adversary learns
                run.waiting.append((AgentCheckpoint(probes[1].net.copy(), manifest=probe_manifest), record))
            proxy = run.proxy
            if isinstance(proxy, _Run):  # final after the last episode
                proxy = AgentCheckpoint(block.nets[proxy.rows[0]], manifest=probe_manifest) if ep == last else None
            if proxy is not None:
                rows += [(copy.copy(proxy), adversary, waited.p5_seed, run, waited, "adversary_check_avg_power")
                         for adversary, waited in run.waiting]
                run.waiting = []
        trackers, adversaries, seeds, owners, *_ = zip(*rows)
        policies = [Policy(PolicyKind.GREEDY_DQN, tracker) for tracker in trackers]
        avg, _ = rollout(policies, cfg.env, [r.cfg.env.phys for r in owners], seeds, cfg.test_steps, adversary=adversaries)
        for (*_, record, name), power in zip(rows, avg):
            setattr(record, name, float(power))
        clock = time.perf_counter() - t0
        for run in results:
            run.records[ep].wall_clock = clock

    def result(run, own_proxy=None):
        """The TrainResult of `run`, which trained `own_proxy` (a checkpoint) if it trained one."""
        manifest = {
            "variant": run.cfg.variant,
            "seed": run.cfg.seed,
            "episodes": cfg.episodes,
            "config_hash": config_fingerprint(replace(run.cfg, proxy_checkpoint=own_proxy or run.proxy)),
            "obs_norm": probe_manifest["obs_norm"],
        }
        nets, adams = [block.nets[k] for k in run.rows], [block.adams[k] for k in run.rows]
        ckpts = [
            AgentCheckpoint(net, adam, {"agent": name, "n_actions": net.n_actions, **manifest})
            for name, net, adam in zip(("protagonist", "adversary"), nets, adams)
        ]
        return TrainResult(ckpts[0], ckpts[1] if len(ckpts) == 2 else None, run.records, own_proxy)

    out = [result(run, result(run.proxy).protagonist if isinstance(run.proxy, _Run) else None) for run in results]
    return out[0] if single else out
