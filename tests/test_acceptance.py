"""Acceptance suite: one test per release criterion, each printing a
PASS line with its runtime when it holds (run pytest -s to see them)."""

import copy
import time

import numpy as np
import pytest
from dataclasses import replace

import wirebeam as wb
from wirebeam.config import train_config_from_text
from wirebeam.deepq import init_qnetwork, loss_and_gradients
from wirebeam.env import AdversaryAction, BeamTrackingEnv, ProtagonistAction
from wirebeam.rarl import Policy, PolicyKind, random_adversary_action, rollout, run_policy
from conftest import STOCK_SEEDS, tensile_acceleration

BORESIGHT_GAIN = 38.103
STATIC_POWER_LIMIT = 0.05
ROBUSTNESS_EVAL_SEED = 9090


def report(n, elapsed, detail):
    print(f"\nACCEPTANCE {n}: PASS ({elapsed:.3f}s) {detail}")


def test_criterion_1_boresight_gain():
    cfg = wb.AntennaConfig()
    wb.tx_gain(90.0, 0.0, 90.0, 0.0, cfg)  # warm up
    t0 = time.perf_counter()
    gain = wb.tx_gain(90.0, 0.0, 90.0, 0.0, cfg)
    elapsed = time.perf_counter() - t0
    assert abs(gain - BORESIGHT_GAIN) < 0.01
    assert elapsed < 1e-3
    report(1, elapsed, f"boresight gain {gain:.4f} dB (target 38.103 +/- 0.01)")


def test_criterion_2_first_array_null():
    t0 = time.perf_counter()
    cfg = wb.AntennaConfig()
    az = np.arange(0.01, 8.0001, 0.01)
    at = wb.tx_gain(90.0, az, 90.0, 0.0, cfg)
    local = np.nonzero((at[1:-1] < at[:-2]) & (at[1:-1] < at[2:]))[0]
    first_null = az[local[0] + 1]
    elapsed = time.perf_counter() - t0
    assert abs(first_null - 3.58) <= 0.1
    assert elapsed < 1.0
    report(2, elapsed, f"first azimuth null at {first_null:.2f} deg (target 3.58 +/- 0.1)")


def test_criterion_3_static_link_budget():
    cfg = wb.EnvConfig(phys=wb.PhysParams(wind_cov=np.zeros((3, 3))), ambient_wind=False)
    env = BeamTrackingEnv(cfg, seed=0)
    env.received_power_now()  # warm up
    timings = []
    for _ in range(5):  # the best of five calls times the code, not the load on a shared host
        t0 = time.perf_counter()
        power = env.received_power_now()
        timings.append(time.perf_counter() - t0)
    elapsed = min(timings)
    assert abs(power - (-12.87)) <= STATIC_POWER_LIMIT
    assert elapsed < 1e-3
    # the static value survives stepping the frozen environment
    for _ in range(20):
        _, _, _, p = env.step(ProtagonistAction.STAY, AdversaryAction.STAY)
    assert abs(p - (-12.87)) <= STATIC_POWER_LIMIT
    report(3, elapsed, f"static received power {power:.4f} dBm (target -12.87 +/- 0.05)")


def test_criterion_4_wire_equilibrium():
    t0 = time.perf_counter()
    params = wb.PhysParams()
    eq = wb.equilibrium_shape(params)

    # independent tridiagonal oracle: dense solve of the second-difference system
    n = params.n_points
    n_int = n - 2
    a = np.diag(-2.0 * np.ones(n_int)) + np.diag(np.ones(n_int - 1), 1) + np.diag(np.ones(n_int - 1), -1)
    oracle = np.empty((n, 3))
    oracle[0], oracle[-1] = params.endpoint_a, params.endpoint_b
    for axis in range(3):
        rhs = np.full(n_int, -params.gravity[axis] * params.total_mass / (params.spring_constant * n))
        rhs[0] -= params.endpoint_a[axis]
        rhs[-1] -= params.endpoint_b[axis]
        oracle[1:-1, axis] = np.linalg.solve(a, rhs)

    sag = 5.0 - eq.positions[5][2]
    sag_oracle = 5.0 - oracle[5][2]
    residual = max(
        np.linalg.norm(tensile_acceleration(eq, i, params)) for i in range(1, n - 1)
    )
    elapsed = time.perf_counter() - t0
    assert abs(sag - sag_oracle) < 1e-9
    assert abs(sag - 1.1136363636363635) < 1e-9
    assert residual < 1e-9
    report(4, elapsed, f"midpoint sag {sag:.10f} m, residual {residual:.2e} m/s^2")


def test_criterion_5_gradient_correctness():
    t0 = time.perf_counter()
    h = 1e-5

    def fd_check(net, tgt, batch, gamma, coords):
        grad = loss_and_gradients(net, tgt, batch, gamma)[1].copy()  # the net's buffer, reused below
        worst = 0.0
        for i in coords:
            orig = net.flat[i]
            net.flat[i] = orig + h
            lp = loss_and_gradients(net, tgt, batch, gamma)[0]
            net.flat[i] = orig - h
            lm = loss_and_gradients(net, tgt, batch, gamma)[0]
            net.flat[i] = orig
            g_fd = (lp - lm) / (2 * h)
            g_an = float(grad[i])
            rel = abs(g_fd - g_an) / max(abs(g_fd), abs(g_an), 1e-6)
            worst = max(worst, rel)
            assert rel < 1e-4
        return worst

    # thinned 9 -> 4 -> (1, 5) net: every parameter
    rng = np.random.default_rng(42)
    net = init_qnetwork(5, rng, hidden=(4,))
    tgt = init_qnetwork(5, rng, hidden=(4,))
    batch = (rng.normal(size=(8, 9)), rng.integers(0, 5, 8), rng.uniform(-1, 1, 8), rng.normal(size=(8, 9)))
    worst_thin = fd_check(net, tgt, batch, 0.9, range(net.flat.size))

    # full 9 -> 32x4 -> (1, 7) net: 200 random parameters across all layers
    net_f = init_qnetwork(7, rng)
    tgt_f = init_qnetwork(7, rng)
    batch_f = (rng.normal(size=(16, 9)), rng.integers(0, 7, 16), rng.uniform(-1, 1, 16), rng.normal(size=(16, 9)))
    # flat order is parameters() in C order, the order the coordinates were once listed in
    picks = rng.choice(net_f.flat.size, size=200, replace=False)
    worst_full = fd_check(net_f, tgt_f, batch_f, 0.99, picks)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, elapsed, f"worst rel err: thinned {worst_thin:.2e}, full-net subset {worst_full:.2e}")


def test_criterion_6_reward_contract_properties():
    t0 = time.perf_counter()
    cfg = wb.EnvConfig(horizon=1000)
    rng = np.random.default_rng(606)

    def rollout(seed):
        env = BeamTrackingEnv(cfg, seed=seed)
        ends = (env.wire_state.positions[0].copy(), env.wire_state.positions[-1].copy())
        log = []
        for _ in range(cfg.horizon):
            prev = env.steer.copy()
            a_p = ProtagonistAction(int(rng.integers(5)))
            a_a = AdversaryAction(int(rng.integers(7)))
            obs, r_p, r_a, p_r = env.step(a_p, a_a)
            assert -1.0 <= r_p <= 1.0
            assert r_a == -r_p
            assert sorted(abs(env.steer - prev)) in ([0.0, 0.0], [0.0, cfg.beta])
            log.append((obs, p_r))
        assert np.array_equal(env.wire_state.positions[0], ends[0])
        assert np.array_equal(env.wire_state.positions[-1], ends[1])
        return log

    for seed in range(5):
        rollout(seed)  # 5 x 1000 randomized steps

    # bitwise determinism over a full randomized episode
    actions = [(int(i % 5), int((3 * i) % 7)) for i in range(1000)]

    def replay(seed):
        env = BeamTrackingEnv(cfg, seed=seed)
        out = []
        for a_p, a_a in actions:
            obs, _, _, p = env.step(ProtagonistAction(a_p), AdversaryAction(a_a))
            out.append((obs, p))
        return out

    for (va, pa), (vb, pb) in zip(replay(99), replay(99)):
        assert np.array_equal(va, vb) and pa == pb

    # 5000 property steps + 2x1000 determinism steps + 3000 more properties
    for seed in range(5, 8):
        rollout(seed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(6, elapsed, "10^4 randomized steps: bounds, zero-sum, single-angle, pinning, determinism")


@pytest.mark.slow
def test_criterion_7_learning_sanity(training_stock):
    t0 = time.perf_counter()
    cfg = train_config_from_text("")
    final5 = {seed: training_stock[seed]["rarl"].records[-5:] for seed in STOCK_SEEDS}
    learned = {seed: float(np.mean([r.protagonist_avg_power for r in recs])) for seed, recs in final5.items()}

    # the baselines under every seed's final-5 evaluation seeds, in one rollout
    probes = [rec.p4_seed for recs in final5.values() for rec in recs]
    policies = [Policy(kind) for kind in (PolicyKind.STAY, PolicyKind.UPPER_LIMIT) for _ in probes]
    avg, _ = rollout(policies, cfg.env, [cfg.env.phys] * len(policies), probes * 2, cfg.test_steps)
    stay, upper = (
        {seed: float(np.mean(row)) for seed, row in zip(STOCK_SEEDS, half.reshape(len(STOCK_SEEDS), 5))}
        for half in avg.reshape(2, -1)
    )

    elapsed = time.perf_counter() - t0
    seed = STOCK_SEEDS[0]
    learned_mean, stay_mean, upper_mean = learned[seed], stay[seed], upper[seed]
    assert learned_mean > stay_mean, f"learned {learned_mean:.2f} <= stay {stay_mean:.2f}"
    assert learned_mean >= upper_mean - 3.0, (
        f"learned {learned_mean:.2f} more than 3 dB below upper {upper_mean:.2f}"
    )
    # the other stock seeds are printed, not asserted: a seed outside the bounds is a finding
    outside = [s for s in STOCK_SEEDS if not stay[s] < learned[s] >= upper[s] - 3.0]
    per_seed = ", ".join(f"{s}: {learned[s]:.2f} / {stay[s]:.2f} / {upper[s]:.2f}" for s in STOCK_SEEDS)
    report(
        7,
        elapsed,
        f"seed {seed}: final-5 mean {learned_mean:.2f} dBm vs stay {stay_mean:.2f}, upper {upper_mean:.2f} "
        f"(gap {upper_mean - learned_mean:.2f} dB); every seed, learned / stay / upper: {per_seed}; "
        f"outside the bounds: {outside or 'none'}",
    )


@pytest.mark.slow
def test_criterion_8_zero_shot_robustness(training_stock):
    t0 = time.perf_counter()
    base = train_config_from_text("")
    soft_wire = replace(base.env.phys, spring_constant=10.0)  # unseen during training
    eval_cfg = replace(base.env, phys=soft_wire)

    # the ten trackers, each on its own row of one rollout: every row has the bits it has alone
    trackers = [training_stock[seed]["rarl"].protagonist for seed in STOCK_SEEDS]
    trackers += [training_stock[seed]["no_adversary"] for seed in STOCK_SEEDS]
    policies = [Policy(PolicyKind.GREEDY_DQN, net) for net in trackers]
    avg, _ = rollout(policies, eval_cfg, [soft_wire] * len(policies), [ROBUSTNESS_EVAL_SEED] * len(policies), 1000)
    rarl_scores, no_adv_scores = avg.reshape(2, len(STOCK_SEEDS)).tolist()
    med_rarl = float(np.median(rarl_scores))
    med_no_adv = float(np.median(no_adv_scores))
    elapsed = time.perf_counter() - t0
    assert med_rarl >= med_no_adv, f"median rarl {med_rarl:.2f} < no-adversary {med_no_adv:.2f}"
    # the baselines on the same wire and eval seed, for scale (no assert)
    oracle, stay = (
        float(rollout([Policy(kind)], eval_cfg, [soft_wire], [ROBUSTNESS_EVAL_SEED], 1000)[0][0])
        for kind in (PolicyKind.UPPER_LIMIT, PolicyKind.STAY)
    )
    report(
        8,
        elapsed,
        f"at k0=10 N/m: median rarl {med_rarl:.2f} dBm >= no-adversary {med_no_adv:.2f} dBm "
        f"(full-scale anchors -13.2 vs -14.5); on this wire upper_limit {oracle:.2f} dBm, "
        f"stay {stay:.2f} dBm",
    )


@pytest.mark.slow
def test_criterion_8_on_a_wire_resting_above_ground(training_stock):
    # beside criterion 8: at k0 = 50 N/m the station rests above the ground plane and the oracle still tracks
    t0 = time.perf_counter()
    base = train_config_from_text("")
    wire = replace(base.env.phys, spring_constant=50.0)  # unseen during training
    eval_cfg = replace(base.env, phys=wire)
    rest_z = float(wb.equilibrium_shape(wire).positions[eval_cfg.sbs_index, 2])
    eval_seeds = list(range(ROBUSTNESS_EVAL_SEED, ROBUSTNESS_EVAL_SEED + 10))

    variants = ("rarl", "no_adversary")
    trackers = [training_stock[seed]["rarl"].protagonist for seed in STOCK_SEEDS]
    trackers += [training_stock[seed]["no_adversary"] for seed in STOCK_SEEDS]
    policies = [Policy(PolicyKind.GREEDY_DQN, net) for net in trackers for _ in eval_seeds]
    avg, _ = rollout(policies, eval_cfg, [wire] * len(policies), eval_seeds * len(trackers), 1000)
    means = avg.reshape(len(variants), len(STOCK_SEEDS), len(eval_seeds)).mean(axis=2)  # per stock seed
    med_rarl, med_no_adv = (float(m) for m in np.median(means, axis=1))
    elapsed = time.perf_counter() - t0
    assert rest_z > 0.0, f"station rests at z = {rest_z:.2f} m, below the ground plane"
    assert med_rarl >= med_no_adv, f"median rarl {med_rarl:.2f} < no-adversary {med_no_adv:.2f}"
    deltas = " / ".join(f"{d:+.2f}" for d in means[0] - means[1])
    report(
        "8 (k0=50 N/m)",
        elapsed,
        f"rest_z_m {rest_z:.2f}: median of seed means rarl {med_rarl:.2f} dBm >= no-adversary "
        f"{med_no_adv:.2f} dBm over eval seeds {eval_seeds[0]}-{eval_seeds[-1]}; rarl - no-adversary "
        f"per stock seed {', '.join(map(str, STOCK_SEEDS))}: {deltas} dB",
    )


def test_criterion_9_baseline_identities(small_env_cfg):
    t0 = time.perf_counter()

    # upper limit == exhaustive five-action maximum, 1000 steps
    steps, seed = 1000, 909
    cfg = replace(small_env_cfg, horizon=steps)
    _, rows = run_policy(Policy(PolicyKind.UPPER_LIMIT), cfg, steps, seed)
    from wirebeam.rarl import _eval_streams

    env_stream, _ = _eval_streams(seed)
    env = BeamTrackingEnv(cfg, seed=env_stream)
    for k in range(steps):
        best, best_p = None, -np.inf
        for a in ProtagonistAction:
            clone = copy.deepcopy(env)
            _, _, _, p = clone.step(a, AdversaryAction.STAY)
            if p > best_p:
                best, best_p = a, p
        assert rows[k][4] == best.name.lower()
        env.step(best, AdversaryAction.STAY)

    # random adversary frequencies uniform within 3 sigma over 1e5 draws
    rng = np.random.default_rng(7654)
    n = 100_000
    counts = np.bincount([random_adversary_action(rng) for _ in range(n)], minlength=7)
    p = 1.0 / 7.0
    bound = 3.0 * np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) < bound)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    spread = int(counts.max() - counts.min())
    report(9, elapsed, f"brute-force identity over {steps} steps; adversary draw spread {spread}")
