import time

import numpy as np
import pytest
from scipy import stats

from wirebeam import deepq
from wirebeam.deepq import (
    AdamState,
    NumericError,
    QBlock,
    QNetwork,
    ReplayMemory,
    act_epsilon_greedy,
    forward,
    huber,
    init_qnetwork,
    loss_and_gradients,
    sync_target,
    train_batch,
)
from conftest import ReferenceReplay


def zero_net(n_actions=5, hidden=(4,)):
    rng = np.random.default_rng(0)
    net = init_qnetwork(n_actions, rng, hidden=hidden)
    for p in net.parameters():
        p[...] = 0.0
    return net


def random_batch(rng, n=32, n_actions=5):
    return (
        rng.normal(size=(n, 9)),
        rng.integers(0, n_actions, n),
        rng.uniform(-1, 1, n),
        rng.normal(size=(n, 9)),
    )


class TestForward:
    def test_zero_weights_give_zero_q(self):
        net = zero_net()
        np.testing.assert_array_equal(forward(net, np.ones(9)), np.zeros(5))

    def test_constant_advantage_cancels(self):
        # shifting every advantage output by c leaves Q untouched;
        # shifting the value bias by c shifts every Q by exactly c
        rng = np.random.default_rng(1)
        net = init_qnetwork(5, rng)
        s = rng.normal(size=9)
        q0 = forward(net, s)
        net.adv_b += 3.7
        np.testing.assert_allclose(forward(net, s), q0, atol=1e-12)
        net.value_b += 2.5
        np.testing.assert_allclose(forward(net, s), q0 + 2.5, atol=1e-12)

    def test_matches_stepwise_matrix_oracle(self):
        # independent re-computation with explicit loops and dot products
        rng = np.random.default_rng(2)
        net = init_qnetwork(7, rng)
        s = rng.normal(size=9)

        h = s
        for w, b in zip(net.trunk_w, net.trunk_b):
            z = np.array([np.dot(h, w[:, j]) + b[j] for j in range(w.shape[1])])
            h = np.where(z > 0, z, 0.0)
        v = np.dot(h, net.value_w[:, 0]) + net.value_b[0]
        a = np.array([np.dot(h, net.adv_w[:, j]) + net.adv_b[j] for j in range(7)])
        expected = v + a - a.mean()

        np.testing.assert_allclose(forward(net, s), expected, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        net = init_qnetwork(5, rng)
        states = rng.normal(size=(6, 9))
        batched = forward(net, states)
        for i in range(6):
            np.testing.assert_allclose(batched[i], forward(net, states[i]), atol=1e-15)

    def test_nonfinite_activation_reported_with_layer(self):
        net = zero_net(hidden=(4, 4))
        net.trunk_w[1][0, 0] = np.inf
        net.trunk_b[0][0] = 1.0
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="trunk layer 1"):
            forward(net, np.ones(9))

    def test_action_count_restricted(self):
        with pytest.raises(ValueError):
            init_qnetwork(4, np.random.default_rng(0))


class TestActEpsilonGreedy:
    def test_greedy_is_argmax(self):
        net = zero_net()
        net.adv_b[:] = [0.0, 1.0, 0.0, 0.0, 0.0]
        rng = np.random.default_rng(0)
        assert act_epsilon_greedy(net, np.zeros(9), 0.0, rng) == 1

    def test_ties_break_to_lowest_index(self):
        net = zero_net()
        net.adv_b[:] = [0.0, 2.0, 2.0, 0.0, 0.0]
        assert act_epsilon_greedy(net, np.zeros(9), 0.0, np.random.default_rng(0)) == 1
        net.adv_b[:] = 0.0
        assert act_epsilon_greedy(net, np.zeros(9), 0.0, np.random.default_rng(0)) == 0

    def test_full_exploration_is_uniform(self):
        net = zero_net()
        rng = np.random.default_rng(5)
        n = 100_000
        counts = np.bincount(
            [act_epsilon_greedy(net, np.zeros(9), 1.0, rng) for _ in range(n)], minlength=5
        )
        p = 1.0 / 5.0
        bound = 3.0 * np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) < bound)


class TestHuber:
    def test_reference_values(self):
        assert huber(0.0) == 0.0
        assert huber(1.0) == 0.5
        assert huber(-1.0) == 0.5
        assert huber(3.0) == 2.5
        assert huber(-3.0) == 2.5
        assert huber(0.5) == pytest.approx(0.125)

    def test_gradient_globally_bounded(self):
        xs = np.linspace(-50, 50, 10_001)
        assert np.all(np.abs(deepq._huber_grad(xs)) <= 1.0)

    def test_continuous_at_knee(self):
        assert huber(1.0 - 1e-12) == pytest.approx(huber(1.0 + 1e-12), abs=1e-9)


class TestTrainBatch:
    def test_zero_gradient_is_noop(self):
        # gamma = 0 and rewards equal to the current Q of the taken action:
        # zero TD error everywhere, so Adam must not move any parameter
        rng = np.random.default_rng(7)
        net = init_qnetwork(5, rng)
        tgt = net.copy()
        states = rng.normal(size=(16, 9))
        actions = rng.integers(0, 5, 16)
        rewards = forward(net, states)[np.arange(16), actions]
        batch = (states, actions, rewards, rng.normal(size=(16, 9)))
        before = [p.copy() for p in net.parameters()]
        adam = AdamState.init_like(net)
        loss = train_batch(net, tgt, batch, 0.0, adam)
        assert loss == 0.0
        assert adam.step_count == 1
        for p, b in zip(net.parameters(), before):
            np.testing.assert_array_equal(p, b)

    def test_gradients_match_finite_differences_thinned(self):
        rng = np.random.default_rng(8)
        net = init_qnetwork(5, rng, hidden=(4,))
        tgt = init_qnetwork(5, rng, hidden=(4,))
        batch = random_batch(rng, n=8)
        gamma = 0.9
        grad = loss_and_gradients(net, tgt, batch, gamma)[1].copy()  # the net's buffer, reused below
        assert grad.shape == net.flat.shape

        h = 1e-5
        for i in range(net.flat.size):
            orig = net.flat[i]
            net.flat[i] = orig + h
            lp = loss_and_gradients(net, tgt, batch, gamma)[0]
            net.flat[i] = orig - h
            lm = loss_and_gradients(net, tgt, batch, gamma)[0]
            net.flat[i] = orig
            g_fd = (lp - lm) / (2 * h)
            g_an = float(grad[i])
            denom = max(abs(g_fd), abs(g_an), 1e-6)
            assert abs(g_fd - g_an) / denom < 1e-4

    def test_adam_matches_per_array_reference(self):
        # the whole-vector update repeats the per-array arithmetic in the same order
        rng = np.random.default_rng(22)
        net = init_qnetwork(5, rng, hidden=(8, 8))
        tgt = init_qnetwork(5, rng, hidden=(8, 8))
        adam = AdamState.init_like(net)
        ref = [p.copy() for p in net.parameters()]
        ms, vs = [np.zeros_like(p) for p in ref], [np.zeros_like(p) for p in ref]
        for t in range(1, 4):
            _, grad = loss_and_gradients(net, tgt, random_batch(rng), 0.9)
            grads = [grad[off : off + p.size].reshape(p.shape) for (_, _, off), p in zip(net.layout, ref)]
            for p, g, m, v in zip(ref, grads, ms, vs):
                m *= adam.beta1
                m += (1.0 - adam.beta1) * g
                v *= adam.beta2
                v += (1.0 - adam.beta2) * g * g
                p -= adam.learning_rate * (m / (1.0 - adam.beta1**t)) / (np.sqrt(v / (1.0 - adam.beta2**t)) + adam.epsilon)
            adam.step_count += 1
            deepq._adam_step(net.flat, grad, adam.first_moment, adam.second_moment, adam)
            for p, r in zip(net.parameters(), ref):
                np.testing.assert_array_equal(p, r)
        np.testing.assert_array_equal(adam.first_moment, np.concatenate([m.ravel() for m in ms]))

    def test_overfit_single_batch_monotone(self):
        rng = np.random.default_rng(11)
        net = init_qnetwork(5, rng)
        tgt = net.copy()
        adam = AdamState.init_like(net)
        batch = random_batch(rng)
        losses = [train_batch(net, tgt, batch, 0.0, adam) for _ in range(100)]
        assert np.all(np.diff(losses) < 0)
        assert losses[-1] < 0.01 * losses[0]

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(0)
        net = init_qnetwork(5, rng)
        with pytest.raises(ValueError):
            train_batch(net, net.copy(), (np.zeros((0, 9)), np.zeros(0, int), np.zeros(0), np.zeros((0, 9))), 0.9, AdamState.init_like(net))

    def test_bitwise_training_determinism(self):
        def run():
            rng = np.random.default_rng(13)
            net = init_qnetwork(5, rng)
            tgt = net.copy()
            adam = AdamState.init_like(net)
            for _ in range(50):
                train_batch(net, tgt, random_batch(rng), 0.99, adam)
            return net

        a, b = run(), run()
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)


class TestSyncTarget:
    def test_copy_semantics(self):
        rng = np.random.default_rng(14)
        net = init_qnetwork(5, rng)
        tgt = init_qnetwork(5, np.random.default_rng(15))
        sync_target(net, tgt)
        states = rng.normal(size=(100, 9))
        np.testing.assert_array_equal(forward(net, states), forward(tgt, states))
        # mutating the source afterwards leaves the target untouched
        assert not np.shares_memory(tgt.flat, net.flat)
        snapshot = [p.copy() for p in tgt.parameters()]
        for p in net.parameters():
            p += 1.0
        for p, s in zip(tgt.parameters(), snapshot):
            np.testing.assert_array_equal(p, s)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sync_target(init_qnetwork(5, rng), init_qnetwork(7, rng))
        # 9 -> 4 -> 4 and 9 -> 7 -> 1 both hold 90 parameters
        a, b = init_qnetwork(5, rng, hidden=(4, 4)), init_qnetwork(5, rng, hidden=(7, 1))
        assert a.flat.size == b.flat.size
        with pytest.raises(ValueError, match="layout"):
            sync_target(a, b)


class TestQBlock:
    """A block of K networks must give every row the bits of the K = 1 calls."""

    @staticmethod
    def mixed_block(rng, counts=(5, 5, 7)):
        nets = [init_qnetwork(n, rng) for n in counts]
        return nets, QBlock([net.copy() for net in nets], learning_rate=3e-3)

    def test_rows_match_single_network_calls(self):
        rng = np.random.default_rng(30)
        singles, block = self.mixed_block(rng)
        targets = [net.copy() for net in singles]
        adams = [AdamState.init_like(net, 3e-3) for net in singles]
        sizes = [net.flat.size for net in singles]
        assert block.flat.shape == (2, 3, max(sizes)) and sizes[0] < sizes[2]
        for step in range(100):
            batches = [random_batch(rng, n_actions=net.n_actions) for net in singles]
            losses = block.train(tuple(np.array(part) for part in zip(*batches)), 0.97)
            for k, (net, target, adam, batch) in enumerate(zip(singles, targets, adams, batches)):
                loss, grad = loss_and_gradients(net, target, batch, 0.97)
                assert losses[k] == loss
                assert block.grad[k, : sizes[k]].tobytes() == grad.tobytes()
                adam.step_count += 1
                deepq._adam_step(net.flat, grad, adam.first_moment, adam.second_moment, adam)
                assert block.nets[k].flat.tobytes() == net.flat.tobytes()
                assert block.adams[k].first_moment.tobytes() == adam.first_moment.tobytes()
                assert block.adams[k].second_moment.tobytes() == adam.second_moment.tobytes()
                assert block.adams[k].step_count == adam.step_count == step + 1
            if step % 10 == 9:
                block.sync_target()
                for net, target in zip(singles, targets):
                    sync_target(net, target)
            for batch_size in (1, 6):
                states = rng.normal(size=(3, batch_size, 9))
                groups = block.forward(states)  # one array per head group: rows (0, 1) of 5 actions, row 2 of 7
                assert [q.shape for q in groups] == [(2, batch_size, 5), (1, batch_size, 7)]
                for k, q in enumerate(row for group in groups for row in group):
                    assert q.tobytes() == forward(singles[k], states[k]).tobytes()
        for k, size in enumerate(sizes):  # the padding of the 5-action rows never moves
            assert not block.flat[:, k, size:].any() and not block.grad[k, size:].any()
            assert not block.moments[:, k, size:].any()
        assert block.flat[:, 0, sizes[0]:].size > 0

    def test_rows_are_views_for_checkpoints(self):
        _, block = self.mixed_block(np.random.default_rng(31))
        for k, (net, adam) in enumerate(zip(block.nets, block.adams)):
            assert np.shares_memory(net.flat, block.flat[0, k])
            assert np.shares_memory(adam.first_moment, block.moments[0, k])
            assert np.shares_memory(adam.second_moment, block.moments[1, k])

    def test_act_matches_act_epsilon_greedy(self):
        rng = np.random.default_rng(32)
        singles, block = self.mixed_block(rng, counts=(5, 7))
        streams = [np.random.default_rng(s) for s in (1, 2)], [np.random.default_rng(s) for s in (1, 2)]
        for _ in range(200):
            state = rng.normal(size=9)
            expected = [act_epsilon_greedy(net, state, 0.5, r) for net, r in zip(singles, streams[0])]
            assert block.act(state, 0.5, streams[1]) == expected
        assert [r.random() for r in streams[0]] == [r.random() for r in streams[1]]

    def test_mixed_layouts_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="hidden"):
            QBlock([init_qnetwork(5, rng), init_qnetwork(7, rng, hidden=(32, 32))])

    def test_nonfinite_q_raised_only_for_a_greedy_agent(self):
        rng = np.random.default_rng(33)
        _, block = self.mixed_block(rng, counts=(5, 7))
        block.nets[1].trunk_w[2][...] = np.inf  # the adversary row turns non-finite in trunk layer 2
        state = rng.normal(size=9)
        # first draws: 0.51 for seed 1 (acts greedily at epsilon 0.5), 0.26 for seed 2 (explores)
        assert block.act(state, 1.0, [np.random.default_rng(0), np.random.default_rng(0)])[1] < 7
        with np.errstate(invalid="ignore"):  # the explored row is computed, but not checked
            greedy_tracker = block.act(state, 0.5, [np.random.default_rng(1), np.random.default_rng(2)])
        assert greedy_tracker[0] == int(np.argmax(forward(block.nets[0], state)))
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="trunk layer 2"):
            block.act(state, 0.5, [np.random.default_rng(2), np.random.default_rng(1)])
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="trunk layer 2"):
            block.act(state, 0.0, [np.random.default_rng(0), np.random.default_rng(0)])

    def test_nonfinite_forward_names_the_network(self):
        rng = np.random.default_rng(34)
        _, block = self.mixed_block(rng)
        block.nets[1].value_w[0, 0] = np.nan  # second network of the (5, 5, 7) block, same head group as the first
        x = rng.normal(size=(3, 4, 9))
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="^network 1: .*value head"):
            block.forward(x)
        q01, q2 = block.forward(x, check=[0, 2])
        assert np.isnan(q01[1]).all() and np.isfinite(q01[0]).all() and np.isfinite(q2[0]).all()


class TestFlatLayout:
    def test_parameters_are_views_into_flat(self):
        rng = np.random.default_rng(19)
        net = init_qnetwork(5, rng)
        params = net.parameters()
        assert [p.size for p in params] == [int(np.prod(shape)) for _, shape, _ in net.layout]
        assert sum(p.size for p in params) == net.flat.size
        np.testing.assert_array_equal(np.concatenate([p.ravel() for p in params]), net.flat)
        s = rng.normal(size=9)
        q0 = forward(net, s)
        net.value_b[0] += 2.5  # write through a view
        assert net.flat[net.layout[-3][2]] == net.value_b[0]
        np.testing.assert_allclose(forward(net, s), q0 + 2.5, atol=1e-12)
        params[0][0, 0] = 7.0
        assert net.flat[0] == 7.0 and net.trunk_w[0][0, 0] == 7.0

    def test_copy_has_independent_storage(self):
        net = init_qnetwork(7, np.random.default_rng(20))
        twin = net.copy()
        np.testing.assert_array_equal(twin.flat, net.flat)
        assert not np.shares_memory(twin.flat, net.flat)
        assert twin.adv_w.base is twin.flat
        twin.adv_b[:] = 1.0
        assert not np.any(net.adv_b == 1.0)


def ring(rng, capacity):
    """A replay of one ring (K = 1)."""
    return ReplayMemory(capacity, [rng])


class TestReplayMemory:
    def test_fifo_eviction(self):
        mem = ring(np.random.default_rng(0), capacity=2)
        for r, tag in zip((0.1, 0.2, 0.3), "abc"):
            mem.push(np.full((1, 9), r), [0], [r], np.zeros((1, 9)))
        assert len(mem) == 2
        draws = [mem.sample(2) for _ in range(100)]
        states, rewards = (np.concatenate([d[i][0] for d in draws]) for i in (0, 2))
        assert set(rewards.tolist()) == {0.2, 0.3}  # the oldest transition is gone
        np.testing.assert_array_equal(states[:, 0], rewards)

    def test_sampling_uniformity_chi_square(self):
        # 1e5 draws from 10 stored items (chunked: a draw never exceeds the
        # current memory size)
        mem = ring(np.random.default_rng(16), capacity=100)
        for i in range(10):
            mem.push(np.full((1, 9), float(i)), [i % 5], [0.0], np.zeros((1, 9)))
        draws = np.concatenate([mem.sample(10)[0][0, :, 0] for _ in range(10_000)])
        counts = np.bincount(draws.astype(int), minlength=10)
        assert counts.sum() == 100_000
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.001

    def test_sample_preconditions(self):
        mem = ring(np.random.default_rng(0), capacity=10)
        with pytest.raises(ValueError):
            mem.sample(1)
        mem.push(np.arange(9.0)[None], [1], [0.5], np.arange(9.0)[None] + 1)
        with pytest.raises(ValueError):
            mem.sample(2)
        states, actions, rewards, next_states = mem.sample(1)
        np.testing.assert_array_equal(states[0, 0], np.arange(9.0))
        assert actions[0, 0] == 1 and rewards[0, 0] == 0.5

    def test_reward_contract_enforced(self):
        mem = ring(np.random.default_rng(0), capacity=10)
        for reward in (1.5, -2.0):
            with pytest.raises(ValueError):
                mem.push(np.zeros((1, 9)), [0], [reward], np.zeros((1, 9)))
        assert len(mem) == 0

    def test_rings_equal_reference_replays_through_wraps_and_refusals(self):
        # K rings filling together give ring k the bits of its own K = 1 replay, draw for draw,
        # past several wraps of the ring; a push with one bad reward is refused whole
        k, capacity, batch = 4, 7, 5
        data = np.random.default_rng(40)
        block = ReplayMemory(capacity, [np.random.default_rng(s) for s in range(k)])
        references = [ReferenceReplay(capacity, np.random.default_rng(s)) for s in range(k)]
        for tick in range(4 * capacity + 3):
            states, next_states = data.normal(size=(2, k, 9))
            actions, rewards = data.integers(0, 7, k), data.uniform(-1, 1, k)
            if tick % 5 == 2:  # one bad row: nothing is written, in any ring
                bad = rewards.copy()
                bad[tick % k] = (np.nan, 1.5, -2.0)[tick % 3]
                with pytest.raises(ValueError, match="clipped"):
                    block.push(states, actions, bad, next_states)
            block.push(states, actions, rewards, next_states)
            for ref, row in zip(references, zip(states, actions, rewards, next_states)):
                ref.push(*row)
            assert len(block) == len(references[0]) == min(tick + 1, capacity)
            if len(block) >= batch:
                got = block.sample(batch)
                assert [part.shape for part in got] == [(k, batch, 9), (k, batch), (k, batch), (k, batch, 9)]
                for row, ref in enumerate(references):
                    for part, want in zip(got, ref.sample(batch)):
                        assert part[row].dtype == want.dtype and part[row].tobytes() == want.tobytes()
        for rng, ref in zip(block.rngs, references):
            assert rng.bit_generator.state == ref.rng.bit_generator.state


class TestPerformance:
    def test_forward_throughput_guard(self):
        # regression floor set at ~1/20 of the measured rate on the
        # reference build machine (~3e5 states/s batched)
        rng = np.random.default_rng(17)
        net = init_qnetwork(5, rng)
        states = rng.normal(size=(1000, 9))
        forward(net, states)  # warm up
        t0 = time.perf_counter()
        reps = 50
        for _ in range(reps):
            forward(net, states)
        rate = reps * 1000 / (time.perf_counter() - t0)
        assert rate > 15_000, f"forward throughput regressed: {rate:.0f} states/s"
