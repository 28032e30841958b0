"""Dueling deep-Q machinery, written directly in numpy.

The network is a small fully connected trunk with ReLU activations feeding
a scalar value head and a per-action advantage head, combined as

    Q(s, a) = V(s) + A(s, a) - mean_a' A(s, a'),

trained on the Huber loss of the TD error against a periodically synced
target network, with a hand-derived backward pass and Adam updates. All
parameters and activations are 64-bit floats. A network keeps all of its
parameters in one contiguous vector (layout in param_layout), so Adam,
target sync, copying and checkpoint I/O are whole-vector operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericError(RuntimeError):
    """Raised when a forward/backward pass produces non-finite numbers."""


def param_layout(n_inputs: int, hidden: tuple, n_actions: int) -> list:
    """(name, shape, offset) of every parameter inside a network's flat vector.

    Order: trunk.{i}.w, trunk.{i}.b for each trunk layer, then value.w,
    value.b, adv.w, adv.b; each array is stored row-major from its offset.
    """
    shapes = []
    fan_in = n_inputs
    for i, width in enumerate(hidden):
        shapes += [(f"trunk.{i}.w", (fan_in, width)), (f"trunk.{i}.b", (width,))]
        fan_in = width
    shapes += [("value.w", (fan_in, 1)), ("value.b", (1,))]
    shapes += [("adv.w", (fan_in, n_actions)), ("adv.b", (n_actions,))]
    layout, offset = [], 0
    for name, shape in shapes:
        layout.append((name, shape, offset))
        offset += int(np.prod(shape))
    return layout


def _views(flat: np.ndarray, layout: list) -> list:
    return [flat[offset : offset + int(np.prod(shape))].reshape(shape) for _, shape, offset in layout]


class QNetwork:
    """Dueling Q-network whose parameters live in one contiguous float64
    vector, `flat`, laid out by param_layout. trunk_w, trunk_b (lists of
    (fan_in, fan_out) and (fan_out,) arrays), value_w (hidden, 1), value_b
    (1,), adv_w (hidden, n_actions) and adv_b (n_actions,) are views into it.
    """

    def __init__(self, n_inputs: int, hidden: tuple, n_actions: int):
        self.n_inputs, self.hidden, self.n_actions = n_inputs, tuple(hidden), n_actions
        self.layout = param_layout(n_inputs, self.hidden, n_actions)
        size = sum(int(np.prod(shape)) for _, shape, _ in self.layout)
        self.flat = np.zeros(size)
        self._params = _views(self.flat, self.layout)
        self.trunk_w, self.trunk_b = self._params[0:-4:2], self._params[1:-4:2]
        self.value_w, self.value_b, self.adv_w, self.adv_b = self._params[-4:]
        # loss_and_gradients writes into this buffer through views built once here
        self._grad = np.zeros(size)
        self._grad_views = _views(self._grad, self.layout)

    def parameters(self) -> list:
        """All parameter arrays (views into `flat`) in layout order."""
        return list(self._params)

    def copy(self) -> "QNetwork":
        twin = QNetwork(self.n_inputs, self.hidden, self.n_actions)
        np.copyto(twin.flat, self.flat)
        return twin


def init_qnetwork(
    n_actions: int,
    rng: np.random.Generator,
    n_inputs: int = 9,
    hidden: tuple = (32, 32, 32, 32),
    head_scale: float = 1.0,
) -> QNetwork:
    """Seeded He-style uniform fan-in init, zero biases.

    head_scale multiplies the value/advantage head weights; 0 starts the
    network at exact indifference (Q = 0 for every action), which makes
    the initial greedy policy the no-op action and removes init noise
    from the early Q estimates.
    """
    if n_actions not in (5, 7):
        raise ValueError("n_actions must be 5 (tracking agent) or 7 (wind adversary)")
    net = QNetwork(n_inputs, hidden, n_actions)
    for w in net.trunk_w:
        bound = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    for w in (net.value_w, net.adv_w):
        bound = np.sqrt(6.0 / w.shape[0])
        w[...] = head_scale * rng.uniform(-bound, bound, size=w.shape)
    return net


def _locate_nonfinite_layer(net: QNetwork, x: np.ndarray) -> str:
    h = x
    for i, (w, b) in enumerate(zip(net.trunk_w, net.trunk_b)):
        h = np.maximum(h @ w + b, 0.0)
        if not np.isfinite(h).all():
            return f"trunk layer {i}"
    if not np.isfinite(h @ net.value_w + net.value_b).all():
        return "value head"
    if not np.isfinite(h @ net.adv_w + net.adv_b).all():
        return "advantage head"
    return "combine"


def _forward_cached(net: QNetwork, x: np.ndarray):
    """Forward pass keeping pre-activations for the backward pass."""
    hs = [x]
    zs = []
    h = x
    for w, b in zip(net.trunk_w, net.trunk_b):
        z = h @ w + b
        zs.append(z)
        h = np.maximum(z, 0.0)
        hs.append(h)
    v = h @ net.value_w + net.value_b  # (B, 1)
    a = h @ net.adv_w + net.adv_b  # (B, n_actions)
    q = v + a - a.mean(axis=1, keepdims=True)
    return q, hs, zs


def forward(net: QNetwork, state: np.ndarray) -> np.ndarray:
    """Q values for one state (9,) or a batch (B, 9)."""
    x = np.asarray(state, dtype=np.float64)
    single = x.ndim == 1
    q, _, _ = _forward_cached(net, x[None, :] if single else x)
    if not np.isfinite(q).all():
        raise NumericError(
            f"non-finite activations in {_locate_nonfinite_layer(net, np.atleast_2d(x))}"
        )
    return q[0] if single else q


def act_epsilon_greedy(
    net: QNetwork, state: np.ndarray, epsilon: float, rng: np.random.Generator
) -> int:
    """Uniform random action with probability epsilon, else the argmax of
    Q(s, .) with ties broken toward the lowest action index."""
    if rng.random() < epsilon:
        return int(rng.integers(net.n_actions))
    return int(np.argmax(forward(net, state)))


def huber(x):
    """x^2/2 inside |x| <= 1, |x| - 1/2 outside; gradient is bounded by 1."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(np.abs(x) <= 1.0, 0.5 * x * x, np.abs(x) - 0.5)
    return out if out.ndim else float(out)


def _huber_grad(x: np.ndarray) -> np.ndarray:
    return np.where(np.abs(x) <= 1.0, x, np.sign(x))


@dataclass
class AdamState:
    first_moment: np.ndarray  # laid out like QNetwork.flat
    second_moment: np.ndarray
    step_count: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def init_like(cls, net: QNetwork, learning_rate: float = 1e-3) -> "AdamState":
        return cls(
            first_moment=np.zeros_like(net.flat),
            second_moment=np.zeros_like(net.flat),
            learning_rate=learning_rate,
        )


class ReplayMemory:
    """Bounded FIFO ring of transitions with uniform sampling (with replacement)."""

    def __init__(self, capacity: int, rng: np.random.Generator):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.rng = rng
        self._states = None
        self._actions = np.empty(capacity, dtype=np.int64)
        self._rewards = np.empty(capacity, dtype=np.float64)
        self._next_states = None
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def push(self, state, action, reward, next_state):
        """Append one transition (s, a, r, s'); the oldest entry is evicted
        once capacity is exceeded."""
        if not -1.0 - 1e-12 <= reward <= 1.0 + 1e-12:
            raise ValueError("reward must be clipped to [-1, 1]")
        if self._states is None:
            dim = len(state)
            self._states = np.empty((self.capacity, dim), dtype=np.float64)
            self._next_states = np.empty((self.capacity, dim), dtype=np.float64)
        i = self._cursor
        self._states[i] = state
        self._actions[i] = action
        self._rewards[i] = reward
        self._next_states[i] = next_state
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def contents(self):
        """Snapshot of the stored transitions in storage order (oldest first)."""
        idx = (np.arange(self._size) + (self._cursor - self._size)) % self.capacity
        return (
            self._states[idx].copy(),
            self._actions[idx].copy(),
            self._rewards[idx].copy(),
            self._next_states[idx].copy(),
        )

    def sample(self, k: int):
        """k transitions drawn uniformly with replacement as stacked arrays."""
        if k < 1:
            raise ValueError("sample size must be >= 1")
        if self._size < k:
            raise ValueError(f"memory holds {self._size} < {k} transitions")
        idx = self.rng.integers(0, self._size, size=k)
        return (
            self._states[idx],
            self._actions[idx],
            self._rewards[idx],
            self._next_states[idx],
        )


def _coerce_batch(batch):
    states, actions, rewards, next_states = batch
    return (
        np.asarray(states, dtype=np.float64),
        np.asarray(actions, dtype=np.int64),
        np.asarray(rewards, dtype=np.float64),
        np.asarray(next_states, dtype=np.float64),
    )


def loss_and_gradients(net: QNetwork, target_net: QNetwork, batch, gamma: float):
    """Mean Huber TD loss and its exact gradient w.r.t. every parameter.

    The backward pass is hand-derived for the piecewise loss and ReLU
    trunk (subgradient 0 at the kinks). Sketch, with g_j = -huber'(td_j)/B
    routed to the chosen action of sample j: the value head receives g_j,
    the advantage head receives g_j * (1[a = a_j] - 1/|A|), and both flow
    back through the trunk. The gradient comes out as one vector laid out
    like net.flat; it is the network's own buffer, overwritten by the next
    call on the same network.
    """
    states, actions, rewards, next_states = _coerce_batch(batch)
    if len(actions) == 0:
        raise ValueError("batch must be non-empty")
    b = len(actions)

    targets = rewards + gamma * forward(target_net, next_states).max(axis=1)
    q, hs, zs = _forward_cached(net, states)
    rows = np.arange(b)
    td = targets - q[rows, actions]
    loss = float(huber(td).mean())

    g = -_huber_grad(td) / b  # dLoss/dQ(s_j, a_j)
    d_adv = np.zeros_like(q)
    d_adv[rows, actions] = g
    d_adv -= g[:, None] / net.n_actions
    d_val = g[:, None]

    h_last = hs[-1]
    grads = net._grad_views
    np.matmul(h_last.T, d_val, out=grads[-4])
    np.sum(d_val, axis=0, out=grads[-3])
    np.matmul(h_last.T, d_adv, out=grads[-2])
    np.sum(d_adv, axis=0, out=grads[-1])

    dh = d_val @ net.value_w.T + d_adv @ net.adv_w.T
    for layer in range(len(net.trunk_w) - 1, -1, -1):
        dz = dh * (zs[layer] > 0.0)
        np.matmul(hs[layer].T, dz, out=grads[2 * layer])
        np.sum(dz, axis=0, out=grads[2 * layer + 1])
        if layer > 0:
            dh = dz @ net.trunk_w[layer].T

    if not np.isfinite(loss):
        raise NumericError("non-finite loss in train_batch")
    if not np.isfinite(net._grad).all():
        raise NumericError("non-finite gradient in train_batch")
    return loss, net._grad


def train_batch(net: QNetwork, target_net: QNetwork, batch, gamma: float, adam: AdamState) -> float:
    """One Adam step on the mean Huber TD loss; returns that loss."""
    loss, grad = loss_and_gradients(net, target_net, batch, gamma)
    _adam_update(net, grad, adam)
    return loss


def _adam_update(net: QNetwork, grad: np.ndarray, adam: AdamState):
    adam.step_count += 1
    t = adam.step_count
    bc1 = 1.0 - adam.beta1**t
    bc2 = 1.0 - adam.beta2**t
    m, v = adam.first_moment, adam.second_moment
    m *= adam.beta1
    m += (1.0 - adam.beta1) * grad
    v *= adam.beta2
    v += (1.0 - adam.beta2) * grad * grad
    net.flat -= adam.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + adam.epsilon)


def sync_target(net: QNetwork, target_net: QNetwork):
    """Overwrite the target's parameters with byte-identical copies."""
    dims = (net.n_inputs, net.hidden, net.n_actions)
    if (target_net.n_inputs, target_net.hidden, target_net.n_actions) != dims:
        raise ValueError("network and target layouts differ")
    np.copyto(target_net.flat, net.flat)
