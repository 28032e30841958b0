"""Dueling deep-Q machinery, written directly in numpy.

The network reads N_INPUTS = 9 inputs into a small fully connected ReLU
trunk feeding a scalar value head and a per-action advantage head, combined as

    Q(s, a) = V(s) + A(s, a) - mean_a' A(s, a'),

trained on the Huber loss of the TD error against a periodically synced
target network, with a hand-derived backward pass and Adam updates. All
parameters and activations are 64-bit floats. A network keeps all of its
parameters in one contiguous vector (layout in param_layout), so Adam,
target sync, copying and checkpoint I/O are whole-vector operations.
The kernels take any leading stack axes: `forward`, `loss_and_gradients`
and `train_batch` run them on one network, a QBlock on K networks and their
targets at once through stacked np.matmul, which gives each the same bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

N_INPUTS = 9  # the observation's (displacement, velocity, beam-direction delta) components


class NumericError(RuntimeError):
    """Raised when a forward/backward pass produces non-finite numbers."""


def param_layout(hidden: tuple, n_actions: int) -> list:
    """(name, shape, offset) of every parameter inside a network's flat vector.

    Order: trunk.{i}.w, trunk.{i}.b for each trunk layer, then value.w,
    value.b, adv.w, adv.b; each array is stored row-major from its offset.
    """
    shapes = []
    fan_in = N_INPUTS
    for i, width in enumerate(hidden):
        shapes += [(f"trunk.{i}.w", (fan_in, width)), (f"trunk.{i}.b", (width,))]
        fan_in = width
    shapes += [("value.w", (fan_in, 1)), ("value.b", (1,))]
    shapes += [("adv.w", (fan_in, n_actions)), ("adv.b", (n_actions,))]
    layout, offset = [], 0
    for name, shape in shapes:
        layout.append((name, shape, offset))
        offset += math.prod(shape)
    return layout


def _views(flat: np.ndarray, layout: list) -> list:
    """Views of the parameters in `layout`, over any leading axes of `flat`."""
    lead = flat.shape[:-1]
    return [flat[..., at : at + math.prod(shape)].reshape(lead + shape) for _, shape, at in layout]


class QNetwork:
    """Dueling Q-network on N_INPUTS inputs, its parameters in one contiguous
    float64 vector, `flat`, laid out by param_layout. trunk_w, trunk_b (lists of
    (fan_in, fan_out) and (fan_out,) arrays), value_w (hidden, 1), value_b
    (1,), adv_w (hidden, n_actions) and adv_b (n_actions,) are views into it.
    `flat`, when given, is the vector to use (a QBlock row), else a new zero one.
    """

    def __init__(self, hidden: tuple, n_actions: int, flat: np.ndarray | None = None):
        self.hidden, self.n_actions = tuple(hidden), n_actions
        self.layout = param_layout(self.hidden, n_actions)
        size = sum(math.prod(shape) for _, shape, _ in self.layout)
        self.flat = np.zeros(size) if flat is None else flat
        self._params = _views(self.flat, self.layout)
        self.trunk_w, self.trunk_b = self._params[0:-4:2], self._params[1:-4:2]
        self.value_w, self.value_b, self.adv_w, self.adv_b = self._params[-4:]

    def parameters(self) -> list:
        """All parameter arrays (views into `flat`) in layout order."""
        return list(self._params)

    def copy(self) -> "QNetwork":
        twin = QNetwork(self.hidden, self.n_actions)
        np.copyto(twin.flat, self.flat)
        return twin


def init_qnetwork(
    n_actions: int,
    rng: np.random.Generator,
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
    net = QNetwork(hidden, n_actions)
    for w in net.trunk_w:
        bound = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    for w in (net.value_w, net.adv_w):
        bound = np.sqrt(6.0 / w.shape[0])
        w[...] = head_scale * rng.uniform(-bound, bound, size=w.shape)
    return net


def _nonfinite(net: QNetwork, x: np.ndarray) -> NumericError:
    """The error for a non-finite Q of `net` on x, naming the first layer at fault."""
    h, stages = np.atleast_2d(x), []
    for i, (w, b) in enumerate(zip(net.trunk_w, net.trunk_b)):
        h = np.maximum(h @ w + b, 0.0)
        stages.append((f"trunk layer {i}", h))
    stages += [("value head", h @ net.value_w + net.value_b), ("advantage head", h @ net.adv_w + net.adv_b)]
    layer = next((name for name, out in stages if not np.isfinite(out).all()), "combine")
    return NumericError(f"non-finite activations in {layer}")


def _trunk(weights: list, biases: list, x: np.ndarray, out=None):
    """Layer inputs (x first) and pre-activations of the ReLU trunk on x (..., B, N_INPUTS),
    written into `out`, one (pre-activation, activation) pair of buffers per layer, if given
    (the same arithmetic; without `out` no ufunc takes keywords, which cost acting time)."""
    hs, zs = [x], []
    for layer, (w, b) in enumerate(zip(weights, biases)):
        if out is None:
            zs.append(hs[-1] @ w + b)
            hs.append(np.maximum(zs[-1], 0.0))
        else:
            z, h = out[layer]
            zs.append(np.add(np.matmul(hs[-1], w, out=z), b, out=z))
            hs.append(np.maximum(z, 0.0, out=h))
    return hs, zs


def _head(h, value_w, value_b, adv_w, adv_b):
    """Dueling Q = V + A - mean(A) on the last hidden layer h (..., B, hidden)."""
    a = h @ adv_w + adv_b
    return h @ value_w + value_b + a - np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def forward(net: QNetwork, state: np.ndarray) -> np.ndarray:
    """Q values for one state (9,) or a batch (B, 9)."""
    x = np.asarray(state, dtype=np.float64)
    hs, _ = _trunk(net.trunk_w, net.trunk_b, np.atleast_2d(x))
    q = _head(hs[-1], net.value_w, net.value_b, net.adv_w, net.adv_b)
    if not np.isfinite(q).all():
        raise _nonfinite(net, x)
    return q[0] if x.ndim == 1 else q


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
    """The replay of a whole `train` call: K bounded FIFO rings of transitions that
    fill together (one cursor and one size), ring k sampled uniformly with
    replacement by its own generator rngs[k], in one store allocated at construction."""

    def __init__(self, capacity: int, rngs: list):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity, self.rngs = capacity, list(rngs)
        self._starts = capacity * np.arange(len(self.rngs))[:, None]  # of each ring in the flattened (K, capacity)
        self._states = np.empty((2, len(self.rngs), capacity, N_INPUTS))  # states, then next states
        self._actions = np.empty((len(self.rngs), capacity), dtype=np.int64)
        self._rewards = np.empty((len(self.rngs), capacity), dtype=np.float64)
        self._size = self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def push(self, states, actions, rewards, next_states):
        """Append transition (s, a, r, s') row k of the (K, ...) arguments to ring k; each
        ring evicts its oldest entry once capacity is exceeded. Refused whole, before
        anything is written, unless every reward lies in [-1, 1]."""
        if not (np.abs(rewards) <= 1.0 + 1e-12).all():  # NaN fails too
            raise ValueError("reward must be clipped to [-1, 1]")
        i = self._cursor
        self._states[0, :, i], self._states[1, :, i] = states, next_states
        self._actions[:, i], self._rewards[:, i] = actions, rewards
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch: int):
        """`batch` transitions per ring, each ring's indices drawn by its own generator in
        ring order, gathered at once as stacked (K, batch, ...) arrays."""
        if batch < 1:
            raise ValueError("sample size must be >= 1")
        if self._size < batch:
            raise ValueError(f"memory holds {self._size} < {batch} transitions")
        idx = np.array([rng.integers(0, self._size, size=batch) for rng in self.rngs]) + self._starts
        states = self._states.reshape(2, -1, self._states.shape[-1]).take(idx, axis=1)
        return states[0], self._actions.take(idx), self._rewards.take(idx), states[1]


def _head_backward(h, g, actions, value_w, adv_w, grads: list, out=(None, None)):
    """Head gradients into `grads` and dLoss/dh, from g_j = dLoss/dQ(s_j, a_j): the
    value head receives g_j, the advantage head g_j * (1[a = a_j] - 1/|A|). dLoss/dh
    is the sum of the two heads' parts, written into the two buffers `out` if given."""
    n_actions = adv_w.shape[-1]
    d_adv = np.zeros(g.shape + (n_actions,))
    d_adv.reshape(-1, n_actions)[np.arange(g.size), actions.ravel()] = g.ravel()
    d_adv -= g[..., None] / n_actions
    d_val = g[..., None]
    np.matmul(h.mT, d_val, out=grads[0])
    np.add.reduce(d_val, axis=-2, out=grads[1])
    np.matmul(h.mT, d_adv, out=grads[2])
    np.add.reduce(d_adv, axis=-2, out=grads[3])
    dh = np.matmul(d_val, value_w.mT, out=out[0])
    dh += np.matmul(d_adv, adv_w.mT, out=out[1])
    return dh


def _trunk_backward(hs: list, zs: list, weights: list, dh, grads: list, out=None):
    """Carry dLoss/dh back through the ReLU trunk (subgradient 0 at the kinks); `out`,
    if given, holds per layer the (ReLU mask, dLoss/dz, dLoss/dh below) buffers."""
    for layer in range(len(weights) - 1, -1, -1):
        mask, dz, below = out[layer] if out else (None, None, None)
        dz = np.multiply(dh, np.greater(zs[layer], 0.0, out=mask), out=dz)
        np.matmul(hs[layer].mT, dz, out=grads[2 * layer])
        np.add.reduce(dz, axis=-2, out=grads[2 * layer + 1])
        if layer > 0:
            dh = np.matmul(dz, weights[layer].mT, out=below)


def _check_finite(loss, grad):
    if not np.isfinite(loss).all():
        raise NumericError("non-finite loss in train_batch")
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient in train_batch")


def loss_and_gradients(net: QNetwork, target_net: QNetwork, batch, gamma: float):
    """Mean Huber TD loss and its exact gradient w.r.t. every parameter.

    The backward pass is hand-derived for the piecewise loss and the ReLU
    trunk, from dLoss/dQ(s_j, a_j) = -huber'(td_j)/B. The gradient comes out
    as one new vector laid out like net.flat.
    """
    states, actions, rewards, next_states = batch
    states, rewards, next_states = (np.asarray(a, dtype=np.float64) for a in (states, rewards, next_states))
    actions = np.asarray(actions, dtype=np.int64)
    if len(actions) == 0:
        raise ValueError("batch must be non-empty")
    targets = rewards + gamma * forward(target_net, next_states).max(axis=1)
    hs, zs = _trunk(net.trunk_w, net.trunk_b, states)
    q = _head(hs[-1], net.value_w, net.value_b, net.adv_w, net.adv_b)
    td = targets - q[np.arange(len(actions)), actions]
    loss = float(huber(td).mean())
    grad = np.zeros_like(net.flat)
    grads = _views(grad, net.layout)
    dh = _head_backward(hs[-1], -_huber_grad(td) / len(td), actions, net.value_w, net.adv_w, grads[-4:])
    _trunk_backward(hs, zs, net.trunk_w, dh, grads[:-4])
    _check_finite(loss, grad)
    return loss, grad


def train_batch(net: QNetwork, target_net: QNetwork, batch, gamma: float, adam: AdamState) -> float:
    """One Adam step on the mean Huber TD loss; returns that loss."""
    loss, grad = loss_and_gradients(net, target_net, batch, gamma)
    adam.step_count += 1
    _adam_step(net.flat, grad, adam.first_moment, adam.second_moment, adam)
    return loss


def _adam_step(flat, grad, m, v, adam: AdamState, out=None):
    """Adam step of `flat` in place; element-wise, so any stack of rows takes one call.
    Its temporaries go to `out`, two arrays shaped like `flat`, if given."""
    t, u = (np.empty_like(flat), np.empty_like(flat)) if out is None else out
    bc1, bc2 = 1.0 - adam.beta1**adam.step_count, 1.0 - adam.beta2**adam.step_count
    m *= adam.beta1
    m += np.multiply(1.0 - adam.beta1, grad, out=t)
    v *= adam.beta2
    v += np.multiply(np.multiply(1.0 - adam.beta2, grad, out=t), grad, out=t)
    np.sqrt(np.divide(v, bc2, out=u), out=u)
    u += adam.epsilon
    np.multiply(adam.learning_rate, np.divide(m, bc1, out=t), out=t)  # lr * m_hat / (sqrt(v_hat) + eps)
    flat -= np.divide(t, u, out=t)


class QBlock:
    """K networks with one hidden shape as one parameter block: `flat`
    (2, K, P_max) holds the online networks in role 0 and their targets in
    role 1, row k laid out by param_layout and zero-padded. Each run of equal
    action count is a head group. Adam moments are (K, P_max) with one step
    count. `nets` and `adams` are plain QNetworks and AdamStates over rows.
    The parameter views of the online role and of both roles are built once,
    so a block of one network acts as cheaply as `forward`, which stays the
    K = 1 reference that the stacked kernels must match bit for bit. Data
    stays stacked on both ends: `forward` gives one Q array per head group,
    and `train` takes the (K, B, ...) batch of a ReplayMemory of K rings as
    it is sampled. `train` keeps its activations, ReLU masks, gradients and
    Adam temporaries in one workspace per batch size, made on its first
    call: at large K these pass the allocator's mmap threshold, and fresh
    pages on every call would cost more than stacking saves."""

    def __init__(self, nets: list, learning_rate: float = 1e-3):
        hidden = nets[0].hidden
        if any(net.hidden != hidden for net in nets):
            raise ValueError("block networks must share their hidden widths")
        self.flat = np.zeros((2, len(nets), max(net.flat.size for net in nets)))
        self.grad, self.moments = np.zeros(self.flat.shape[1:]), np.zeros(self.flat.shape)
        self.nets, self.adams = [], []
        for k, net in enumerate(nets):
            self.flat[:, k, : net.flat.size] = net.flat
            self.nets.append(QNetwork(hidden, net.n_actions, self.flat[0, k, : net.flat.size]))
            self.adams.append(AdamState(*self.moments[:, k, : net.flat.size], learning_rate=learning_rate))

        def views(rows, layout):  # of both roles (biases get a unit batch axis), and of the gradient
            params = [p[..., None, :] if p.ndim == 3 else p for p in _views(self.flat[:, rows], layout)]
            return params, _views(self.grad[rows], layout)

        trunk, self._trunk_grad = views(slice(None), nets[0].layout[:-4])
        self._groups, start = [], 0  # (rows, head views, head gradient views) per head group
        for n_actions, run in itertools.groupby(net.n_actions for net in nets):
            rows = slice(start, start := start + len(list(run)))
            self._groups.append((rows, *views(rows, param_layout(hidden, n_actions)[-4:])))

        def role(r):  # trunk weights, trunk biases and per-group head parameters of role r
            heads = [[p[r] for p in head] for _, head, _ in self._groups]
            return [w[r] for w in trunk[0::2]], [b[r] for b in trunk[1::2]], heads

        self._online, self._both = role(0), role(slice(None))  # built once, used by every pass
        self._workspaces = {}  # batch size -> the buffers of `train`

    def _workspace(self, batch: int) -> dict:
        """The buffers of `train` at this batch size, made on its first call there."""
        if batch not in self._workspaces:
            k, widths = len(self.nets), self.nets[0].hidden

            def per_layer(*lead, dtype=np.float64):
                return [np.empty((*lead, k, batch, width), dtype) for width in widths]

            self._workspaces[batch] = {
                "x": np.empty((2, k, batch, N_INPUTS)),
                "trunk": list(zip(per_layer(2), per_layer(2))),  # (pre-activation, activation) per layer
                "back": list(zip(per_layer(dtype=bool), per_layer(), [None] + per_layer()[:-1])),
                "dh": (np.empty((k, batch, widths[-1])), np.empty((k, batch, widths[-1]))),
                "adam": (np.empty_like(self.grad), np.empty_like(self.grad)),
            }
        return self._workspaces[batch]

    def _forward(self, x, params, out=None):
        """Trunk activations (into `out` if given) and head-group Qs of the role views
        `params` on x (..., K, B, N_INPUTS)."""
        trunk_w, trunk_b, heads = params
        hs, zs = _trunk(trunk_w, trunk_b, x, out)
        qs = [_head(hs[-1][..., rows, :, :], *head) for (rows, _, _), head in zip(self._groups, heads)]
        return hs, zs, qs

    def forward(self, x: np.ndarray, check=None) -> list:
        """One (k_g, B, n_actions) Q array per head group, of the online networks on x
        (K, B, N_INPUTS); NumericError, naming the network, if a `check` row (default:
        any) is non-finite. Rows are searched only when a group's check fails."""
        qs = self._forward(x, self._online)[2]
        if not all(np.isfinite(q).all() for q in qs):
            bad = np.concatenate([~np.isfinite(q).all(axis=(-2, -1)) for q in qs])
            for k in range(len(bad)) if check is None else check:
                if bad[k]:
                    raise NumericError(f"network {k}: {_nonfinite(self.nets[k], x[k])}")
        return qs

    def act(self, states: np.ndarray, epsilon: float, rngs: list) -> list:
        """act_epsilon_greedy of online network k on states[k] (K, N_INPUTS), or of every
        network on one state, each on its own stream; the networks that act greedily
        share one stacked (K, 1, N_INPUTS) forward."""
        draws = zip(self.nets, rngs)
        actions = [int(r.integers(net.n_actions)) if r.random() < epsilon else None for net, r in draws]
        greedy = [k for k, action in enumerate(actions) if action is None]
        if greedy:
            x = np.empty((len(self.nets), 1, N_INPUTS))
            x[:, 0] = states
            best = np.concatenate([np.argmax(q[:, 0], axis=-1) for q in self.forward(x, greedy)])
            actions = [int(b) if action is None else action for action, b in zip(actions, best)]
        return actions

    def train(self, batch, gamma: float) -> np.ndarray:
        """train_batch of online network k on row k of the stacked batch (states, actions,
        rewards, next states), each (K, B, ...) as ReplayMemory.sample gives them, as one
        trunk forward over (2, K, B, N_INPUTS) (online weights on states, target weights on
        next states), heads per group, one stacked backward and one Adam update; K losses."""
        states, actions, rewards, next_states = batch
        work = self._workspace(actions.shape[1])
        x = work["x"]
        x[0], x[1] = states, next_states
        hs, zs, qs = self._forward(x, self._both, work["trunk"])
        td = np.empty(rewards.shape)
        for (rows, _, _), q in zip(self._groups, qs):
            a = actions[rows]
            chosen = q[0].reshape(-1, q.shape[-1])[np.arange(a.size), a.ravel()].reshape(a.shape)
            td[rows] = rewards[rows] + gamma * np.maximum.reduce(q[1], axis=-1) - chosen
        losses = np.add.reduce(huber(td), axis=-1) / td.shape[-1]
        g, (dh, dh_adv) = -_huber_grad(td) / td.shape[-1], work["dh"]
        trunk_w, _, heads = self._online
        for (rows, _, grads), (value_w, _, adv_w, _) in zip(self._groups, heads):
            out = dh[rows], dh_adv[rows]
            _head_backward(hs[-1][0, rows], g[rows], actions[rows], value_w, adv_w, grads, out)
        _trunk_backward([h[0] for h in hs], [z[0] for z in zs], trunk_w, dh, self._trunk_grad, work["back"])
        _check_finite(losses, self.grad)
        for adam in self.adams:
            adam.step_count += 1
        _adam_step(self.flat[0], self.grad, *self.moments, self.adams[0], work["adam"])
        return losses

    def sync_target(self):
        """Overwrite every target with a byte-identical copy of its network."""
        np.copyto(self.flat[1], self.flat[0])


def sync_target(net: QNetwork, target_net: QNetwork):
    """Overwrite the target's parameters with byte-identical copies."""
    if (target_net.hidden, target_net.n_actions) != (net.hidden, net.n_actions):
        raise ValueError("network and target layouts differ")
    np.copyto(target_net.flat, net.flat)
