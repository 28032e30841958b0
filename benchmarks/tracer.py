"""Span tracer for the benchmark's traced run.

Wraps public functions of the wirebeam layers from outside: every binding
of a target function in a loaded ``wirebeam`` module (including names
brought in with ``from x import y``) is replaced by a wrapper while the
tracer is installed, and restored by ``uninstall``. Wrappers only read the
clock and append to in-memory lists, so they consume no RNG draws and the
traced run produces the same bytes as an untraced one.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of
the enclosing span in the same list (-1 at the root) and ``run`` is
``(operation index, pid)``. Sweep cells run in forked pool workers; a
worker starts with an empty span list and writes its spans to
``spill_dir`` each time a root span closes, because pool workers exit
without running exit hooks. ``collect`` merges those files back.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# (span name, module, attribute or Class.method)
TARGETS = [
    ("deepq.forward", "wirebeam.deepq", "forward"),
    ("deepq.loss_and_gradients", "wirebeam.deepq", "loss_and_gradients"),
    ("deepq.train_batch", "wirebeam.deepq", "train_batch"),
    ("deepq.act", "wirebeam.deepq", "act_epsilon_greedy"),
    ("deepq.sync_target", "wirebeam.deepq", "sync_target"),
    ("deepq.replay.push", "wirebeam.deepq", "ReplayMemory.push"),
    ("deepq.replay.sample", "wirebeam.deepq", "ReplayMemory.sample"),
    ("env.step", "wirebeam.env", "BeamTrackingEnv.step"),
    ("env.preview_wire", "wirebeam.env", "BeamTrackingEnv.preview_wire"),
    ("env.reset", "wirebeam.env", "BeamTrackingEnv.reset"),
    ("wire.step", "wirebeam.wire", "step"),
    ("wire.equilibrium_shape", "wirebeam.wire", "equilibrium_shape"),
    ("radio.received_power", "wirebeam.radio", "received_power"),
    ("radio.aod_geometry", "wirebeam.radio", "aod_geometry"),
    ("radio.array_factor", "wirebeam.radio", "array_factor"),
    ("rarl.train", "wirebeam.rarl", "train"),
    ("rarl.check_protagonist", "wirebeam.rarl", "check_protagonist"),
    ("rarl.check_adversary", "wirebeam.rarl", "check_adversary"),
    ("rarl.run_policy", "wirebeam.rarl", "run_policy"),
    ("checkpoint.save", "wirebeam.checkpoint", "save_checkpoint"),
    ("checkpoint.load", "wirebeam.checkpoint", "load_checkpoint"),
    ("config.parse", "wirebeam.config", "train_config_from_text"),
    ("config.serialize", "wirebeam.config", "serialize_train_config"),
    ("bench.manifest", "wirebeam.bench", "write_manifest"),
]


class Tracer:
    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spans = []
        self.stack = []
        self.counters = {}
        self.run = (0, os.getpid())
        self.is_worker = False
        self.installed = False
        self._restore = []
        self._spills = 0
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -------------------------------------------------------

    def _after_fork(self):
        if not self.installed:
            return
        self.spans, self.stack, self.counters = [], [], {}
        self.run = (self.run[0], os.getpid())
        self.is_worker = True

    def _count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _spill(self):
        self._spills += 1
        path = self.spill_dir / f"spans-{os.getpid()}-{self._spills}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)
        self.spans, self.counters = [], {}

    def _wrap(self, name, fn):
        tracer = self

        def span_name(args, kwargs):
            if name == "deepq.forward":
                state = args[1] if len(args) > 1 else kwargs["state"]
                return "deepq.forward.b1" if np.ndim(state) == 1 else "deepq.forward.batch"
            if name == "rarl.run_policy":
                policy = args[0] if args else kwargs["policy"]
                return f"rarl.run_policy:{policy.kind.value}"
            return name

        def wrapper(*args, **kwargs):
            stack, spans = tracer.stack, tracer.spans
            if name == "radio.array_factor" and stack and spans[stack[-1]][0] == "radio.received_power":
                # scalar calls count toward received_power; only bulk calls get a span
                return fn(*args, **kwargs)
            label = span_name(args, kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append([label, 0.0, 0.0, parent, tracer.run])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if name == "radio.array_factor":
                tracer._count("radio.array_factor.samples", int(np.size(result)))
            elif name == "checkpoint.save":
                path = args[0] if args else kwargs["path"]
                tracer._count("checkpoint.save.bytes", os.path.getsize(path))
            if tracer.is_worker and not stack:
                tracer._spill()
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, run_index: int):
        """Wrap every target; spans recorded now carry `run_index`."""
        self.run = (run_index, os.getpid())
        if self.installed:
            return
        modules = [m for n, m in sys.modules.items() if n == "wirebeam" or n.startswith("wirebeam.")]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._restore.append((module, key, orig))
                        setattr(module, key, wrapper)
        self.installed = True

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []
        self.installed = False

    def collect(self):
        """All spans and counters so far, this process's and the workers'."""
        chunks = [(self.spans, self.counters)]
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            chunks.append((data["spans"], data["counters"]))
            path.unlink()
        spans, counters = [], {}
        for chunk_spans, chunk_counters in chunks:
            offset = len(spans)
            for label, start, end, parent, run in chunk_spans:
                spans.append((label, start, end, parent + offset if parent >= 0 else -1, tuple(run)))
            for key, value in chunk_counters.items():
                counters[key] = counters.get(key, 0) + value
        self.spans, self.counters = [], {}
        return spans, counters


def write_spans(path: Path, spans):
    """Append spans as gzip'd JSON lines: name, start, end, parent, run."""
    with gzip.open(path, "at", encoding="utf-8") as fh:
        for label, start, end, parent, run in spans:
            fh.write(json.dumps([label, start, end, parent, list(run)]) + "\n")


def _stats(prefix, durations, self_s):
    out = {f"{prefix}.calls": len(durations), f"{prefix}.self_s": float(self_s)}
    for p in (50, 99):
        out[f"{prefix}.us_p{p}"] = float(np.percentile(durations, p)) * 1e6 if len(durations) else 0.0
    return out


def layer_metrics(spans, counters) -> dict:
    """Per-layer metrics of one traced operation from its merged spans.

    Self time is a span's duration minus its children's durations (children
    run sequentially in the same process, so their durations sum to the part
    of the parent's interval they cover).
    """
    n = len(spans)
    names = [s[0].split(":")[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.float64)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    child_sum = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child_sum, parent[has_parent], dur[has_parent])
    self_t = dur - child_sum

    by_name = {}
    for i, label in enumerate(names):
        by_name.setdefault(label, []).append(i)

    def idx(label):
        return np.array(by_name.get(label, []), dtype=np.int64)

    def total_self(label):
        return float(self_t[idx(label)].sum())

    def under(label, parent_label):
        """Indices of the `label` spans whose parent is a `parent_label` span."""
        return [i for i in idx(label) if parent[i] >= 0 and names[parent[i]] == parent_label]

    m = {}
    for label in (
        "deepq.forward.b1",
        "deepq.forward.batch",
        "deepq.loss_and_gradients",
        "deepq.train_batch",
        "deepq.replay.push",
        "deepq.replay.sample",
        "deepq.sync_target",
        "env.step",
        "env.preview_wire",
        "env.reset",
        "wire.step",
        "wire.equilibrium_shape",
        "radio.received_power",
        "radio.aod_geometry",
        "rarl.check_protagonist",
        "rarl.check_adversary",
        "config.parse",
        "config.serialize",
    ):
        i = idx(label)
        m.update(_stats(label, dur[i], self_t[i].sum()))
    # train_batch's own time, outside loss_and_gradients, is the Adam update
    m["deepq.adam.self_s"] = m.pop("deepq.train_batch.self_s")

    act = idx("deepq.act")
    greedy_acts = len({int(parent[i]) for i in under("deepq.forward.b1", "deepq.act")})
    m["deepq.act.calls"] = len(act)
    m["deepq.act.greedy_ratio"] = greedy_acts / len(act) if len(act) else 0.0

    af = idx("radio.array_factor")
    m["radio.array_factor.calls"] = len(af)
    m["radio.array_factor.samples"] = counters.get("radio.array_factor.samples", 0)
    m["radio.array_factor.self_s"] = float(self_t[af].sum())

    probe_s = float(dur[idx("rarl.check_protagonist")].sum() + dur[idx("rarl.check_adversary")].sum())
    m["rarl.learn_s"] = float(dur[idx("rarl.train")].sum()) - probe_s
    m["rarl.probe_s"] = probe_s
    rp = idx("rarl.run_policy")
    m["rarl.run_policy.calls"] = len(rp)
    m["rarl.run_policy.s_p50"] = float(np.percentile(dur[rp], 50)) if len(rp) else 0.0
    m["rarl.run_policy.s_p90"] = float(np.percentile(dur[rp], 90)) if len(rp) else 0.0

    wire_calls = len(idx("wire.step"))
    rx_calls = len(idx("radio.received_power"))
    m["rarl.wire_step_useful_ratio"] = len(under("wire.step", "env.step")) / wire_calls if wire_calls else 0.0
    m["rarl.rx_power_useful_ratio"] = (
        len(under("radio.received_power", "env.step")) / rx_calls if rx_calls else 0.0
    )

    m["checkpoint.save.calls"] = len(idx("checkpoint.save"))
    m["checkpoint.save.self_s"] = total_self("checkpoint.save")
    m["checkpoint.save.bytes"] = counters.get("checkpoint.save.bytes", 0)
    m["checkpoint.load.calls"] = len(idx("checkpoint.load"))
    m["checkpoint.load.self_s"] = total_self("checkpoint.load")
    m["bench.manifest.self_s"] = total_self("bench.manifest")

    # self time per layer (module), and the ranking inside upper_limit cells
    for layer in ("deepq", "env", "wire", "radio", "rarl", "checkpoint", "config", "bench"):
        mask = np.array([nm.startswith(layer + ".") for nm in names], dtype=bool)
        m[f"{layer}.self_s"] = float(self_t[mask].sum())

    # spans are appended on entry, so a parent's index is below its children's
    in_upper = np.zeros(n, dtype=bool)
    for i, s in enumerate(spans):
        in_upper[i] = s[0] == "rarl.run_policy:upper_limit" or (parent[i] >= 0 and in_upper[parent[i]])
    upper_self = {}
    for i in np.nonzero(in_upper)[0]:
        upper_self[names[i]] = upper_self.get(names[i], 0.0) + self_t[i]
    ranked = sorted(upper_self, key=upper_self.get, reverse=True)
    m["radio.received_power.upper_limit_self_rank"] = (
        ranked.index("radio.received_power") + 1 if "radio.received_power" in ranked else 0
    )
    total_upper = sum(upper_self.values())
    m["radio.received_power.upper_limit_self_share"] = (
        upper_self.get("radio.received_power", 0.0) / total_upper if total_upper else 0.0
    )
    return m
