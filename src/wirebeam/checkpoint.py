"""Versioned binary container for trained agents.

Byte layout (format version 1, all integers little-endian):

    offset 0   4 bytes   magic b"WBQC"
    offset 4   uint32    format version (1)
    offset 8   uint32    H, byte length of the JSON header
    offset 12  H bytes   UTF-8 JSON header
    offset 12+H          payload: the raw bytes of every array listed in
                         header["arrays"], concatenated in order, each
                         row-major float64 little-endian

The header records the trunk/head shapes ("n_inputs" must be deepq.N_INPUTS),
the manifest (agent kind, action count, training variant, seed, config hash)
and the Adam scalars, the AdamState fields after the moments; keys it does
not use, such as the always-null "rng_state" of files written by earlier
versions, are ignored on load. Array order is deepq.param_layout's:
trunk.{i}.w, trunk.{i}.b for each trunk layer, value.w, value.b, adv.w,
adv.b, then (when Adam state is saved) adam.m.* and adam.v.* repeating the
same order. The payload is therefore the network's flat parameter vector,
then Adam's first-moment vector, then its second-moment vector.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, fields

import numpy as np

from .deepq import N_INPUTS, AdamState, QNetwork

MAGIC = b"WBQC"
FORMAT_VERSION = 1
_ADAM_SCALARS = [f.name for f in fields(AdamState)][2:]  # after first_moment and second_moment


def param_digest(net: QNetwork) -> str:
    """sha256 hex digest of a network's parameters as little-endian float64
    bytes (a checkpoint's network payload): the same for one set of parameters
    whatever file or object holds it."""
    return hashlib.sha256(net.flat.astype("<f8").tobytes()).hexdigest()


def _array_specs(layout: list, with_adam: bool) -> list:
    prefixes = ("", "adam.m.", "adam.v.") if with_adam else ("",)
    return [
        {"name": prefix + name, "shape": list(shape)} for prefix in prefixes for name, shape, _ in layout
    ]


@dataclass
class AgentCheckpoint:
    """A trained network plus optimizer state and provenance manifest."""

    net: QNetwork
    adam: AdamState | None = None
    manifest: dict | None = None


def save_checkpoint(path, ckpt: AgentCheckpoint):
    net, adam = ckpt.net, ckpt.adam
    header = {
        "format_version": FORMAT_VERSION,
        "manifest": ckpt.manifest or {},
        "n_actions": net.n_actions,
        "n_inputs": N_INPUTS,
        "hidden": list(net.hidden),
        "arrays": _array_specs(net.layout, adam is not None),
        "adam": None if adam is None else {name: getattr(adam, name) for name in _ADAM_SCALARS},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(net.flat.astype("<f8", copy=False).tobytes())
        if adam is not None:
            fh.write(adam.first_moment.astype("<f8", copy=False).tobytes())
            fh.write(adam.second_moment.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> AgentCheckpoint:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    if len(raw) < 12 or len(raw) < 12 + struct.unpack("<I", raw[8:12])[0]:
        raise ValueError(f"{path}: truncated checkpoint header")
    version, header_len = struct.unpack("<II", raw[4:12])
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint format version {version}")
    try:
        header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: damaged checkpoint header: {exc}") from exc
    try:
        return _from_header(header, raw, 12 + header_len, path)
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint header has no key {exc}") from exc


def _from_header(header: dict, raw: bytes, offset: int, path) -> AgentCheckpoint:
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    if header["n_inputs"] != N_INPUTS:
        raise ValueError(f"{path}: header declares n_inputs {header['n_inputs']!r}; every network reads {N_INPUTS}")
    hidden, n_actions = header["hidden"], header["n_actions"]
    if not isinstance(hidden, list) or not hidden or any(type(w) is not int or w < 1 for w in hidden):
        raise ValueError(f"{path}: header declares hidden {hidden!r}; a network needs layers of int width >= 1")
    if type(n_actions) is not int or n_actions not in (5, 7):
        raise ValueError(f"{path}: header declares n_actions {n_actions!r}; a network has 5 (tracker) or 7 (adversary)")
    net = QNetwork(hidden, n_actions)
    if header["arrays"] != _array_specs(net.layout, header["adam"] is not None):
        raise ValueError(f"{path}: array shapes disagree with the declared layout")
    size = net.flat.size
    count = size * (1 if header["adam"] is None else 3)
    if len(raw) - offset != 8 * count:
        raise ValueError(
            f"{path}: payload is {len(raw) - offset} bytes, the header declares {8 * count}"
        )
    payload = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    net.flat[:] = payload[:size]

    adam = None
    if header["adam"] is not None:
        moments = payload[size : 2 * size].astype(np.float64), payload[2 * size :].astype(np.float64)
        adam = AdamState(*moments, **{name: header["adam"][name] for name in _ADAM_SCALARS})
    return AgentCheckpoint(net=net, adam=adam, manifest=header["manifest"])
