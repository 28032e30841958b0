import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from wirebeam.checkpoint import AgentCheckpoint, load_checkpoint, save_checkpoint
from wirebeam.deepq import AdamState, forward, init_qnetwork, train_batch


def trained_checkpoint(seed=0):
    rng = np.random.default_rng(seed)
    net = init_qnetwork(5, rng)
    adam = AdamState.init_like(net)
    batch = (rng.normal(size=(8, 9)), rng.integers(0, 5, 8), rng.uniform(-1, 1, 8), rng.normal(size=(8, 9)))
    train_batch(net, net.copy(), batch, 0.9, adam)
    manifest = {"agent": "protagonist", "n_actions": 5, "variant": "rarl", "config_hash": "abc123"}
    return AgentCheckpoint(net=net, adam=adam, manifest=manifest)


class TestRoundTrip:
    def test_exact_parameter_round_trip(self, tmp_path):
        ckpt = trained_checkpoint()
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        for a, b in zip(ckpt.net.parameters(), loaded.net.parameters()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ckpt.adam.first_moment, loaded.adam.first_moment)
        np.testing.assert_array_equal(ckpt.adam.second_moment, loaded.adam.second_moment)
        assert loaded.adam.step_count == ckpt.adam.step_count
        assert loaded.manifest == ckpt.manifest

    def test_adam_scalars_round_trip(self, tmp_path):
        # every scalar differs from its default, so a field that the writer or the reader skips fails
        ckpt = trained_checkpoint(8)
        ckpt.adam = replace(ckpt.adam, step_count=17, learning_rate=3e-4, beta1=0.8, beta2=0.99, epsilon=1e-6)
        default = AdamState(ckpt.adam.first_moment, ckpt.adam.second_moment)
        scalars = ("step_count", "learning_rate", "beta1", "beta2", "epsilon")
        assert all(getattr(ckpt.adam, name) != getattr(default, name) for name in scalars)
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path).adam
        assert [getattr(loaded, name) for name in scalars] == [17, 3e-4, 0.8, 0.99, 1e-6]
        assert type(loaded.step_count) is int

    def test_loaded_net_forward_identical(self, tmp_path):
        ckpt = trained_checkpoint(3)
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        s = np.random.default_rng(1).normal(size=(10, 9))
        np.testing.assert_array_equal(forward(ckpt.net, s), forward(loaded.net, s))

    def test_save_without_adam(self, tmp_path):
        ckpt = trained_checkpoint(5)
        ckpt.adam = None
        path = tmp_path / "net_only.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.adam is None
        np.testing.assert_array_equal(loaded.net.adv_w, ckpt.net.adv_w)

    def test_loaded_state_is_one_writable_vector_each(self, tmp_path):
        ckpt = trained_checkpoint(9)
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        for vec in (loaded.net.flat, loaded.adam.first_moment, loaded.adam.second_moment):
            assert vec.dtype == np.float64 and vec.ndim == 1
            assert vec.flags.c_contiguous and vec.flags.writeable
        assert not np.shares_memory(loaded.net.flat, loaded.adam.first_moment)
        assert all(p.base is loaded.net.flat for p in loaded.net.parameters())

    def test_payload_is_flat_then_moments(self, tmp_path):
        ckpt = trained_checkpoint(4)
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, ckpt)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12 : 12 + header_len])
        assert [a["name"] for a in header["arrays"][:2]] == ["trunk.0.w", "trunk.0.b"]
        assert len(header["arrays"]) == 3 * len(ckpt.net.parameters())
        assert "rng_state" not in header
        expected = b"".join(
            v.astype("<f8").tobytes() for v in (ckpt.net.flat, ckpt.adam.first_moment, ckpt.adam.second_moment)
        )
        assert raw[12 + header_len :] == expected

    def test_file_with_null_rng_state_loads(self, tmp_path):
        # files written before the slot was dropped carry "rng_state": null
        ckpt = trained_checkpoint(6)
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, ckpt)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12 : 12 + header_len])
        old_header = json.dumps({**header, "rng_state": None}, sort_keys=True).encode("utf-8")
        old = tmp_path / "old.ckpt"
        old.write_bytes(raw[:8] + struct.pack("<I", len(old_header)) + old_header + raw[12 + header_len :])
        loaded = load_checkpoint(old)
        np.testing.assert_array_equal(loaded.net.flat, ckpt.net.flat)
        np.testing.assert_array_equal(loaded.adam.first_moment, ckpt.adam.first_moment)
        np.testing.assert_array_equal(loaded.adam.second_moment, ckpt.adam.second_moment)
        assert loaded.adam.step_count == ckpt.adam.step_count
        assert loaded.adam.learning_rate == ckpt.adam.learning_rate
        assert loaded.manifest == ckpt.manifest

    def test_loaded_training_continues(self, tmp_path):
        # loaded arrays must be writable and usable for further updates
        ckpt = trained_checkpoint(7)
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        rng = np.random.default_rng(2)
        batch = (rng.normal(size=(8, 9)), rng.integers(0, 5, 8), rng.uniform(-1, 1, 8), rng.normal(size=(8, 9)))
        loss = train_batch(loaded.net, loaded.net.copy(), batch, 0.9, loaded.adam)
        assert np.isfinite(loss)


class TestErrorHandling:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_declared_shape_mismatch_rejected(self, tmp_path):
        ckpt = trained_checkpoint()
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, ckpt)
        raw = path.read_bytes()
        # tamper: bump the declared action count in the JSON header
        path.write_bytes(raw.replace(b'"n_actions": 5', b'"n_actions": 7'))
        with pytest.raises(ValueError, match="disagree"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda raw: raw[:-8], "payload"),  # truncated payload
            (lambda raw: raw + b"\x00" * 8, "payload"),  # trailing bytes
            (lambda raw: raw[:40], "truncated"),  # truncated header
            (lambda raw: raw.replace(b'"n_inputs"', b'"n_inputz"'), "checkpoint header has no key 'n_inputs'"),
            (lambda raw: raw[:12] + b"x" + raw[13:], "damaged checkpoint header"),  # corrupted header byte
            (lambda raw: raw.replace(b'"n_inputs": 9', b'"n_inputs": 8'), "header declares n_inputs 8"),
        ],
    )
    def test_wrong_length_rejected_with_path(self, tmp_path, damage, message):
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, trained_checkpoint())
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=f"agent.ckpt: {message}"):
            load_checkpoint(path)
