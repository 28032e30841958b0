import ast
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wirebeam import bench, deepq, radio, wire
from wirebeam.bench import main, resolve_policy
from wirebeam.checkpoint import AgentCheckpoint, load_checkpoint, save_checkpoint
from wirebeam.config import serialize_train_config, train_config_from_text
from wirebeam.deepq import QNetwork, init_qnetwork
from wirebeam.env import EnvConfig
from wirebeam.rarl import Policy, PolicyKind, make_normalizer, rollout, run_policy
from conftest import reference_average, reference_write_csv

SMALL_CFG = (
    "episodes: 2\n"
    "test_steps: 20\n"
    "observation_time_s: 0.4\n"
    "variant: no_adversary\n"
    "seed: 7\n"
)


def write_cfg(tmp_path, text=SMALL_CFG, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def greedy_ckpt_path(tmp_path):
    """A random-weight tracker saved with the reference input normalizer."""
    path = tmp_path / "greedy.ckpt"
    net = init_qnetwork(5, np.random.default_rng(99), head_scale=1.0)
    save_checkpoint(path, AgentCheckpoint(net=net, manifest={"obs_norm": make_normalizer(EnvConfig()).manifest_entry()}))
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestTrainCommand:
    def test_outputs_and_row_count(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "protagonist.ckpt").exists()
        assert not (out / "adversary.ckpt").exists()  # no-adversary variant
        header, rows = read_rows(out / "curve.csv")
        assert header == [
            "episode",
            "protagonist_avg_power_dbm",
            "adversary_check_avg_power_dbm",
            "loss_p",
            "loss_a",
        ]
        assert len(rows) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["variant"] == "no_adversary"
        assert "curve.csv" in manifest["outputs"]

    def test_rerun_byte_identical_curve(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", cfg, "--out", str(out_a)])
        main(["train", "--config", cfg, "--out", str(out_b)])
        assert (out_a / "curve.csv").read_bytes() == (out_b / "curve.csv").read_bytes()
        ma = json.loads((out_a / "manifest.json").read_text())["outputs"]
        mb = json.loads((out_b / "manifest.json").read_text())["outputs"]
        assert ma == mb  # identical inputs reproduce identical output hashes

    def test_rarl_variant_writes_proxy_and_adversary(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CFG.replace("no_adversary", "rarl"))
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        for name in ("proxy.ckpt", "protagonist.ckpt", "adversary.ckpt", "curve.csv"):
            assert (out / name).exists()

    def test_rarl_manifest_config_loads_back(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CFG.replace("no_adversary", "rarl").replace("episodes: 2", "episodes: 1"))
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        snapshot = train_config_from_text(manifest["config"])
        assert Path(snapshot.proxy_checkpoint) == out / "proxy.ckpt"
        assert snapshot.variant == "rarl" and snapshot.episodes == 1

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", cfg, "--out", str(out_a), "--seed", "7"])
        main(["train", "--config", cfg, "--out", str(out_b), "--seed", "8"])
        assert (out_a / "curve.csv").read_text() != (out_b / "curve.csv").read_text()


class TestSweepCommand:
    def test_grid_rows_and_order(self, tmp_path):
        cfg = write_cfg(tmp_path)
        spec = tmp_path / "sweep.spec"
        spec.write_text(
            "mass_grid_kg: 10,10,5\nspring_grid_n_per_m: 100,50\npolicies: stay,upper_limit\n"
        )
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg, "--spec", str(spec), "--out", str(out)]) == 0
        header, rows = read_rows(out / "heatmap.csv")
        assert header == ["mass_kg", "spring_n_per_m", "policy", "avg_power_dbm", "stddev"]
        # duplicates deduped: 2 masses x 2 springs x 2 policies
        assert len(rows) == 8
        # row-major over mass x spring x policy, grids in listed order
        key = [(r[0], r[1], r[2]) for r in rows]
        assert key[:4] == [
            ("10.0", "100.0", "stay"),
            ("10.0", "100.0", "upper_limit"),
            ("10.0", "50.0", "stay"),
            ("10.0", "50.0", "upper_limit"),
        ]
        assert key[4][0] == "5.0"

    def test_manifest_flags_cells_resting_below_ground(self, tmp_path):
        # the 10 kg / 10 N/m wire sags its station 6.14 m below the ground plane
        spec = tmp_path / "sweep.spec"
        spec.write_text("mass_grid_kg: 10\nspring_grid_n_per_m: 10,100\npolicies: stay\n")
        out = tmp_path / "sw"
        assert main(["sweep", "--config", write_cfg(tmp_path), "--spec", str(spec), "--out", str(out)]) == 0
        cells = json.loads((out / "manifest.json").read_text())["substeps"]
        assert [(c["spring_n_per_m"], round(c["rest_z_m"], 2), c["below_ground"]) for c in cells] == [
            (10.0, -6.14, True),
            (100.0, 3.89, False),
        ]
        sbs = EnvConfig().sbs_index
        for cell in cells:
            phys = replace(EnvConfig().phys, total_mass=cell["mass_kg"], spring_constant=cell["spring_n_per_m"])
            assert cell["rest_z_m"] == wire.equilibrium_shape(phys).positions[sbs, 2]
        _, rows = read_rows(out / "heatmap.csv")
        assert len(rows) == 2  # flagged cells are still scored

    def test_multi_policy_sweep_matches_single_policy_sweeps(self, tmp_path):
        cfg = write_cfg(tmp_path)
        policies = ["stay", "upper_limit", "random_uniform", greedy_ckpt_path(tmp_path)]
        grid = "mass_grid_kg: 10,5\nspring_grid_n_per_m: 100,50\n"
        spec = tmp_path / "sweep.spec"
        spec.write_text(grid + f"policies: {','.join(policies)}\n")
        # --workers is still accepted, and ignored
        assert main(["sweep", "--config", cfg, "--spec", str(spec), "--out", str(tmp_path / "all"), "--workers", "2"]) == 0
        _, rows = read_rows(tmp_path / "all" / "heatmap.csv")
        for i, token in enumerate(policies):
            spec.write_text(grid + f"policies: {token}\n")
            out = tmp_path / f"one{i}"
            assert main(["sweep", "--config", cfg, "--spec", str(spec), "--out", str(out)]) == 0
            assert read_rows(out / "heatmap.csv")[1] == rows[i :: len(policies)]

    def test_sweep_is_one_rollout(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "rollout", lambda *args, **kw: calls.append(len(args[0])) or rollout(*args, **kw))
        spec = tmp_path / "sweep.spec"
        spec.write_text("mass_grid_kg: 10,5\nspring_grid_n_per_m: 100,50\npolicies: stay,upper_limit\nseeds_per_cell: 2\n")
        argv = ["sweep", "--config", write_cfg(tmp_path), "--spec", str(spec), "--out", str(tmp_path / "sw")]
        assert main(argv) == 0
        assert calls == [2 * 2 * 2 * 2]  # cells x policies x seeds, in one batch

    def test_one_checkpoint_sweep_acts_through_the_block(self, tmp_path, monkeypatch):
        calls = []
        forward = deepq.forward
        monkeypatch.setattr(deepq, "forward", lambda *args: calls.append(1) or forward(*args))
        argv = ["sweep", "--config", write_cfg(tmp_path), "--checkpoint", greedy_ckpt_path(tmp_path)]
        assert main(argv + ["--out", str(tmp_path / "sw")]) == 0
        assert calls == []

    @pytest.mark.parametrize("from_env", [False, True])
    def test_spec_and_checkpoint_rejected(self, tmp_path, monkeypatch, capsys, from_env):
        spec = tmp_path / "sweep.spec"
        spec.write_text("mass_grid_kg: 10\nspring_grid_n_per_m: 100\n")
        out = tmp_path / "sw"
        argv = ["sweep", "--config", write_cfg(tmp_path), "--spec", str(spec), "--out", str(out)]
        if from_env:
            monkeypatch.setenv("WIREBEAM_CHECKPOINT", str(tmp_path / "missing.ckpt"))
        else:
            argv += ["--checkpoint", str(tmp_path / "missing.ckpt")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--spec" in err and "--checkpoint" in err
        assert not out.exists()

    def test_mixed_substep_grid_matches_reference_loop(self, tmp_path):
        # 0.3 kg / 200 N/m needs 2 substeps, 1 kg / 200 N/m one
        cfg_text = SMALL_CFG
        spec = tmp_path / "sweep.spec"
        policies = ["stay", "upper_limit", "random_uniform", greedy_ckpt_path(tmp_path)]
        spec.write_text(
            "mass_grid_kg: 0.3,1\nspring_grid_n_per_m: 200\n"
            f"policies: {','.join(policies)}\nepisodes_per_cell: 2\nseeds_per_cell: 2\n"
        )
        out = tmp_path / "sw"
        argv = ["sweep", "--config", write_cfg(tmp_path, cfg_text), "--spec", str(spec), "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [c["substeps"] for c in manifest["substeps"]] == [2, 1]

        cfg = train_config_from_text(cfg_text)
        _, rows = read_rows(out / "heatmap.csv")
        assert len(rows) == 8
        for mass_kg, spring, token, avg, std in rows:
            mass_kg, spring = float(mass_kg), float(spring)
            policy = resolve_policy(token)
            key = hashlib.sha256(token.encode())
            if policy.checkpoint is not None:  # a greedy run's seeds follow the checkpoint's parameters
                policy.checkpoint = load_checkpoint(policy.checkpoint)
                key = hashlib.sha256(policy.checkpoint.net.flat.astype("<f8").tobytes())
            env_cfg = replace(cfg.env, phys=replace(cfg.env.phys, total_mass=mass_kg, spring_constant=spring))
            token_id = int(key.hexdigest()[:8], 16)
            powers = [
                reference_average(
                    policy, env_cfg, [cfg.seed, int(mass_kg * 1000), int(spring * 1000), token_id, ep, s],
                    cfg.env.horizon,
                )
                for ep in range(2)
                for s in range(2)
            ]
            assert (avg, std) == (repr(float(np.mean(powers))), repr(float(np.std(powers))))

    def test_one_checkpoint_under_two_paths_sweeps_alike(self, tmp_path):
        # greedy runs are seeded by the checkpoint's parameters, not by the path as typed
        first = Path(greedy_ckpt_path(tmp_path))
        (tmp_path / "elsewhere").mkdir()
        second = tmp_path / "elsewhere" / "renamed.ckpt"
        second.write_bytes(first.read_bytes())
        cfg, spec = write_cfg(tmp_path), tmp_path / "sweep.spec"
        rows = []
        for ckpt in (first, second):
            spec.write_text(f"mass_grid_kg: 10,5\nspring_grid_n_per_m: 100\npolicies: stay,{ckpt}\n")
            out = tmp_path / ckpt.stem
            assert main(["sweep", "--config", cfg, "--spec", str(spec), "--out", str(out)]) == 0
            rows.append(read_rows(out / "heatmap.csv")[1])
        assert [r[2] for r in rows[0][1::2]] == [str(first)] * 2 and [r[2] for r in rows[1][1::2]] == [str(second)] * 2
        assert [r[:2] + r[3:] for r in rows[0]] == [r[:2] + r[3:] for r in rows[1]]

    def test_wire_diverging_mid_block_fails_as_per_step(self, tmp_path, monkeypatch):
        # an adversary-free rollout advances its wires a block ahead of the steps it scores; a wire that goes
        # non-finite at interval 70, inside the second block, must raise what the per-step reference loop
        # raises, and a sweep must record that error's text for the failing cells
        advance, targets = wire.Integrator.advance, []

        def diverge_at_70(self, pos, vel, winds, rngs, time, track=None):
            first = round(time / self.dt)  # the call's first interval, of len(winds)
            if first <= 69 < first + len(winds):
                winds = winds.copy()
                winds[69 - first, np.isin(self.coeff[:, 0], targets)] = np.nan
            advance(self, pos, vel, winds, rngs, time, track)

        monkeypatch.setattr(wire.Integrator, "advance", diverge_at_70)
        physes = [wire.PhysParams(total_mass=10.0), wire.PhysParams(total_mass=0.3, spring_constant=200.0)]
        assert [wire.effective_substeps(p, 0.01, 1) for p in physes] == [1, 2]
        targets.append(physes[1].tension_coeff)
        env_cfg, policies = EnvConfig(), [Policy(PolicyKind.STAY), Policy(PolicyKind.UPPER_LIMIT)]
        with pytest.raises(wire.SimulationDivergedError) as batch:
            rollout(policies * 2, env_cfg, physes * 2, [[3, i] for i in range(4)], 100)
        with pytest.raises(wire.SimulationDivergedError) as alone:
            reference_average(policies[0], replace(env_cfg, phys=physes[1]), [3, 1], 100)
        assert round(alone.value.time / env_cfg.tau) == 70 and alone.value.n_sub == 2
        assert (batch.value.time, batch.value.n_sub, batch.value.bad_points.tolist(), str(batch.value)) == (
            alone.value.time, alone.value.n_sub, alone.value.bad_points.tolist(), str(alone.value))
        assert "within the interval's 2 substeps" in str(alone.value)

        cfg = write_cfg(tmp_path, SMALL_CFG.replace("observation_time_s: 0.4", "observation_time_s: 1.0"))
        spec = tmp_path / "sweep.spec"
        spec.write_text("mass_grid_kg: 10,5\nspring_grid_n_per_m: 100\npolicies: stay,upper_limit\n")
        targets[:] = [wire.PhysParams(total_mass=5.0).tension_coeff]
        assert main(["sweep", "--config", cfg, "--spec", str(spec), "--out", str(tmp_path / "bad")]) == 3
        sweep_env = train_config_from_text(Path(cfg).read_text()).env
        assert sweep_env.horizon == 100
        with pytest.raises(wire.SimulationDivergedError) as cell:
            reference_average(policies[0], replace(sweep_env, phys=wire.PhysParams(total_mass=5.0)), 0, 100)
        failed = json.loads((tmp_path / "bad" / "manifest.json").read_text())["failed_cells"]
        error = f"SimulationDivergedError: {cell.value}"
        assert [(c["mass_kg"], c["policy"], c["error"]) for c in failed] == [
            (5.0, "stay", error), (5.0, "upper_limit", error)]

    @pytest.mark.parametrize("interval, nan", [(65, "position"), (128, "wind")])
    def test_wire_diverging_at_block_edge_fails_as_per_step(self, tmp_path, monkeypatch, interval, nan):
        # a wire that goes non-finite in the first or the last interval of a rollout's second noise block, which
        # one Integrator.advance call steps, raises what the per-step reference loop raises, and a sweep records
        # that error's text for the failing cells: a NaN at point 1 when the block starts, which spreads point by
        # point, or a NaN wind in the block's last interval
        advance, targets = wire.Integrator.advance, []

        def diverge(self, pos, vel, winds, rngs, time, track=None):
            at, hit = interval - 1 - round(time / self.dt), np.isin(self.coeff[:, 0], targets)
            if nan == "position" and at == 0:
                pos[1, hit] = np.nan
            elif nan == "wind" and 0 <= at < len(winds):
                winds = winds.copy()
                winds[at, hit] = np.nan
            advance(self, pos, vel, winds, rngs, time, track)

        monkeypatch.setattr(wire.Integrator, "advance", diverge)
        physes = [wire.PhysParams(total_mass=10.0), wire.PhysParams(total_mass=0.3, spring_constant=200.0)]
        targets.append(physes[1].tension_coeff)
        env_cfg, policies = EnvConfig(), [Policy(PolicyKind.STAY), Policy(PolicyKind.UPPER_LIMIT)]
        with pytest.raises(wire.SimulationDivergedError) as batch:
            rollout(policies * 2, env_cfg, physes * 2, [[3, i] for i in range(4)], 200)
        with pytest.raises(wire.SimulationDivergedError) as alone:
            reference_average(policies[0], replace(env_cfg, phys=physes[1]), [3, 1], 200)
        assert round(alone.value.time / env_cfg.tau) == interval and alone.value.n_sub == 2
        assert (batch.value.time, batch.value.n_sub, batch.value.bad_points.tolist(), str(batch.value)) == (
            alone.value.time, alone.value.n_sub, alone.value.bad_points.tolist(), str(alone.value))

        cfg = write_cfg(tmp_path, SMALL_CFG.replace("observation_time_s: 0.4", "observation_time_s: 2.0"))
        spec = tmp_path / "sweep.spec"
        spec.write_text("mass_grid_kg: 10,5\nspring_grid_n_per_m: 100\npolicies: stay,upper_limit\n")
        targets[:] = [wire.PhysParams(total_mass=5.0).tension_coeff]
        assert main(["sweep", "--config", cfg, "--spec", str(spec), "--out", str(tmp_path / "bad")]) == 3
        sweep_env = train_config_from_text(Path(cfg).read_text()).env
        assert sweep_env.horizon == 200
        with pytest.raises(wire.SimulationDivergedError) as cell:
            reference_average(policies[0], replace(sweep_env, phys=wire.PhysParams(total_mass=5.0)), 0, 200)
        assert round(cell.value.time / sweep_env.tau) == interval
        failed = json.loads((tmp_path / "bad" / "manifest.json").read_text())["failed_cells"]
        error = f"SimulationDivergedError: {cell.value}"
        assert [(c["mass_kg"], c["policy"], c["error"]) for c in failed] == [
            (5.0, "stay", error), (5.0, "upper_limit", error)]

    def test_diverging_cell_only_fails_itself(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        spec = tmp_path / "sweep.spec"
        spec.write_text("mass_grid_kg: 10,5\nspring_grid_n_per_m: 100\npolicies: stay,upper_limit\n")
        argv = ["sweep", "--config", cfg, "--spec", str(spec), "--out"]
        assert main(argv + [str(tmp_path / "ok")]) == 0

        advance = wire.Integrator.advance

        def diverge_at_5_kg(self, pos, vel, winds, rngs, time, track=None):
            pos[1, self.coeff[:, 0] == 100.0 * 11 / 5.0] = np.nan
            advance(self, pos, vel, winds, rngs, time, track)

        # a 4 x 4 single-policy grid whose only diverging cell is 5 kg / 100 N/m
        big = tmp_path / "big.spec"
        big.write_text("mass_grid_kg: 10,5,20,40\nspring_grid_n_per_m: 100,50,150,25\npolicies: stay\n")
        big_argv = ["sweep", "--config", cfg, "--spec", str(big), "--out"]
        assert main(big_argv + [str(tmp_path / "big_ok")]) == 0

        calls = []
        monkeypatch.setattr(bench, "rollout", lambda *args, **kw: calls.append(len(args[0])) or rollout(*args, **kw))
        monkeypatch.setattr(wire.Integrator, "advance", diverge_at_5_kg)
        assert main(argv + [str(tmp_path / "bad")]) == 3
        _, ok_rows = read_rows(tmp_path / "ok" / "heatmap.csv")
        _, bad_rows = read_rows(tmp_path / "bad" / "heatmap.csv")
        assert bad_rows[:2] == ok_rows[:2]  # the 10 kg cells
        assert [r[3:] for r in bad_rows[2:]] == [["nan", "nan"]] * 2
        failed = json.loads((tmp_path / "bad" / "manifest.json").read_text())["failed_cells"]
        assert [(c["mass_kg"], c["policy"]) for c in failed] == [(5.0, "stay"), (5.0, "upper_limit")]
        assert all(c["error"].startswith("SimulationDivergedError") for c in failed)
        assert calls == [4, 2, 1, 1, 2, 1, 1]  # the batch, each policy, each policy's halves

        # halving finds the one failing cell of 16 in 2 * log2(16) reruns, not 16
        calls.clear()
        assert main(big_argv + [str(tmp_path / "big_bad")]) == 3
        assert calls == [16, 8, 4, 4, 2, 1, 1, 2, 8]  # depth first: each failing half before its sibling
        assert len(calls) <= 1 + 2 * np.ceil(np.log2(16))
        _, big_ok = read_rows(tmp_path / "big_ok" / "heatmap.csv")
        _, big_bad = read_rows(tmp_path / "big_bad" / "heatmap.csv")
        assert big_bad[:4] + big_bad[5:] == big_ok[:4] + big_ok[5:]
        assert big_bad[4][:2] == ["5.0", "100.0"] and big_bad[4][3:] == ["nan", "nan"]

    def test_failing_policy_leaves_the_others_batched(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "rollout", lambda *args, **kw: calls.append(len(args[0])) or rollout(*args, **kw))
        grid = "mass_grid_kg: 10,5\nspring_grid_n_per_m: 100,50\n"
        spec = tmp_path / "sweep.spec"
        spec.write_text(grid + "policies: stay,/nope/missing.ckpt\n")
        argv = ["sweep", "--config", write_cfg(tmp_path), "--spec", str(spec), "--out"]
        assert main(argv + [str(tmp_path / "mixed")]) == 3
        # the whole batch, then one batch per policy, then the failing policy in halves
        assert calls == [8, 4, 4, 2, 1, 1, 2, 1, 1]
        spec.write_text(grid + "policies: stay\n")
        assert main(argv + [str(tmp_path / "stay")]) == 0
        _, mixed = read_rows(tmp_path / "mixed" / "heatmap.csv")
        assert mixed[0::2] == read_rows(tmp_path / "stay" / "heatmap.csv")[1]
        assert [r[3:] for r in mixed[1::2]] == [["nan", "nan"]] * 4

    def test_failing_cell_flags_partial_exit(self, tmp_path):
        cfg = write_cfg(tmp_path)
        spec = tmp_path / "sweep.spec"
        spec.write_text("mass_grid_kg: 10\nspring_grid_n_per_m: 100\npolicies: stay,/nope/missing.ckpt\n")
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg, "--spec", str(spec), "--out", str(out)]) == 3
        header, rows = read_rows(out / "heatmap.csv")
        assert len(rows) == 2  # failed cell still has a row
        assert rows[1][3] == "nan"
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["failed_cells"]) == 1


class TestAntennaPatternCommand:
    def test_boresight_and_first_null(self, tmp_path):
        out = tmp_path / "ant"
        assert main(
            ["antenna-pattern", "--az-start", "-8", "--az-stop", "8", "--az-step", "0.01", "--out", str(out)]
        ) == 0
        header, rows = read_rows(out / "antenna_pattern.csv")
        assert header == ["azimuth_deg", "af_db", "ae_db", "at_db"]
        az = np.array([float(r[0]) for r in rows])
        at = np.array([float(r[3]) for r in rows])
        assert at[np.argmin(np.abs(az))] == pytest.approx(38.103, abs=0.001)
        # first local minimum over (0, 8]
        pos = az > 0
        az_p, at_p = az[pos], at[pos]
        local = np.nonzero((at_p[1:-1] < at_p[:-2]) & (at_p[1:-1] < at_p[2:]))[0]
        assert az_p[local[0] + 1] == pytest.approx(3.58, abs=0.02)

    def test_single_element_flat(self, tmp_path):
        cfg = write_cfg(tmp_path, "n_vertical: 1\nn_horizontal: 1\n")
        out = tmp_path / "ant1"
        main(["antenna-pattern", "--config", cfg, "--az-start", "-8", "--az-stop", "8", "--az-step", "0.1", "--out", str(out)])
        _, rows = read_rows(out / "antenna_pattern.csv")
        at = np.array([float(r[3]) for r in rows])
        assert at.max() - at.min() < 0.2
        assert at.max() == pytest.approx(8.0, abs=1e-9)

    def test_empty_range_rejected(self, tmp_path):
        out = tmp_path / "ant"
        assert main(["antenna-pattern", "--az-start", "5", "--az-stop", "-5", "--out", str(out)]) == 1
        assert not out.exists()


    @pytest.mark.parametrize("flag", ["--az-start", "--az-stop", "--az-step"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_rejected(self, tmp_path, capsys, flag, value):
        out = tmp_path / "ant"
        assert main(["antenna-pattern", f"{flag}={value}", "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and flag in err[0] and "finite" in err[0]
        assert not out.exists()

def _pattern_columns(azimuths):
    """antenna-pattern's header and numpy columns over `azimuths`."""
    af = radio.array_factor(90.0, azimuths, 90.0, 0.0, EnvConfig().antenna)
    ae = radio.element_pattern(90.0, azimuths, EnvConfig().antenna)
    return ["azimuth_deg", "af_db", "ae_db", "at_db"], [azimuths, af, ae, af + ae]


def _antenna_columns(n):
    return _pattern_columns(np.linspace(-180.0, 180.0, n))


def _curve_columns(n):
    rng = np.random.default_rng(n)
    powers = [float("nan") if e % 3 == 0 else p for e, p in enumerate(rng.normal(-20.0, 5.0, n).tolist())]
    header = ["episode", "protagonist_avg_power_dbm", "adversary_check_avg_power_dbm", "loss_p", "loss_a"]
    columns = [list(range(1, n + 1)), rng.normal(-15.0, 3.0, n).tolist(), powers, rng.random(n).tolist(), [float("nan")] * n]
    return header, columns


def _eval_columns(n):
    token = 'runs/a,"b"/protagonist.ckpt'  # a comma and a double quote: csv quotes the cell and doubles the quote
    return ["policy", "steps", "seed", "avg_power_dbm"], [[token] * n, [1000] * n, list(range(n)), [-13.25] * n]


def _trajectory_columns(n):
    _, rows = run_policy(Policy(PolicyKind.UPPER_LIMIT), EnvConfig(), n, 3)
    header = ["step", "t", "P_r_dbm", "r_p", "a_p", "a_a", "sbs_x", "sbs_y", "sbs_z", "theta_s", "phi_s"]
    return header, list(zip(*rows))


def _heatmap_columns(n):
    policies = ["stay", 'a,"b".ckpt', 'say "hi".ckpt']  # csv quotes a cell with a double quote and no comma too
    rows = [(float(1 + i % 7), 10.0 * (1 + i % 5), policies[i % 3], -13.5 - i, 0.0) for i in range(n)]
    rows[0] = rows[0][:3] + (float("nan"), float("nan"))  # a failed cell
    return ["mass_kg", "spring_n_per_m", "policy", "avg_power_dbm", "stddev"], list(zip(*rows))


def _non_finite_columns(n):
    values = np.resize([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1], n)
    return ["array", "list"], [values, values.tolist()]


def _mixed_float_columns(n):
    cells = [float(i) / 3.0 if i % 3 == 0 else np.float64(i) / 7.0 if i % 3 == 1 else np.float32(i) / 9 for i in range(n)]
    return ["mixed", "float32"], [cells, np.arange(n, dtype=np.float32) / 3]


def _int_columns(n):
    mixed = [i if i % 2 else i + 0.5 for i in range(n)]  # each int stays an int, each float a float
    columns = [list(range(-2, n - 2)), np.arange(n) * 10**12, list(np.arange(n)), mixed]
    return ["python", "numpy_array", "numpy_list", "mixed"], columns


class TestCsvWriter:
    """bench._write_csv writes the bytes of the per-cell reference row writer."""

    @pytest.mark.parametrize("rows", [1, bench.CSV_SLICE_ROWS, bench.CSV_SLICE_ROWS + 1])
    @pytest.mark.parametrize(
        "make",
        [
            _antenna_columns,
            _curve_columns,
            _eval_columns,
            _trajectory_columns,
            _heatmap_columns,
            _non_finite_columns,
            _mixed_float_columns,
            _int_columns,
        ],
    )
    def test_matches_reference_row_writer(self, tmp_path, make, rows):
        header, columns = make(rows)
        bench._write_csv(tmp_path / "columns.csv", header, columns)
        reference_write_csv(tmp_path / "rows.csv", header, list(zip(*columns)))
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_int_column_stays_int(self, tmp_path):
        bench._write_csv(tmp_path / "t.csv", ["n", "x"], [[5, 6], np.array([0.5, 1.0])])
        assert (tmp_path / "t.csv").read_bytes() == b"n,x\r\n5,0.5\r\n6,1.0\r\n"

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            bench._write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [1.0]])

    def test_antenna_pattern_command_matches_reference(self, tmp_path):
        # the benchmark's 36001-azimuth cut: nine slices, the last one short
        out = tmp_path / "ant"
        assert main(["antenna-pattern", "--az-step", "0.01", "--out", str(out)]) == 0
        header, columns = _pattern_columns(np.arange(-180.0, 180.0 + 0.005, 0.01))
        rows = list(zip(*columns))
        reference_write_csv(tmp_path / "ref.csv", header, rows)
        assert len(rows) == 36001
        assert (out / "antenna_pattern.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestSimulateCommand:
    def test_row_count_and_columns(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--policy", "stay", "--steps", "50", "--out", str(out)]) == 0
        header, rows = read_rows(out / "trajectory.csv")
        assert header == ["step", "t", "P_r_dbm", "r_p", "a_p", "a_a", "sbs_x", "sbs_y", "sbs_z", "theta_s", "phi_s"]
        assert len(rows) == 50

    def test_frozen_env_constant_power(self, tmp_path):
        cfg = write_cfg(tmp_path, "ambient_wind: false\nwind_cov_scale: 0.0\n")
        out = tmp_path / "sim"
        main(["simulate", "--config", cfg, "--policy", "stay", "--steps", "40", "--out", str(out)])
        _, rows = read_rows(out / "trajectory.csv")
        powers = np.array([float(r[2]) for r in rows])
        np.testing.assert_allclose(powers, -12.8812, atol=0.001)

    def test_upper_limit_at_least_stay(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out_s, out_u = tmp_path / "s", tmp_path / "u"
        main(["simulate", "--config", cfg, "--policy", "stay", "--steps", "100", "--out", str(out_s)])
        main(["simulate", "--config", cfg, "--policy", "upper_limit", "--steps", "100", "--out", str(out_u)])
        p_s = np.mean([float(r[2]) for r in read_rows(out_s / "trajectory.csv")[1]])
        p_u = np.mean([float(r[2]) for r in read_rows(out_u / "trajectory.csv")[1]])
        assert p_u >= p_s


class TestEvalCommand:
    def test_eval_baseline(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "ev"
        assert main(["eval", "--config", cfg, "--policy", "stay", "--steps", "30", "--out", str(out)]) == 0
        header, rows = read_rows(out / "eval.csv")
        assert header == ["policy", "steps", "seed", "avg_power_dbm"]
        assert rows[0][0] == "stay" and rows[0][1] == "30"

    def test_eval_requires_policy(self, tmp_path):
        out = tmp_path / "x"
        assert main(["eval", "--out", str(out)]) == 1
        assert not out.exists()
        assert main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "simulate"])
    @pytest.mark.parametrize("from_env", [False, True])
    def test_checkpoint_and_policy_rejected(self, tmp_path, monkeypatch, capsys, command, from_env):
        ckpt = greedy_ckpt_path(tmp_path)
        out = tmp_path / "run"
        argv = [command, "--config", write_cfg(tmp_path), "--policy", "stay", "--steps", "5", "--out", str(out)]
        if from_env:
            monkeypatch.setenv("WIREBEAM_CHECKPOINT", ckpt)
        else:
            argv += ["--checkpoint", ckpt]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--checkpoint" in err and "--policy" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "simulate"])
    @pytest.mark.parametrize("steps", [0, -3])
    @pytest.mark.parametrize("from_env", [False, True])
    def test_steps_below_one_rejected(self, tmp_path, monkeypatch, capsys, command, steps, from_env):
        # an absent --steps takes the horizon; a given one below 1 is an error, not the horizon
        out = tmp_path / "run"
        argv = [command, "--config", write_cfg(tmp_path), "--policy", "stay", "--out", str(out)]
        if from_env:
            monkeypatch.setenv("WIREBEAM_STEPS", str(steps))
        else:
            argv += ["--steps", str(steps)]
        assert main(argv) == 1
        assert f"{command}: --steps must be >= 1, got {steps}" in capsys.readouterr().err
        assert not out.exists()


class TestActionCount:
    """A checkpoint with the wrong action count is no tracker: eval and simulate
    reject it before writing, a sweep fails only its cells."""

    @staticmethod
    def adversary_path(tmp_path):
        path = tmp_path / "adversary.ckpt"
        net = init_qnetwork(7, np.random.default_rng(5), head_scale=1.0)
        manifest = {"obs_norm": make_normalizer(EnvConfig()).manifest_entry()}
        save_checkpoint(path, AgentCheckpoint(net=net, manifest=manifest))
        return str(path)

    @pytest.mark.parametrize("command", ["eval", "simulate"])
    def test_adversary_checkpoint_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        argv = [command, "--config", write_cfg(tmp_path), "--checkpoint", self.adversary_path(tmp_path)]
        assert main(argv + ["--steps", "20", "--out", str(out)]) == 1
        assert "has 7 actions; a tracker needs 5" in capsys.readouterr().err
        assert not out.exists()

    def test_adversary_checkpoint_fails_its_sweep_cells(self, tmp_path):
        spec = tmp_path / "sweep.spec"
        adversary = self.adversary_path(tmp_path)
        spec.write_text(f"mass_grid_kg: 10,5\nspring_grid_n_per_m: 100\npolicies: stay,{adversary}\n")
        out = tmp_path / "sw"
        assert main(["sweep", "--config", write_cfg(tmp_path), "--spec", str(spec), "--out", str(out)]) == 3
        failed = json.loads((out / "manifest.json").read_text())["failed_cells"]
        assert [(c["mass_kg"], c["policy"]) for c in failed] == [(10.0, adversary), (5.0, adversary)]
        assert all("n_actions 7" in c["error"] for c in failed)
        _, rows = read_rows(out / "heatmap.csv")
        assert [r[3] != "nan" for r in rows] == [True, False, True, False]


class TestManifest:
    COMMON = {"command", "code_version", "config", "seeds", "started_utc", "finished_utc", "outputs"}

    @pytest.mark.parametrize(
        "command, flags, extra",
        [
            ("train", ["--variant", "rarl"], {"variant", "episodes"}),
            ("eval", ["--policy", "stay", "--steps", "20"], set()),
            ("simulate", ["--policy", "upper_limit", "--steps", "20"], set()),
            ("sweep", ["--spec", "sweep.spec"], {"cells", "substeps", "failed_cells"}),
            ("antenna-pattern", ["--az-start", "-2", "--az-stop", "2"], set()),
        ],
    )
    def test_manifest_contract(self, tmp_path, monkeypatch, command, flags, extra):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sweep.spec").write_text("mass_grid_kg: 10,5\nspring_grid_n_per_m: 100\npolicies: stay,upper_limit\n")
        cfg = write_cfg(tmp_path, SMALL_CFG.replace("episodes: 2", "episodes: 1"))
        out = tmp_path / "run"
        assert main([command, "--config", cfg, "--out", str(out)] + flags) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == self.COMMON | extra
        assert manifest["command"] == command
        files = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert manifest["outputs"] == {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in files}
        assert manifest["seeds"] == ([] if command == "antenna-pattern" else [7])
        snapshot = train_config_from_text(manifest["config"])
        assert serialize_train_config(snapshot) == manifest["config"]
        assert snapshot.seed == 7 and snapshot.env.horizon == train_config_from_text(SMALL_CFG).env.horizon
        assert manifest["started_utc"] <= manifest["finished_utc"]


class TestEnvVarOverrides:
    def test_env_vars_mirror_flags(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "envrun"
        monkeypatch.setenv("WIREBEAM_CONFIG", cfg)
        monkeypatch.setenv("WIREBEAM_OUT", str(out))
        monkeypatch.setenv("WIREBEAM_STEPS", "25")
        assert main(["simulate", "--policy", "stay"]) == 0
        _, rows = read_rows(out / "trajectory.csv")
        assert len(rows) == 25

    @pytest.mark.parametrize("name", ["STEPS", "SEED"])
    def test_malformed_int_env_var_fails_only_its_commands(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.setenv(f"WIREBEAM_{name}", "abc")
        out = tmp_path / "ant"
        argv = ["antenna-pattern", "--az-start", "-1", "--az-stop", "1", "--out", str(out)]
        if name == "STEPS":  # antenna-pattern takes no --steps
            assert main(argv) == 0
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2 and "invalid int value: 'abc'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--policy", "stay", "--out", str(tmp_path / "sim")])
        assert exc.value.code == 2
        assert f"argument --{name.lower()}: invalid int value: 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        monkeypatch.setenv("WIREBEAM_STEPS", "25")
        out = tmp_path / "flagrun"
        assert main(["simulate", "--policy", "stay", "--config", cfg, "--out", str(out), "--steps", "10"]) == 0
        _, rows = read_rows(out / "trajectory.csv")
        assert len(rows) == 10


class TestOrchestrationPurity:
    def test_library_modules_do_not_import_cli(self):
        code = (
            "import sys; import wirebeam.rarl, wirebeam.env, wirebeam.deepq, "
            "wirebeam.radio, wirebeam.wire; "
            "assert 'wirebeam.bench' not in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_runs_on_numpy_alone(self, tmp_path):
        # scipy is a test dependency only: importing the package and running
        # commands, wire equilibrium included, must not load it
        code = (
            "import sys, wirebeam; from wirebeam.bench import main; "
            "assert main(['antenna-pattern', '--az-start', '0', '--az-stop', '2', '--az-step', '0.5', "
            "'--out', 'pattern']) == 0; "
            "assert main(['simulate', '--steps', '3', '--out', 'sim']) == 0; "
            "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')); "
            "assert not loaded, loaded"
        )
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "pattern" / "antenna_pattern.csv").is_file() and (tmp_path / "sim" / "trajectory.csv").is_file()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("garbage\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "text, field",
        [
            ("batch_size: 64\nreplay_capacity: 16\n", "replay_capacity"),
            ("learning_rate: -0.1\n", "learning_rate"),
            ("gamma: 1.5\n", "gamma"),
            ("batch_size: 0\n", "batch_size"),
            ("hidden_units: 32,0\n", "hidden"),
        ],
    )
    def test_learner_settings_are_config_errors(self, tmp_path, capsys, text, field):
        out = tmp_path / "o"
        assert main(["train", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert not (out / "curve.csv").exists()

    def test_non_finite_value_is_a_config_error(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, SMALL_CFG + "adversary_speed_m_per_s: nan\n")  # trains and exits 0 if accepted
        assert main(["train", "--config", bad, "--out", str(tmp_path / "o")]) == 1
        assert "config error: line 6: adversary_speed_m_per_s must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    @pytest.mark.parametrize("form", ["flag", "env", "config"])
    def test_negative_seed_is_refused_before_writing(self, tmp_path, monkeypatch, capsys, command, form):
        out = tmp_path / "o"
        argv = [command, "--out", str(out)] + (["--policy", "stay"] if command == "eval" else [])
        if form == "flag":
            argv += ["--seed", "-1"]
        elif form == "env":
            monkeypatch.setenv("WIREBEAM_SEED", "-1")
        else:
            argv += ["--config", write_cfg(tmp_path, "seed: -1\n")]
        assert main(argv) == 1
        prefix = "config error: " if form == "config" else "error: "
        assert capsys.readouterr().err == f"{prefix}seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, grid", [("mass_grid_kg", "mass_grid"), ("spring_grid_n_per_m", "spring_grid")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_sweep_grid_is_a_config_error(self, tmp_path, capsys, key, grid, value):
        spec = tmp_path / "sweep.spec"
        spec.write_text(f"{key}: 5,{value}\n")
        out = tmp_path / "sw"
        assert main(["sweep", "--config", write_cfg(tmp_path), "--spec", str(spec), "--out", str(out)]) == 1
        assert f"config error: line 1: {key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_rest_shape_is_refused_before_writing(self, tmp_path, capsys):
        # g * m / (k0 * N) overflows: the check phase refuses the wire, with no numpy overflow warning
        bad = write_cfg(tmp_path, "total_mass_kg: 1e300\nspring_constant_n_per_m: 1e-300\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", bad, "--steps", "3", "--out", str(out)]) == 1
        assert "error: wire equilibrium system is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_sweep_cell_is_refused_before_writing(self, tmp_path, capsys):
        spec = tmp_path / "sweep.spec"
        spec.write_text("mass_grid_kg: 10,1e300\nspring_grid_n_per_m: 100,1e-300\n")
        out = tmp_path / "sw"
        assert main(["sweep", "--config", write_cfg(tmp_path), "--spec", str(spec), "--out", str(out)]) == 1
        assert "error: wire equilibrium system is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("masses, springs, grid", [("1e306", "1e306", "mass_grid"), ("1e305", "1e306", "spring_grid")])
    def test_overflowing_sweep_seed_key_is_refused_before_writing(self, tmp_path, capsys, masses, springs, grid):
        # each wire is stable, but a cell's seed keys its mass and spring constant as int(value * 1000)
        spec = tmp_path / "sweep.spec"
        spec.write_text(f"mass_grid_kg: {masses}\nspring_grid_n_per_m: {springs}\n")
        out = tmp_path / "sw"
        assert main(["sweep", "--config", write_cfg(tmp_path), "--spec", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {grid} value 1e+306 is too large")
        assert not out.exists()

    def test_underflowing_stability_bound_is_refused_before_writing(self, tmp_path, capsys):
        # 2*sqrt(m / (2*k0*N)) underflows to 0 s, so no substep count keeps the wire stable
        bad = write_cfg(tmp_path, "total_mass_kg: 1e-300\nspring_constant_n_per_m: 1e300\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", bad, "--steps", "3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no finite substep count keeps the wire stable") and err.count("\n") == 1
        assert not out.exists()

    def test_underflowing_sweep_cell_is_refused_before_writing(self, tmp_path, capsys):
        spec = tmp_path / "sweep.spec"
        # the underflowing cell first: (10 kg, 1e300 N/m) needs ~1e148 substeps, which the substep cap refuses
        spec.write_text("mass_grid_kg: 1e-300,10\nspring_grid_n_per_m: 1e300,100\n")
        out = tmp_path / "sw"
        assert main(["sweep", "--config", write_cfg(tmp_path), "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no finite substep count keeps the wire stable") and err.count("\n") == 1
        assert not out.exists()

    def test_astronomical_substep_count_is_refused_before_writing(self, tmp_path, capsys):
        # a light, soft wire is stable only at ~1e143 substeps per decision: refused at once, not run for ages
        bad = write_cfg(tmp_path, "total_mass_kg: 1e-300\nspring_constant_n_per_m: 1e-10\n")
        out = tmp_path / "sim"
        t0 = time.perf_counter()
        assert main(["simulate", "--config", bad, "--steps", "3", "--out", str(out)]) == 1
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error: the wire needs 4.") and err.count("\n") == 1
        assert "more than MAX_SUBSTEPS = 1000 (total_mass 1e-300 kg, spring_constant 1e-10 N/m, drag_constant" in err
        assert not out.exists()

    def test_astronomical_substep_sweep_cell_is_refused_before_writing(self, tmp_path, capsys):
        spec = tmp_path / "sweep.spec"
        spec.write_text("mass_grid_kg: 10,1e-300\nspring_grid_n_per_m: 100,1e-10\n")
        out = tmp_path / "sw"
        t0 = time.perf_counter()
        assert main(["sweep", "--config", write_cfg(tmp_path), "--spec", str(spec), "--out", str(out)]) == 1
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error: the wire needs ") and err.count("\n") == 1
        assert "decision_interval_s 0.01 s)" in err
        assert not out.exists()

    def test_overflowing_horizon_is_a_config_error(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, "observation_time_s: 1e308\ndecision_interval_s: 1e-10\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", bad, "--out", str(out)]) == 1
        assert "config error: observation_time_s / decision_interval_s overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_decision_interval_is_a_config_error(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, "decision_interval_s: 0\n")
        assert main(["train", "--config", bad, "--out", str(tmp_path / "o")]) == 1
        assert "config error: decision_interval_s must be > 0" in capsys.readouterr().err


class TestBenchmarkTracer:
    def test_harness_imports_resolve(self):
        # every name the benchmark harness takes from the package must still exist
        source = (Path(__file__).resolve().parents[1] / "benchmarks" / "run.py").read_text(encoding="utf-8")
        names = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module in ("wirebeam", "wirebeam.bench"):
                names += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                names += [(alias.name, None) for alias in node.names if alias.name.startswith("wirebeam")]
        assert ("wirebeam.bench", "main") in names
        for module, name in names:
            owner = importlib.import_module(module)
            assert name is None or hasattr(owner, name), f"benchmarks/run.py imports {module}.{name}, which is gone"
        assert callable(QNetwork.parameters)  # run.py checks every parameter array of a written checkpoint


    def test_targets_resolve(self):
        # every function the traced benchmark run wraps must still exist
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
        module_spec = importlib.util.spec_from_file_location("wirebeam_bench_tracer", path)
        tracer = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(tracer)
        assert tracer.TARGETS
        for name, module, attr in tracer.TARGETS:
            owner = importlib.import_module(module)
            for part in attr.split("."):
                assert hasattr(owner, part), f"{name}: {module}.{attr} is gone"
                owner = getattr(owner, part)
            assert callable(owner), name
