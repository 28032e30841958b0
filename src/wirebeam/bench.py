"""Command-line orchestration: train, eval, sweep, antenna-pattern, simulate.

Pure plumbing: configs in, CSV artifacts and a run manifest out. All
physics and learning math lives in the library modules. Flags can also be
supplied through WIREBEAM_* environment variables (a flag wins over its
variable).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, radio
from .checkpoint import load_checkpoint, param_digest, save_checkpoint
from .config import (
    ConfigError,
    SweepSpec,
    load_config,
    load_sweep_spec,
    serialize_train_config,
    train_config_from_text,
)
from .rarl import Policy, PolicyKind, pretrain_proxy, rollout, run_policy, train
from .wire import effective_substeps, equilibrium_shape

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 3

BASELINE_NAMES = {p.value for p in PolicyKind if p is not PolicyKind.GREEDY_DQN}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(out_dir: Path, command: str, config_text: str, seeds, outputs, extra=None):
    """Record the run: config snapshot, seeds, code version, output hashes."""
    manifest = {
        "command": command,
        "code_version": __version__,
        "config": config_text,
        "seeds": seeds,
        "started_utc": outputs.pop("__started__", None),
        "finished_utc": _utcnow(),
        "outputs": {name: _sha256(path) for name, path in outputs.items()},
    }
    if extra:
        manifest.update(extra)
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )


def resolve_policy(token: str) -> Policy:
    """A policy token is a baseline name or a checkpoint path."""
    if token in BASELINE_NAMES:
        return Policy(PolicyKind(token))
    return Policy(PolicyKind.GREEDY_DQN, checkpoint=token)


def _load_cfg(args):
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = train_config_from_text("")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "variant", None):
        cfg = replace(cfg, variant=args.variant)
    return cfg


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _utcnow()
    outputs = {"__started__": started}

    run_cfg = cfg
    if cfg.variant == "rarl" and cfg.proxy_checkpoint is None:
        proxy = pretrain_proxy(cfg)
        proxy_path = out / "proxy.ckpt"
        save_checkpoint(proxy_path, proxy)
        outputs["proxy.ckpt"] = proxy_path
        # train on the in-memory proxy; the config snapshot names the saved file
        run_cfg = replace(cfg, proxy_checkpoint=proxy)
        cfg = replace(cfg, proxy_checkpoint=str(proxy_path))

    result = train(run_cfg)

    ckpt_path = out / "protagonist.ckpt"
    save_checkpoint(ckpt_path, result.protagonist)
    outputs["protagonist.ckpt"] = ckpt_path
    if result.adversary is not None:
        adv_path = out / "adversary.ckpt"
        save_checkpoint(adv_path, result.adversary)
        outputs["adversary.ckpt"] = adv_path

    curve_path = out / "curve.csv"
    _write_csv(
        curve_path,
        ["episode", "protagonist_avg_power_dbm", "adversary_check_avg_power_dbm", "loss_p", "loss_a"],
        [
            (r.episode, r.protagonist_avg_power, r.adversary_check_avg_power, r.loss_p, r.loss_a)
            for r in result.records
        ],
    )
    outputs["curve.csv"] = curve_path

    write_manifest(
        out,
        "train",
        serialize_train_config(cfg),
        [cfg.seed],
        outputs,
        extra={"variant": cfg.variant, "episodes": cfg.episodes},
    )
    print(f"train: {cfg.episodes} episodes ({cfg.variant}) -> {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _utcnow()
    token = args.checkpoint or args.policy
    if not token:
        print("eval: need --checkpoint or --policy", file=sys.stderr)
        return EXIT_ERROR
    policy = resolve_policy(token)
    steps = args.steps or cfg.env.horizon
    avg, _ = run_policy(policy, cfg.env, steps, cfg.seed)

    eval_path = out / "eval.csv"
    _write_csv(
        eval_path,
        ["policy", "steps", "seed", "avg_power_dbm"],
        [(token, steps, cfg.seed, avg)],
    )
    write_manifest(
        out,
        "eval",
        serialize_train_config(cfg),
        [cfg.seed],
        {"__started__": started, "eval.csv": eval_path},
    )
    print(f"eval: {token} avg power {avg:.4f} dBm over {steps} steps")
    return EXIT_OK


def _seed_key(token: str, policy: Policy) -> int:
    """What a sweep policy's run seeds are keyed by: a greedy policy's
    checkpoint content (param_digest), so one checkpoint gives the same runs
    under any path, a baseline's name. The checkpoint is loaded into the
    policy here."""
    digest = hashlib.sha256(token.encode()).hexdigest()
    if policy.kind is PolicyKind.GREEDY_DQN:
        try:
            policy.checkpoint = load_checkpoint(policy.checkpoint)
        except (OSError, ValueError):
            pass  # keyed by its path; the rollout reads it again and reports the error
        else:
            digest = param_digest(policy.checkpoint.net)
    return int(digest[:8], 16)


def _sweep_units(cfg, spec, units):
    """(mass, spring, policy token, mean, std, error) of each (mass, spring,
    policy token) unit over its episodes x seeds runs, all in one batched
    rollout. A failed batch is rerun one policy at a time, and a failing
    policy in halves, so only failing units are marked, the healthy policies
    stay batched, and one failing unit among n costs about 2*log2(n) reruns."""
    policies = {token: resolve_policy(token) for _, _, token in units}
    ids = {token: _seed_key(token, policy) for token, policy in policies.items()}
    runs = [(*u, ep, s) for u in units for ep, s in np.ndindex(spec.episodes_per_cell, spec.seeds_per_cell)]
    physes = [replace(cfg.env.phys, total_mass=m, spring_constant=k) for m, k, *_ in runs]
    entropy = [[cfg.seed, int(m * 1000), int(k * 1000), ids[token], ep, s] for m, k, token, ep, s in runs]
    try:
        avg, _ = rollout([policies[run[2]] for run in runs], cfg.env, physes, entropy, cfg.env.horizon)
    except Exception as exc:  # record divergence, keep sweeping
        if len(units) == 1:
            return [(*units[0], float("nan"), float("nan"), f"{type(exc).__name__}: {exc}")]
        if len(policies) > 1:
            parts = [[u for u in units if u[2] == token] for token in policies]
        else:
            parts = [units[: len(units) // 2], units[len(units) // 2 :]]
        done = {}
        for part in parts:
            done.update(zip(part, _sweep_units(cfg, spec, part)))
        return [done[u] for u in units]
    return [(*u, float(np.mean(p)), float(np.std(p)), "") for u, p in zip(units, np.split(avg, len(units)))]


def cmd_sweep(args) -> int:
    if args.spec and args.checkpoint:  # a spec names its own policies
        print("sweep: --spec and --checkpoint (or WIREBEAM_CHECKPOINT) exclude each other", file=sys.stderr)
        return EXIT_ERROR
    cfg = _load_cfg(args)
    if args.spec:
        spec = load_sweep_spec(args.spec)
    else:
        spec = SweepSpec(policies=[args.checkpoint]) if args.checkpoint else SweepSpec()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _utcnow()

    grid = [(m, k) for m in spec.mass_grid for k in spec.spring_grid]
    physes = [replace(cfg.env.phys, total_mass=m, spring_constant=k) for m, k in grid]
    substeps = [effective_substeps(p, cfg.env.tau, cfg.env.substeps) for p in physes]
    rest_z = [float(equilibrium_shape(p).positions[cfg.env.sbs_index, 2]) for p in physes]  # of the station
    results = _sweep_units(cfg, spec, [(m, k, token) for m, k in grid for token in spec.policies])
    failures = [r for r in results if r[5]]
    heatmap_path = out / "heatmap.csv"
    _write_csv(
        heatmap_path,
        ["mass_kg", "spring_n_per_m", "policy", "avg_power_dbm", "stddev"],
        [r[:5] for r in results],
    )
    write_manifest(
        out,
        "sweep",
        serialize_train_config(cfg),
        [cfg.seed],
        {"__started__": started, "heatmap.csv": heatmap_path},
        extra={
            "cells": len(results),
            "substeps": [  # per cell; a station resting below the ground plane (z < 0) is flagged
                {"mass_kg": m, "spring_n_per_m": k, "substeps": n, "rest_z_m": z, "below_ground": z < 0}
                for (m, k), n, z in zip(grid, substeps, rest_z)
            ],
            "failed_cells": [
                {"mass_kg": r[0], "spring_n_per_m": r[1], "policy": r[2], "error": r[5]}
                for r in failures
            ],
        },
    )
    print(f"sweep: {len(results)} cells, {len(failures)} failed -> {heatmap_path}")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_antenna_pattern(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _utcnow()
    if args.az_step <= 0 or args.az_stop < args.az_start:
        print("antenna-pattern: empty azimuth range", file=sys.stderr)
        return EXIT_ERROR
    azimuths = np.arange(
        args.az_start, args.az_stop + args.az_step / 2, args.az_step
    )
    antenna = cfg.env.antenna
    af = radio.array_factor(90.0, azimuths, 90.0, 0.0, antenna)
    ae = radio.element_pattern(90.0, azimuths, antenna)
    pattern_path = out / "antenna_pattern.csv"
    _write_csv(
        pattern_path,
        ["azimuth_deg", "af_db", "ae_db", "at_db"],
        [(float(az), float(f), float(e), float(f + e)) for az, f, e in zip(azimuths, af, ae)],
    )
    write_manifest(
        out,
        "antenna-pattern",
        serialize_train_config(cfg),
        [],
        {"__started__": started, "antenna_pattern.csv": pattern_path},
    )
    print(f"antenna-pattern: {len(azimuths)} samples -> {pattern_path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _utcnow()
    token = args.checkpoint or args.policy or "stay"
    policy = resolve_policy(token)
    steps = args.steps or cfg.env.horizon
    avg, rows = run_policy(policy, cfg.env, steps, cfg.seed)

    traj_path = out / "trajectory.csv"
    _write_csv(
        traj_path,
        ["step", "t", "P_r_dbm", "r_p", "a_p", "a_a", "sbs_x", "sbs_y", "sbs_z", "theta_s", "phi_s"],
        rows,
    )
    write_manifest(
        out,
        "simulate",
        serialize_train_config(cfg),
        [cfg.seed],
        {"__started__": started, "trajectory.csv": traj_path},
    )
    print(f"simulate: {token} avg power {avg:.4f} dBm over {steps} steps -> {traj_path}")
    return EXIT_OK


def _env_default(name, cast=str, fallback=None):
    raw = os.environ.get(f"WIREBEAM_{name}")
    if raw is None:
        return fallback
    return cast(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wirebeam", description="Beam-tracking simulation and training bench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, steps=False):
        p.add_argument("--config", default=_env_default("CONFIG"), help="config file path")
        p.add_argument("--seed", type=int, default=_env_default("SEED", int))
        p.add_argument("--out", default=_env_default("OUT", fallback="out"), help="output directory")
        if steps:
            p.add_argument("--steps", type=int, default=_env_default("STEPS", int))

    p_train = sub.add_parser("train", help="run the training loop, write checkpoints and curve")
    common(p_train)
    p_train.add_argument("--variant", default=_env_default("VARIANT"))
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint or baseline policy")
    common(p_eval, steps=True)
    p_eval.add_argument("--checkpoint", default=_env_default("CHECKPOINT"))
    p_eval.add_argument("--policy", default=None, help="stay | upper_limit | random_uniform")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="robustness grid over mass and spring constant")
    common(p_sweep)
    p_sweep.add_argument("--spec", default=None, help="sweep spec file")
    p_sweep.add_argument("--checkpoint", default=_env_default("CHECKPOINT"))
    p_sweep.add_argument("--workers", type=int, default=None, help="accepted and ignored")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ant = sub.add_parser("antenna-pattern", help="export an azimuth gain cut as CSV")
    common(p_ant)
    p_ant.add_argument("--az-start", type=float, default=-180.0)
    p_ant.add_argument("--az-stop", type=float, default=180.0)
    p_ant.add_argument("--az-step", type=float, default=0.1)
    p_ant.set_defaults(func=cmd_antenna_pattern)

    p_sim = sub.add_parser("simulate", help="roll one policy and log the trajectory")
    common(p_sim, steps=True)
    p_sim.add_argument("--checkpoint", default=_env_default("CHECKPOINT"))
    p_sim.add_argument("--policy", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
