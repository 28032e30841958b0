"""Command-line orchestration: train, eval, sweep, antenna-pattern, simulate.

Pure plumbing: configs in, CSV artifacts and a run manifest out. All
physics and learning math lives in the library modules. Flags can also be
supplied through WIREBEAM_* environment variables (a flag wins over its
variable).

Every command runs in two phases (`_run`). The check phase loads the config
and parses and checks every other input; a rejected input exits 1 and writes
nothing. The write phase makes the output directory, runs the command's body,
which writes its files, and records them in one `manifest.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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
from .rarl import N_PROTAGONIST_ACTIONS, Policy, PolicyKind, rollout, run_policy, train
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


def write_manifest(out_dir: Path, command: str, config_text: str, seeds, outputs, started: str, extra=None):
    """Record the run: config snapshot, seeds, code version, start and end
    times, and the sha256 of each output file (names in `out_dir`)."""
    manifest = {
        "command": command,
        "code_version": __version__,
        "config": config_text,
        "seeds": seeds,
        "started_utc": started,
        "finished_utc": _utcnow(),
        "outputs": {name: _sha256(out_dir / name) for name in outputs},
        **(extra or {}),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


CSV_SLICE_ROWS = 4096  # rows formatted and written at a time, which bounds the text held in memory


def _field(value) -> str:
    """A CSV cell, quoted as csv.writer quotes: a float (Python or numpy) as its shortest repr, else str."""
    text = repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _write_csv(path: Path, header, columns):
    """Write equal-length columns (arrays, lists or tuples) as csv.writer writes rows of
    `_field` cells, in CRLF lines; a float array takes one repr per cell, in slices."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_field, header)) + "\r\n")
        for a in range(0, max(map(len, columns), default=0), CSV_SLICE_ROWS):
            cells = [map(repr, p.tolist()) if isinstance(p, np.ndarray) and p.dtype.kind == "f" else map(_field, p)
                     for p in (column[a : a + CSV_SLICE_ROWS] for column in columns)]
            fh.write("\r\n".join(map(",".join, zip(*cells, strict=True))) + "\r\n")


def resolve_policy(token: str) -> Policy:
    """A policy token is a baseline name or a checkpoint path."""
    if token in BASELINE_NAMES:
        return Policy(PolicyKind(token))
    return Policy(PolicyKind.GREEDY_DQN, checkpoint=token)


class _Rejected(Exception):
    """An input that the check phase turns down; `main` prints the message as is."""


def _load_cfg(args):
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = train_config_from_text("")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "variant", None):
        cfg = replace(cfg, variant=args.variant)
    # refuse a wire whose rest shape overflows or that no substep count keeps stable; cmd_sweep checks each cell's
    equilibrium_shape(cfg.env.phys)
    effective_substeps(cfg.env.phys, cfg.env.tau, cfg.env.substeps)
    return cfg


def _run(args) -> int:
    """Check, then write. `args.func` checks the command's inputs and returns
    the config to record and the body, which writes the files and returns
    (their names, manifest extras or None, summary line, exit code)."""
    out = Path(args.out)
    cfg, body = args.func(args, _load_cfg(args), out)
    config_text = serialize_train_config(cfg)
    out.mkdir(parents=True, exist_ok=True)
    started = _utcnow()
    outputs, extra, summary, code = body()
    seeds = [] if args.command == "antenna-pattern" else [cfg.seed]  # the pattern draws no random numbers
    write_manifest(out, args.command, config_text, seeds, outputs, started, extra)
    print(summary)
    return code


def cmd_train(args, cfg, out):
    snapshot = cfg
    # a rarl run without a proxy trains its own; the snapshot names its saved file
    if cfg.variant == "rarl" and cfg.proxy_checkpoint is None:
        snapshot = replace(cfg, proxy_checkpoint=str(out / "proxy.ckpt"))

    def body():
        result, names = train(cfg), []
        for name, ckpt in (
            ("proxy.ckpt", result.proxy),
            ("protagonist.ckpt", result.protagonist),
            ("adversary.ckpt", result.adversary),
        ):
            if ckpt is not None:
                save_checkpoint(out / name, ckpt)
                names.append(name)
        _write_csv(
            out / "curve.csv",
            ["episode", "protagonist_avg_power_dbm", "adversary_check_avg_power_dbm", "loss_p", "loss_a"],
            list(zip(*[(r.episode, r.protagonist_avg_power, r.adversary_check_avg_power, r.loss_p, r.loss_a)
                       for r in result.records])),
        )
        extra = {"variant": cfg.variant, "episodes": cfg.episodes}
        summary = f"train: {cfg.episodes} episodes ({cfg.variant}) -> {out}"
        return names + ["curve.csv"], extra, summary, EXIT_OK

    return snapshot, body


def cmd_policy(args, cfg, out):
    """eval and simulate: roll one policy, a baseline or a checkpoint, and
    write one CSV, its average (eval) or its trajectory (simulate)."""
    if args.checkpoint and args.policy:  # one run rolls one policy
        raise _Rejected(f"{args.command}: --checkpoint (or WIREBEAM_CHECKPOINT) and --policy exclude each other")
    token = args.checkpoint or args.policy or ("stay" if args.command == "simulate" else None)
    if not token:
        raise _Rejected("eval: need --checkpoint or --policy")
    steps = cfg.env.horizon if args.steps is None else args.steps  # an absent --steps takes the horizon
    if steps < 1:
        raise _Rejected(f"{args.command}: --steps must be >= 1, got {steps}")
    policy = resolve_policy(token)
    if policy.checkpoint is not None:  # a checkpoint that does not load, or is no tracker, is rejected here
        policy.checkpoint = load_checkpoint(policy.checkpoint)
        if (n_actions := policy.checkpoint.net.n_actions) != N_PROTAGONIST_ACTIONS:
            raise _Rejected(f"{args.command}: {token} has {n_actions} actions; a tracker needs {N_PROTAGONIST_ACTIONS}")

    def body():
        avg, rows = run_policy(policy, cfg.env, steps, cfg.seed)
        summary = f"{args.command}: {token} avg power {avg:.4f} dBm over {steps} steps"
        if args.command == "eval":
            _write_csv(out / "eval.csv", ["policy", "steps", "seed", "avg_power_dbm"], [[token], [steps], [cfg.seed], [avg]])
            return ["eval.csv"], None, summary, EXIT_OK
        _write_csv(
            out / "trajectory.csv",
            ["step", "t", "P_r_dbm", "r_p", "a_p", "a_a", "sbs_x", "sbs_y", "sbs_z", "theta_s", "phi_s"],
            list(zip(*rows)),
        )
        return ["trajectory.csv"], None, f"{summary} -> {out / 'trajectory.csv'}", EXIT_OK

    return cfg, body


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


def cmd_sweep(args, cfg, out):
    if args.spec and args.checkpoint:  # a spec names its own policies
        raise _Rejected("sweep: --spec and --checkpoint (or WIREBEAM_CHECKPOINT) exclude each other")
    if args.spec:
        spec = load_sweep_spec(args.spec)
    else:
        spec = SweepSpec(policies=[args.checkpoint]) if args.checkpoint else SweepSpec()
    grid = [(m, k) for m in spec.mass_grid for k in spec.spring_grid]
    physes = [replace(cfg.env.phys, total_mass=m, spring_constant=k) for m, k in grid]
    substeps = [effective_substeps(p, cfg.env.tau, cfg.env.substeps) for p in physes]
    rest_z = [float(equilibrium_shape(p).positions[cfg.env.sbs_index, 2]) for p in physes]

    def body():
        results = _sweep_units(cfg, spec, [(m, k, token) for m, k in grid for token in spec.policies])
        failures = [r for r in results if r[5]]
        _write_csv(
            out / "heatmap.csv",
            ["mass_kg", "spring_n_per_m", "policy", "avg_power_dbm", "stddev"],
            list(zip(*results))[:5],
        )
        extra = {
            "cells": len(results),
            "substeps": [  # per cell; a station resting below the ground plane (z < 0) is flagged
                {"mass_kg": m, "spring_n_per_m": k, "substeps": n, "rest_z_m": z, "below_ground": z < 0}
                for (m, k), n, z in zip(grid, substeps, rest_z)
            ],
            "failed_cells": [
                {"mass_kg": r[0], "spring_n_per_m": r[1], "policy": r[2], "error": r[5]}
                for r in failures
            ],
        }
        summary = f"sweep: {len(results)} cells, {len(failures)} failed -> {out / 'heatmap.csv'}"
        return ["heatmap.csv"], extra, summary, EXIT_PARTIAL if failures else EXIT_OK

    return cfg, body


def cmd_antenna_pattern(args, cfg, out):
    for flag in ("az_start", "az_stop", "az_step"):
        if not math.isfinite(getattr(args, flag)):
            raise _Rejected(f"antenna-pattern: --{flag.replace('_', '-')} must be finite, got {getattr(args, flag)!r}")
    if args.az_step <= 0 or args.az_stop < args.az_start:
        raise _Rejected("antenna-pattern: empty azimuth range")
    azimuths = np.arange(args.az_start, args.az_stop + args.az_step / 2, args.az_step)

    def body():
        af = radio.array_factor(90.0, azimuths, 90.0, 0.0, cfg.env.antenna)
        ae = radio.element_pattern(90.0, azimuths, cfg.env.antenna)
        _write_csv(
            out / "antenna_pattern.csv",
            ["azimuth_deg", "af_db", "ae_db", "at_db"],
            [azimuths, af, ae, af + ae],
        )
        summary = f"antenna-pattern: {len(azimuths)} samples -> {out / 'antenna_pattern.csv'}"
        return ["antenna_pattern.csv"], None, summary, EXIT_OK

    return cfg, body


def _env_default(name, fallback=None):
    """The raw text of WIREBEAM_<name>; argparse converts it with the flag's type
    only when the command that takes the flag runs, and a malformed one is a usage error."""
    return os.environ.get(f"WIREBEAM_{name}", fallback)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wirebeam", description="Beam-tracking simulation and training bench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, steps=False):
        p.add_argument("--config", default=_env_default("CONFIG"), help="config file path")
        p.add_argument("--seed", type=int, default=_env_default("SEED"))
        p.add_argument("--out", default=_env_default("OUT", fallback="out"), help="output directory")
        if steps:
            p.add_argument("--steps", type=int, default=_env_default("STEPS"))

    p_train = sub.add_parser("train", help="run the training loop, write checkpoints and curve")
    common(p_train)
    p_train.add_argument("--variant", default=_env_default("VARIANT"))
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint or baseline policy")
    common(p_eval, steps=True)
    p_eval.add_argument("--checkpoint", default=_env_default("CHECKPOINT"))
    p_eval.add_argument("--policy", default=None, help="stay | upper_limit | random_uniform")
    p_eval.set_defaults(func=cmd_policy)

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
    p_sim.set_defaults(func=cmd_policy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except _Rejected as exc:
        print(exc, file=sys.stderr)
        return EXIT_ERROR
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
