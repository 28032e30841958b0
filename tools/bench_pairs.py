"""Measure a change against its parent tree in alternating pairs of benchmark runs.

Usage (from the repository root; PARENT is a clean checkout of the parent
commit, CHANGE one of this commit, each with its own benchmarks/):

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --seed0 301 \
        --what "Parent against the change that ..." --out BENCH_<name>.json

Four steps, all by default, or those named by --steps:

calls   Layer calls: one `wirebeam sweep` command of the `sweep_grid`
        workload (seed0) per tree, each in a fresh process, with every
        function of COUNTED that the tree has wrapped to count its calls.
        `benchmarks/tracer.py` has spans for none of `wire.Integrator.advance`,
        `env.EnvBatch.advance`, `deepq.QBlock.forward` or the link-geometry
        calls, so its trace cannot show where a rollout's time goes; these
        counts show which calls went away. `--count-calls TREE` runs this
        step alone on one tree and prints its counts.
pairs   End to end: `benchmarks/run.py --trace 0` on every workload,
        --pairs pairs per workload on seeds seed0, seed0 + 1, ...; parent
        and change alternate, and which side runs first alternates from
        pair to pair, because the side that runs first reads faster.
traced  One `--trace 1` run per workload and side on seed0, whose output
        hashes must equal the untraced ones.
report  Judge the kept records with `benchmarks/compare.py` and write
        the JSON report.

Every run.py record is kept under OUT_DIR/{parent,change}/ (traced ones
under OUT_DIR/traced/), so `--steps report` rebuilds the report from them.
"""

from __future__ import annotations

import argparse
import collections
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train_rarl", "sweep_grid", "antenna_pattern")
SIDES = ("parent", "change")
# (module, attribute path) of each function whose calls the `calls` step counts; a tree without one reports none
COUNTED = (
    ("radio", "aod_batch"),
    ("radio", "path_gain_db"),
    ("radio", "element_pattern"),
    ("radio", "array_factor"),
    ("wire", "Integrator.advance"),
    ("env", "EnvBatch.advance"),
    ("deepq", "QBlock.forward"),
)


def count_calls(tree: Path, seed: int) -> dict:
    """Calls of each COUNTED function in one sweep_grid command of `tree`, run in this process."""
    sys.path.insert(0, str(tree / "src"))
    spec = importlib.util.spec_from_file_location("bench_run", tree / "benchmarks" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    from wirebeam import bench, env, wire
    from wirebeam.config import train_config_from_text

    work = Path(os.environ.get("TMPDIR", "/tmp")) / f"bench_pairs_calls_{os.getpid()}"
    job = run.prepare("sweep_grid", seed, work)
    cfg = train_config_from_text(Path(job["argv"][job["argv"].index("--config") + 1]).read_text()).env
    counts = collections.Counter()

    def counting(name, fn):
        def counted(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)

        return counted

    for module_name, path in COUNTED:
        *owners, attr = path.split(".")
        owner = importlib.import_module(f"wirebeam.{module_name}")
        for name in owners:
            owner = getattr(owner, name)
        if hasattr(owner, attr):  # module functions are looked up at call time, so the wrapper sees every call
            setattr(owner, attr, counting(f"{module_name}.{path}", getattr(owner, attr)))
            counts[f"{module_name}.{path}"] = 0
    try:
        code = bench.main(list(job["argv"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        raise SystemExit(f"sweep command exited {code}")
    substeps = [wire.effective_substeps(wire.PhysParams(total_mass=m, spring_constant=k), cfg.tau, cfg.substeps)
                for m in job["masses"] for k in job["springs"]]
    return {"seed": seed, "masses_kg": job["masses"], "springs_n_per_m": job["springs"],
            "substeps_per_cell": substeps, "policies": len(job["policies"]), "steps": cfg.horizon,
            "NOISE_BLOCK": getattr(env, "NOISE_BLOCK", None), **counts}


def bench_run(tree: Path, workload: str, seed: int, trace: int, keep: Path):
    """One run.py run in `tree`; its record is copied into `keep`."""
    results = tree / ".bench_out" / "results"
    before = set(results.glob("*.json")) if results.exists() else set()
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "30", "--trace", str(trace)]
    subprocess.run(argv, cwd=tree, check=True, capture_output=True)
    (path,) = set(results.glob("*.json")) - before
    keep.mkdir(parents=True, exist_ok=True)
    shutil.copy(path, keep / path.name)
    print(f"{keep.name} {workload} seed {seed} trace {trace}: {json.loads(path.read_text())['summary']}", flush=True)


def summary(path: Path) -> dict:
    """The facts of one kept record that the report lists."""
    record = json.loads(path.read_text())
    walls = record.get("operation_walls_s") or record.get("untraced_walls_s") or []
    return {"workload": record["workload"], "seed": record["spec"]["seed"], "trace": record["trace"],
            "started_utc": record["environment"]["started_utc"], "result_line": record["summary"],
            "hashes": record["hashes"], "commands": len(walls),
            "command_median_s": statistics.median(walls) if walls else None, "record": path.name}


def report(args, sides: dict) -> dict:
    """The JSON report of the kept records: compare.py's judgement, the call counts, the hash checks."""
    runs = {side: sorted((summary(p) for p in (args.out_dir / side).glob("*.json")), key=lambda r: r["started_utc"])
            for side in SIDES}
    traced = {side: [summary(p) for p in sorted((args.out_dir / "traced" / side).glob("*.json"))] for side in SIDES}
    compare = subprocess.run([sys.executable, "benchmarks/compare.py", str((args.out_dir / "parent").resolve()),
                              str((args.out_dir / "change").resolve())], cwd=sides["change"], capture_output=True,
                             text=True)
    untraced = {(side, r["workload"], r["seed"]): r["hashes"] for side in SIDES for r in runs[side]}
    medians = {}
    for workload in WORKLOADS:
        for side in SIDES:
            walls = [r["command_median_s"] for r in runs[side] if r["workload"] == workload]
            if walls:
                medians.setdefault(workload, {})[side] = statistics.median(walls)
    import numpy as np

    calls = args.out_dir / "calls.json"
    return {
        "what": args.what,
        "method": __doc__,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "cpus": len(os.sched_getaffinity(0)), "machine": platform.machine()},
        "calls_per_sweep_command": json.loads(calls.read_text()) if calls.exists() else None,
        "compare_py_output": compare.stdout.splitlines(),
        "compare_py_exit_code": compare.returncode,
        "command_median_of_run_medians_s": medians,
        "hash_check": {
            "untraced_parent_equals_change": all(untraced["parent", w, s] == untraced.get(("change", w, s))
                                                 for side, w, s in untraced if side == "parent"),
            "traced_equals_untraced": all(t["hashes"] == untraced[side, t["workload"], t["seed"]]
                                          for side in SIDES for t in traced[side]),
        },
        "runs": runs,
        "traced": traced,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=301)
    parser.add_argument("--steps", default="calls,pairs,traced,report")
    parser.add_argument("--what", help="what the report compares: the change, and the gain it claims (report step)")
    parser.add_argument("--out", type=Path, default=Path("BENCH_pairs.json"))
    parser.add_argument("--out-dir", type=Path, default=Path(".bench_out/pairs"))
    parser.add_argument("--count-calls", type=Path, metavar="TREE", help="only count the calls of TREE")
    args = parser.parse_args(argv)
    if args.count_calls:
        print(json.dumps(count_calls(args.count_calls.resolve(), args.seed0)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    steps = args.steps.split(",")
    if "report" in steps and not args.what:
        parser.error("the report step needs --what")
    args.out_dir.mkdir(parents=True, exist_ok=True)

    if "calls" in steps:
        me = Path(__file__).resolve()
        calls = {
            side: json.loads(subprocess.run([sys.executable, str(me), "--seed0", str(args.seed0), "--count-calls",
                                             str(tree)], check=True, capture_output=True, text=True).stdout.splitlines()[-1])
            for side, tree in sides.items()
        }
        (args.out_dir / "calls.json").write_text(json.dumps(calls, indent=1) + "\n")
    if "pairs" in steps:
        for workload in WORKLOADS:
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    bench_run(sides[side], workload, args.seed0 + pair, 0, args.out_dir / side)
    if "traced" in steps:
        for workload in WORKLOADS:
            for side in SIDES:
                bench_run(sides[side], workload, args.seed0, 1, args.out_dir / "traced" / side)
    if "report" in steps:
        result = report(args, sides)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
        print("\n".join(result["compare_py_output"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
