"""wirebeam benchmark: one workload, one seed, one result line.

Usage (from the repository root):

    python3 benchmarks/run.py --workload train_rarl --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each exists):

    train_rarl       `wirebeam train --variant rarl` on the reference config
                     with one episode per arm (proxy pre-training included)
    sweep_grid       `wirebeam sweep` over a 2 x 2 mass x spring grid with
                     stay, upper_limit, random_uniform and a greedy checkpoint
    antenna_pattern  `wirebeam antenna-pattern` over 360 degrees at 0.01
                     degree steps (36001 gain samples)

Each workload is a closed loop in one process: the next CLI command starts
when the previous one returns. The program is driven only through
`wirebeam.bench.main` and public library functions; it sees the config and
spec files generated here from `--seed`.

With `--trace 0` the run reports end-to-end metrics: throughput over the
timed commands divided by the machine speed seen by an interleaved fixed
loop (see `Calibration`), set-up time as the median of several
fresh-interpreter set-ups, and peak memory. With `--trace 1` it alternates
untraced and traced commands and reports per-layer metrics from the spans.
Every command's outputs are checked and hashed; the last stdout line is a
JSON object {"correct", "attempted", "failed", "metrics"}. A fuller record
(environment, hashes, baseline match, named metrics) goes to
`.bench_out/results/`.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")  # relative to ROOT: paths reach the program's outputs (heatmap policy column)
BASELINE = HERE / "baseline.json"

WORKLOADS = ("train_rarl", "sweep_grid", "antenna_pattern")
SETUP_REPEATS = 5
TRAIN_EPISODES = 1  # per arm: one proxy (no-adversary) episode, one rarl episode
GRID_SIZE = 2
SWEEP_POLICIES = ("stay", "upper_limit", "random_uniform")
AZ_STEP = 0.01
AZ_SAMPLES = 36001
AF_SLACK_DB = 1e-9  # rounding slack on the 10*log10(n) array-factor ceiling

# per workload: its unit of work, and the name, scale and unit of its wall-clock rate
WORK_UNIT = {
    "train_rarl": ("episode", "train_episodes_per_min", 60.0, "1/min"),
    "sweep_grid": ("cell", "sweep_cells_per_s", 1.0, "1/s"),
    "antenna_pattern": ("gain sample", "pattern_samples_per_s", 1.0, "1/s"),
}


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CheckFailed(Exception):
    pass


def _check(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- set-up ---


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the inputs the program sees, derived from `seed` only.

    Returns the CLI argument list of one operation and what the checks
    need to know about the inputs. Imports the library on first call.
    """
    import numpy as np

    from wirebeam import AgentCheckpoint, EnvConfig, init_qnetwork, make_normalizer, save_checkpoint

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config = work / "config.txt"
    out = work / "out"
    spec = {"seed": seed}

    if workload == "train_rarl":
        config.write_text(f"episodes: {TRAIN_EPISODES}\nseed: {seed}\n", encoding="utf-8")
        argv = ["train", "--config", str(config), "--variant", "rarl", "--out", str(out)]
        spec["units"] = 2 * TRAIN_EPISODES
    elif workload == "sweep_grid":
        config.write_text(f"seed: {seed}\n", encoding="utf-8")
        masses = sorted({round(float(v), 1) for v in rng.uniform(2.0, 20.0, size=GRID_SIZE)})
        springs = sorted({round(float(v), 1) for v in rng.uniform(25.0, 200.0, size=GRID_SIZE)})
        ckpt = work / "greedy.ckpt"
        net = init_qnetwork(5, np.random.default_rng([seed, 99]), head_scale=1.0)
        norm = make_normalizer(EnvConfig())
        save_checkpoint(ckpt, AgentCheckpoint(net=net, manifest={"obs_norm": norm.manifest_entry()}))
        policies = list(SWEEP_POLICIES) + [str(ckpt)]
        sweep_spec = work / "sweep.spec"
        sweep_spec.write_text(
            "mass_grid_kg: " + ",".join(map(str, masses)) + "\n"
            "spring_grid_n_per_m: " + ",".join(map(str, springs)) + "\n"
            "policies: " + ",".join(policies) + "\n",
            encoding="utf-8",
        )
        workers = len(os.sched_getaffinity(0))
        argv = ["sweep", "--config", str(config), "--spec", str(sweep_spec), "--out", str(out),
                "--workers", str(workers)]
        spec.update(masses=masses, springs=springs, policies=policies, workers=workers)
        spec["units"] = len(masses) * len(springs) * len(policies)
    else:
        config.write_text(f"seed: {seed}\n", encoding="utf-8")
        start = -180.0 - round(float(rng.uniform(0.0, 1.0)), 3)
        stop = start + (AZ_SAMPLES - 1) * AZ_STEP
        argv = ["antenna-pattern", "--config", str(config), "--az-start", repr(start),
                "--az-stop", repr(stop), "--az-step", repr(AZ_STEP), "--out", str(out)]
        spec.update(az_start=start, az_stop=stop)
        spec["units"] = AZ_SAMPLES
    spec["argv"] = argv
    spec["out"] = out
    return spec


def _setup_probe(workload: str, seed: int, work: Path):
    """Body of a set-up probe process: import, write the inputs, report the
    CLOCK_MONOTONIC instant at which the workload is ready."""
    import wirebeam.bench  # noqa: F401  (the entry point the operation calls)

    prepare(workload, seed, work)
    print(repr(_monotonic()))


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from process start to ready, over fresh interpreters."""
    times = []
    for i in range(SETUP_REPEATS):
        work = OUT / "work" / f"{workload}-setup{i}"
        t0 = _monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--work", str(work)],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
        shutil.rmtree(work, ignore_errors=True)
    return times


# ------------------------------------------------------------ operations ---


def run_operation(spec: dict):
    """One CLI command in-process; returns (wall seconds, exit code, output)."""
    from wirebeam.bench import main

    if spec["out"].exists():
        shutil.rmtree(spec["out"])
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(list(spec["argv"]))
    return time.perf_counter() - t0, code, sink.getvalue()


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_outputs(workload: str, spec: dict, code: int, log: str) -> dict:
    """Verify one operation's outputs; returns {file name: sha256}.

    Raises CheckFailed on a non-zero exit, a failed cell, a non-finite or
    implausible power, a checkpoint that does not load back, a manifest
    whose hashes disagree with the files, or an antenna cut that departs
    from the closed form of the reference 32 x 32 array.
    """
    import numpy as np

    from wirebeam import forward, load_checkpoint

    _check(code == 0, f"exit code {code}: {log.strip()[-300:]}")
    out = spec["out"]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    hashes = {name: _sha256(out / name) for name in sorted(manifest["outputs"])}
    _check(hashes == manifest["outputs"], "manifest hashes disagree with the output files")

    if workload == "train_rarl":
        _check(set(hashes) == {"curve.csv", "proxy.ckpt", "protagonist.ckpt", "adversary.ckpt"},
               f"unexpected outputs {sorted(hashes)}")
        header, rows = _read_csv(out / "curve.csv")
        _check(len(rows) == TRAIN_EPISODES, f"curve.csv has {len(rows)} rows")
        values = np.array([[float(v) for v in row[1:]] for row in rows])
        _check(np.isfinite(values).all(), "non-finite probe power or loss in curve.csv")
        _check(((values[:, :2] > -300.0) & (values[:, :2] < 60.0)).all(), "probe power out of range")
        probe = np.zeros(9)
        for name, n_actions in (("proxy.ckpt", 5), ("protagonist.ckpt", 5), ("adversary.ckpt", 7)):
            ckpt = load_checkpoint(out / name)
            _check(ckpt.net.n_actions == n_actions, f"{name}: {ckpt.net.n_actions} actions")
            _check(all(np.isfinite(p).all() for p in ckpt.net.parameters()), f"{name}: non-finite weights")
            _check(np.isfinite(forward(ckpt.net, probe)).all(), f"{name}: non-finite Q values")
            _check(ckpt.adam is not None and ckpt.adam.step_count > 0, f"{name}: no optimizer state")
    elif workload == "sweep_grid":
        _check(not manifest["failed_cells"], f"failed cells: {manifest['failed_cells']}")
        header, rows = _read_csv(out / "heatmap.csv")
        _check(len(rows) == spec["units"], f"heatmap.csv has {len(rows)} rows")
        cells = {(float(r[0]), float(r[1]), r[2]): float(r[3]) for r in rows}
        expected = {(m, k, p) for m in spec["masses"] for k in spec["springs"] for p in spec["policies"]}
        _check(set(cells) == expected, "heatmap.csv cells differ from the spec")
        power = np.array(list(cells.values()))
        _check(np.isfinite(power).all() and (power > -300.0).all() and (power < 60.0).all(),
               "non-finite or implausible cell power")
        mean = {p: np.mean([v for (m, k, q), v in cells.items() if q == p]) for p in spec["policies"]}
        _check(mean["upper_limit"] > mean["stay"], "one-step oracle does not beat stay on the grid")
    else:
        header, rows = _read_csv(out / "antenna_pattern.csv")
        _check(len(rows) == AZ_SAMPLES, f"antenna_pattern.csv has {len(rows)} rows")
        table = np.array(rows, dtype=np.float64)
        az, af, ae, at = table.T
        _check(np.isfinite(table).all(), "non-finite gain")
        _check(abs(az[0] - spec["az_start"]) < 1e-9, "first azimuth differs from --az-start")
        # independent closed form at zenith 90, steering (90, 0): the vertical
        # sum is n_v and the horizontal one a Dirichlet kernel in sin(az)
        n_v = n_h = 32
        x = math.pi * 0.0025 / 0.005 * np.sin(np.deg2rad(az))
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = np.where(np.abs(np.sin(x)) < 1e-12, n_h, np.abs(np.sin(n_h * x) / np.sin(x)))
        amplitude = n_v * kernel / math.sqrt(n_v * n_h)
        _check(np.allclose(10.0 ** (af / 20.0), amplitude, rtol=1e-6, atol=1e-6 * amplitude.max()),
               "array factor disagrees with the closed form")
        _check(af.max() <= 10.0 * math.log10(n_v * n_h) + AF_SLACK_DB, "array factor above 10 log10(n)")
        element = 8.0 - np.minimum(12.0 * (az / 65.0) ** 2, 30.0)
        _check(np.allclose(ae, element, rtol=0, atol=1e-9), "element pattern disagrees with the closed form")
        _check(np.allclose(at, af + ae, rtol=0, atol=1e-9), "total gain is not element + array factor")
    return hashes


def output_bytes(spec: dict) -> int:
    return sum(p.stat().st_size for p in spec["out"].rglob("*") if p.is_file())


# ----------------------------------------------------------- environment ---


def environment(seed: int) -> dict:
    """What the run depends on besides the code. Starts a `git` child, so
    call it after `_peak_rss_mb`."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: v for k, v in blas.items() if "directory" not in k}  # build-machine paths
    except (TypeError, KeyError) as exc:  # numpy < 1.25 has no dict form
        blas = {"error": repr(exc)}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "wirebeam").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "machine": platform.machine(),
    }


def baseline_match(workload: str, seed: int, hashes: dict) -> dict:
    """Compare output hashes with the committed baseline (never a failure)."""
    try:
        recorded = json.loads(BASELINE.read_text(encoding="utf-8"))["hashes"][workload].get(str(seed))
    except (OSError, KeyError, ValueError):
        recorded = None
    if recorded is None:
        return {"status": "no baseline for this seed"}
    drift = sorted(name for name in set(hashes) | set(recorded) if hashes.get(name) != recorded.get(name))
    return {"status": "drift" if drift else "match", "drifted": drift}


# ----------------------------------------------------------- calibration ---


@functools.lru_cache(maxsize=None)
def _calibration_layers():
    import numpy as np

    rng = np.random.default_rng(0)
    layers = [rng.standard_normal((9, 32))]
    return layers + [rng.standard_normal((32, 32)) for _ in range(3)] + [rng.standard_normal((32, 5))]


def calibration_unit() -> float:
    """Seconds taken by one fixed slice of work: 1500 forward passes of a
    9-32-32-32-32-5 ReLU MLP on one row, driven from Python."""
    import numpy as np

    layers = _calibration_layers()
    t0 = time.perf_counter()
    for i in range(1500):
        h = np.full((1, 9), i * 1e-3)
        for w in layers:
            h = np.maximum(h @ w, 0.0)
        int(np.argmax(h))
    return time.perf_counter() - t0


def _calibration_worker():
    """Body of a calibration child: one unit per line read, its time written back."""
    for _ in sys.stdin:
        print(repr(calibration_unit()), flush=True)


class Calibration:
    """Machine speed during a run, from a fixed loop interleaved with the
    commands.

    The machine this benchmark was tuned on is a 2-vCPU share of a busy
    host whose speed swings by up to 1.8x over seconds to minutes, so two
    runs of identical code can differ by 20% in plain wall-clock rate. The
    loop does the same kind of work as the program's inner loops (small
    float64 matmuls and ReLUs driven from Python) but is code that no change
    to the program touches; dividing the wall-clock rate by the loop's
    speed over the same stretch of time removes most of the swing. The
    loop runs in as many processes at once as the workload uses, because
    two busy vCPUs slow each other down.
    """

    SHARE = 0.1  # calibration wall time as a share of command time
    REFERENCE_S = 0.025  # unit time that defines speed 1.0 (the tuning machine, busy)

    def __init__(self, processes: int):
        # plain child processes on pipes: no threads here, since the sweep forks
        self.workers = [
            subprocess.Popen([sys.executable, "-c", "import run; run._calibration_worker()"],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=HERE)
            for _ in range(processes if processes > 1 else 0)
        ]
        self.walls, self.spent = [], 0.0
        self._slice()  # first-call costs, worker start-up
        self.walls, self.spent = [], 0.0

    def _slice(self):
        t0 = time.perf_counter()
        if not self.workers:
            self.walls.append(calibration_unit())
        for worker in self.workers:
            worker.stdin.write("\n")
            worker.stdin.flush()
        self.walls.extend(float(worker.stdout.readline()) for worker in self.workers)
        self.spent += time.perf_counter() - t0

    def keep_up_with(self, command_s: float):
        while self.spent < self.SHARE * command_s:
            self._slice()

    def speed(self) -> float:
        """Reference unit time over this run's mean unit time."""
        return self.REFERENCE_S / statistics.fmean(self.walls)

    def close(self):
        for worker in self.workers:
            worker.stdin.close()
        for worker in self.workers:
            worker.wait(timeout=30)


# ------------------------------------------------------------------ main ---


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited child
    (the sweep's pool workers), MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run(args, units: dict) -> dict:
    """Set up, warm up, measure for `args.seconds`; returns the run record
    whose "summary" is the result line (metrics named and unit-ed by `units`)."""
    started = datetime.now(timezone.utc).isoformat()
    spec = prepare(args.workload, args.seed, OUT / "work" / args.workload)
    attempted = failed = 0
    failures = []
    reference = None

    def operation(traced=False) -> float:
        nonlocal attempted, failed, reference
        attempted += 1
        t0 = time.perf_counter()
        try:
            wall, code, log = run_operation(spec)
            hashes = check_outputs(args.workload, spec, code, log)
            if reference is None:
                reference = hashes
            _check(hashes == reference, f"{'traced' if traced else 'untraced'} hashes differ from the first run")
        except Exception as exc:  # any failure of the program is counted, not fatal
            failed += 1
            failures.append(str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc())
            return time.perf_counter() - t0
        return wall

    operation()  # warm-up: imports, caches, first-call costs
    deadline = time.perf_counter() + args.seconds
    result = {"workload": args.workload, "trace": args.trace,
              "spec": {k: v for k, v in spec.items() if k not in ("argv", "out")}}

    if not args.trace:
        calibrate = Calibration(spec.get("workers", 1))
        try:
            walls = []
            while not walls or time.perf_counter() < deadline:
                walls.append(operation())
                calibrate.keep_up_with(sum(walls))
            rss = _peak_rss_mb()  # before the calibration workers are waited for
        finally:
            calibrate.close()
        setup = measure_setup(args.workload, args.seed)
        rate = spec["units"] * len(walls) / sum(walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "calibrated_units_per_s": rate / calibrate.speed(),
            "peak_rss_mb": rss,
        }
        _, name, scale, unit = WORK_UNIT[args.workload]
        named = {name: (rate * scale, unit), "machine_speed": (calibrate.speed(), "1")}
        result.update(operation_walls_s=walls, setup_walls_s=setup, calibration_walls_s=calibrate.walls)
    else:
        from tracer import Tracer, layer_metrics, write_spans

        spill = OUT / "spill" / f"{args.workload}-{os.getpid()}"
        spill.mkdir(parents=True, exist_ok=True)
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        span_file = trace_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl.gz"
        tracer = Tracer(spill)
        plain, traced, per_op, span_count = [], [], [], 0
        while not traced or time.perf_counter() < deadline:
            plain.append(operation())
            tracer.install(len(traced))
            try:
                traced.append(operation(traced=True))
            finally:
                tracer.uninstall()
            spans, counters = tracer.collect()
            write_spans(span_file, spans)
            span_count += len(spans)
            per_op.append(layer_metrics(spans, counters))
            per_op[-1]["bench.output.bytes"] = output_bytes(spec)
        shutil.rmtree(spill, ignore_errors=True)
        metrics = {k: statistics.median(op[k] for op in per_op) for k in per_op[0]}
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        named = {}
        result.update(untraced_walls_s=plain, traced_walls_s=traced, span_file=str(span_file),
                      span_count=span_count)

    named["error_rate"] = (failed / attempted, "1")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    result.update(
        environment={**environment(args.seed), "started_utc": started},
        hashes=reference,
        baseline=baseline_match(args.workload, args.seed, reference or {}),
        failures=failures,
        named_metrics={k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        summary={"correct": failed == 0, "attempted": attempted, "failed": failed,
                 "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}},
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "BENCHMARK.json").is_file() or not (SRC / "wirebeam" / "bench.py").is_file():
        print(f"benchmark: run from a wirebeam checkout (no BENCHMARK.json or src/wirebeam under {ROOT})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        _setup_probe(args.workload, args.seed, args.work)
        return 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    result = run(args, units)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    shutil.rmtree(OUT / "work" / args.workload, ignore_errors=True)

    summary = result["summary"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"work unit: one {WORK_UNIT[args.workload][0]}")
    for name, entry in sorted({**result["named_metrics"], **summary["metrics"]}.items()):
        print(f"  {name:<48} {entry['value']:>16.6g} {entry['unit']}")
    for name, digest in sorted((result["hashes"] or {}).items()):
        print(f"  sha256 {name:<41} {digest}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  outputs vs baseline: {result['baseline']['status']}   record: {path}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
