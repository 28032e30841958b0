"""Summarize or compare benchmark result sets.

A result set is a directory of the JSON records that `run.py` writes to
`.bench_out/results/` (copy them aside between commits). Usage:

    python3 benchmarks/compare.py SET                 # spread of one set
    python3 benchmarks/compare.py PARENT CHANGE       # verdict per workload x metric
    python3 benchmarks/compare.py SET --write-baseline benchmarks/baseline.json

Two sets are compared per workload and end-to-end metric: medians and
quartiles of each side, the share of run pairs the change wins (runs are
paired in the order they were made, so alternate parent and change runs),
and a verdict:

    improved    the change wins at least 9 of 10 pairs and its median beats
                the parent's by more than the parent's quartile spread
    worse       the change's median is worse than the parent's by more than
                the metric's bound in BENCHMARK.json
    unresolved  not worse, but the parent's spread exceeds the bound and
                not every change run beats every parent run
    unchanged   otherwise

Output hashes of runs with the same workload and seed are compared too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path):
    """Records of a set, oldest first."""
    records = []
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            continue
        if isinstance(record, dict) and "summary" in record and "workload" in record:
            records.append(record)
    records.sort(key=lambda r: r["environment"]["started_utc"])
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(records, workload, metric):
    return [
        r["summary"]["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload and not r["trace"] and metric in r["summary"]["metrics"]
    ]


def hash_groups(records):
    """{(workload, seed): [hashes of each run]}."""
    groups = {}
    for r in records:
        if r.get("hashes"):
            groups.setdefault((r["workload"], r["environment"]["seed"]), []).append(r["hashes"])
    return groups


def verdict(a, b, better, bound):
    """Verdict of change `b` against parent `a` and the win share of `b`."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    share = wins / len(pairs) if pairs else 0.0
    q1a, med_a, q3a = quartiles(a)
    _, med_b, _ = quartiles(b)
    gain = sign * (med_b - med_a)
    if share >= 0.9 and gain > q3a - q1a:
        return "improved", wins, len(pairs)
    if -gain > bound * abs(med_a):
        return "worse", wins, len(pairs)
    if (q3a - q1a) > bound * abs(med_a) and not all(sign * (y - x) > 0 for x in a for y in b):
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def summarize(records, metrics):
    workloads = sorted({r["workload"] for r in records})
    print(f"{'workload':<16} {'metric':<18} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread/median':>14} {'bound':>6}")
    ok = True
    for w in workloads:
        for m in metrics:
            values = series(records, w, m["name"])
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            ok &= m["name"] == "setup_s" or spread <= m["bound"]
            print(f"{w:<16} {m['name']:<18} {len(values):>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>14.4f} {m['bound']:>6} {m['unit']}")
    for (w, seed), runs in sorted(hash_groups(records).items()):
        same = all(h == runs[0] for h in runs)
        ok &= same
        print(f"hashes {w} seed {seed}: {len(runs)} runs, {'identical' if same else 'DIFFER'}")
    return ok


def compare(parent, change, metrics):
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    print(f"{'workload':<16} {'metric':<17} {'parent: median [q1, q3] (n)':>36} "
          f"{'change: median [q1, q3] (n)':>36} {'change/parent':>13} {'wins':>6}  verdict")
    ok = True
    for w in workloads:
        for m in metrics:
            a, b = series(parent, w, m["name"]), series(change, w, m["name"])
            if not a or not b:
                continue
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            result, wins, pairs = verdict(a, b, m["better"], m["bound"])
            ok &= result in ("improved", "unchanged")
            print(f"{w:<16} {m['name']:<17} {f'{am:.6g} [{a1:.6g}, {a3:.6g}] ({len(a)})':>36} "
                  f"{f'{bm:.6g} [{b1:.6g}, {b3:.6g}] ({len(b)})':>36} {bm / am:>13.4f} "
                  f"{f'{wins}/{pairs}':>6}  {result}")
    print("change/parent is the change's median over the parent's median; units: "
          + ", ".join(f"{m['name']} {m['unit']}" for m in metrics))
    pa, pc = hash_groups(parent), hash_groups(change)
    for key in sorted(set(pa) & set(pc)):
        drift = sorted(n for n in set(pa[key][0]) | set(pc[key][0]) if pa[key][0].get(n) != pc[key][0].get(n))
        print(f"hashes {key[0]} seed {key[1]}: {'identical' if not drift else 'drift in ' + ', '.join(drift)}")
    return ok


def write_baseline(records, metrics, path: Path):
    """Medians and quartiles of the untraced runs, medians of the traced
    per-layer metrics, and the output hashes per workload and seed."""
    baseline = {"environment": {}, "end_to_end": {}, "per_layer": {}, "hashes": {}}
    env = dict(records[0]["environment"])
    for key in ("seed", "started_utc"):
        env.pop(key, None)
    baseline["environment"] = env
    for w in sorted({r["workload"] for r in records}):
        rows = {}
        for m in metrics:
            values = series(records, w, m["name"])
            if values:
                q1, med, q3 = quartiles(values)
                rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": m["unit"]}
        baseline["end_to_end"][w] = rows
        traced = [r for r in records if r["workload"] == w and r["trace"]]
        if traced:
            names = traced[0]["summary"]["metrics"]
            baseline["per_layer"][w] = {
                "n": len(traced),
                "metrics": {
                    n: {"median": statistics.median(r["summary"]["metrics"][n]["value"] for r in traced),
                        "unit": names[n]["unit"]}
                    for n in names
                },
            }
    for (w, seed), runs in sorted(hash_groups(records).items()):
        baseline["hashes"].setdefault(w, {})[str(seed)] = runs[0]
    path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Summarize or compare benchmark result sets.")
    parser.add_argument("sets", nargs="+", type=Path, help="one set to summarize, or PARENT CHANGE")
    parser.add_argument("--write-baseline", type=Path, help="write the set's medians and hashes here")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two result sets")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    sets = [load(d) for d in args.sets]
    for directory, records in zip(args.sets, sets):
        if not records:
            print(f"no benchmark records under {directory}", file=sys.stderr)
            return 2
    if args.write_baseline:
        write_baseline(sets[0], metrics, args.write_baseline)
        return 0
    ok = summarize(sets[0], metrics) if len(sets) == 1 else compare(sets[0], sets[1], metrics)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
