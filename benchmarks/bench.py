"""Alternating parent/change runs of perfbench, summarised per metric.

Run from the repository root, with a checkout of the parent commit made
outside it (``git worktree add ../parent HEAD~1`` or ``git archive``):

    python3 benchmarks/bench.py --parent ../parent --out benchmarks/BENCH_<n>.json

For each workload and each of ``--pairs`` pairs, both checkouts run their own
``perfbench/run.py --workload <w> --seed <s> --seconds <t> --trace 0`` in a
fresh process; the parent runs first in odd pairs and the change first in
even ones.  After the pairs, each checkout runs the workload once more with
``--trace 1`` for its per-layer metrics.  The timers, tracer, checks and
metrics are perfbench's: this script only reads the JSON line each run
prints last.  The workloads, the run length ``<t>`` and the end-to-end
metrics, with their direction and bound, all come from ``BENCHMARK.json``.

For every workload and end-to-end metric the output holds both sides'
samples, median and quartiles, how many pairs the change won (ties count
for neither), the relative change of the median and whether it stays within
the bound; plus the ``attempted`` and ``failed`` point counts of each side.
Under ``per_layer`` it holds each side's traced run: every per-layer metric
with its ``attempted`` and ``failed`` counts.  Standard library only.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout, workload, seed, seconds, trace=0):
    """One perfbench run; returns its last-line JSON and its env record."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=checkout, timeout=1800,
        check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} {workload}: exit {proc.returncode}\n"
                           f"{proc.stderr.strip()}")
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    return json.loads(lines[-1]), env


def summarise(samples):
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"samples": samples, "median": q2, "q1": q1, "q3": q3}


def compare(parent, change, better, bound):
    """Pair wins and the bound test for one metric, samples in pair order."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_side, c_side = summarise(parent), summarise(change)
    rel = (c_side["median"] - p_side["median"]) / p_side["median"]
    return {"better": better, "bound": bound, "parent": p_side,
            "change": c_side, "change_wins": wins, "change_losses": losses,
            "pairs": len(parent), "median_rel_change": rel,
            "parent_iqr": p_side["q3"] - p_side["q1"],
            "within_bound": sign * rel <= bound}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=12345)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be >= 2 for quartiles")
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    seconds = spec["run_seconds"]

    report = {"seed": args.seed, "seconds": seconds, "pairs": args.pairs,
              "python": platform.python_version(), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        env = {}
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result, env[side] = run_once(sides[side], workload,
                                             args.seed, seconds)
                runs[side].append(result)
                print(f"{workload} pair {pair} {side}: " + " ".join(
                    f"{k}={m['value']:.4g}"
                    for k, m in result["metrics"].items()), flush=True)
        entry = {"env": env, "metrics": {}, "per_layer": {}}
        for side in sides:
            result, _ = run_once(sides[side], workload, args.seed, seconds,
                                 trace=1)
            entry["per_layer"][side] = {
                "attempted": result["attempted"], "failed": result["failed"],
                "metrics": {k: m["value"]
                            for k, m in result["metrics"].items()}}
        for side in sides:
            entry[f"{side}_attempted"] = sum(r["attempted"] for r in runs[side])
            entry[f"{side}_failed"] = sum(r["failed"] for r in runs[side])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            entry["metrics"][name] = compare(
                [r["metrics"][name]["value"] for r in runs["parent"]],
                [r["metrics"][name]["value"] for r in runs["change"]],
                metric["better"], metric["bound"])
        report["workloads"][workload] = entry
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        print(f"{workload}: failed parent {entry['parent_failed']}/"
              f"{entry['parent_attempted']}, change {entry['change_failed']}/"
              f"{entry['change_attempted']}")
        for name, m in entry["metrics"].items():
            print(f"  {name:14s} {m['parent']['median']:10.4g} -> "
                  f"{m['change']['median']:10.4g} "
                  f"({m['median_rel_change']:+.1%}, bound {m['bound']:.0%}, "
                  f"change wins {m['change_wins']}/{m['pairs']})")
        traced = entry["per_layer"]
        for name, before in traced["parent"]["metrics"].items():
            after = traced["change"]["metrics"][name]
            if before or after:
                print(f"  {name:40s} {before:12.4g} -> {after:12.4g} (traced)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
