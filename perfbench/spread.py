"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out spread.json
    python3 perfbench/spread.py --workloads fig4_exact --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 12345 --trace 1 --out layers.json

Each (workload, seed) is one run of ``run.py`` in its own process, one after
another.  For every metric the report gives the median and the distance
between the first and third quartile (``statistics.quantiles`` with ``n=4``)
as a share of the median, next to the metric's bound in ``BENCHMARK.json``
for end-to-end metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="write every run's result here")
    args = ap.parse_args(argv)

    if args.trace:
        bounds = {m["name"]: None for m in spec["per_layer"]}
    else:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    ok = True
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed",
                                     str(seed), "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            env = next((json.loads(line[4:]) for line in lines
                        if line.startswith("env ")), None)
            ok = ok and res["correct"]
            runs.setdefault(workload, []).append(dict(res, seed=seed, env=env))
            shown = list(res["metrics"].items())[:6]
            print(f"{workload} seed {seed}: correct={res['correct']} " +
                  " ".join(f"{k}={v['value']:.5g}" for k, v in shown),
                  flush=True)

    report = {}
    for workload, results in runs.items():
        report[workload] = {}
        print(f"\n{workload} ({len(results)} runs)")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            share = spread(values) if len(values) > 1 else None
            report[workload][name] = {"median": med, "iqr_share": share,
                                      "bound": bounds[name]}
            line = f"  {name:40s} median {med:12.6g}"
            if share is not None:
                line += f"  iqr/median {share:7.4f}"
            if bounds[name] is not None:
                line += f"  bound {bounds[name]}"
                if share is not None and share >= bounds[name] / 3:
                    line += "  <-- above bound/3"
            print(line)
    if args.out:
        args.out.write_text(json.dumps({"runs": runs, "spread": report},
                                       indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
