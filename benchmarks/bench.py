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
the bound, and whether the metric is resolved: ``resolved`` is false when
either side's (q3 - q1)/median exceeds the bound, unless every change sample
beats every parent sample.  Plus the ``attempted`` and ``failed`` point
counts of each side.
Under ``per_layer`` it holds each side's traced run: every per-layer metric
with its ``attempted`` and ``failed`` counts.

After the workloads, each checkout runs every preset in full through its own
CLI (``python -m jamlink.cli sweep|capacity --preset <p> --seed <s>`` with
``PYTHONPATH=<checkout>/src``), once at ``--threads 1`` and once at
``--threads 2``, the two sides alternating which goes first from preset to
preset.  Under ``presets`` the output holds, per preset, each side's
1- and 2-thread wall times, its 2-thread peak resident set (Linux
``ru_maxrss`` of that run), whether its 1- and 2-thread CSVs are identical,
its thread control (below), and
per CSV column the number of cells of the change's 2-thread CSV that differ
from the parent's, with the worst relative change (inf where one side is 0)
and the worst absolute change over the finite cells.  The config files in
``benchmarks/configs/`` are custom sweeps that reach what no preset runs
(exact mode for tonal and modulated jamming, a direct-path delay, fixed
gains); both checkouts run each of them the same way (``python -m
jamlink.cli sweep --config <this repository's file>``), reported under
``configs`` by file stem.

The thread control tells how much parallelism the host gave while a side
ran a preset, since a shared host's spare CPU varies over time: just before
the side's two runs, ``thread_control`` hashes two buffers with
``hashlib.sha256``, which releases the GIL, one after the other on one
thread and at once on two.  Its ``speedup`` is the serial over the
two-thread time: near 2 on two free CPUs, near 1 on one.  A preset's
1-thread over 2-thread wall time reads against it.

Under ``setup`` the output holds the per-layer view of ``setup_s``: each
checkout runs ``python -X importtime -c "import jamlink, jamlink.harness"``
(``PYTHONPATH=<checkout>/src``) ``SETUP_SAMPLES`` times in fresh processes,
the sides alternating, and the median cumulative import time in
microseconds of ``jamlink``, ``numpy`` and each ``scipy.<name>`` subpackage
it loads is kept, with the samples (see ``import_times`` for how a scipy
subpackage is timed).

Last, each checkout runs each of the slow Tier-1 tests in ``SLOW_TESTS``
alone, ``python -m pytest -q <node id>`` with
``PYTHONPATH=<checkout>/src``, the two sides alternating which goes first.
Under ``slow_tests`` the output holds, per node id, each side's wall time
(pytest start-up included), the test's own time (the setup, call and
teardown durations pytest reports) and the exit code.  Standard library only.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# every preset and the CLI subcommand that runs it
PRESETS = (("fig2", "sweep"), ("fig3", "sweep"), ("fig4", "sweep"),
           ("fig5", "sweep"), ("fig6", "sweep"), ("fig7", "capacity"),
           ("fig8", "capacity"))

# custom sweeps, run and compared like the presets
CONFIGS = tuple(sorted((ROOT / "benchmarks" / "configs").glob("*.cfg")))

# the six slowest Tier-1 tests by ``pytest --durations`` at commit ad4a98a
# on a 2-CPU host (the criterion 9 node's time is mostly its fig2 fixture),
# then the two tests that take the MI of a 10 000-point p grid
SLOW_TESTS = (
    "tests/test_acceptance.py::"
    "test_criterion_02_theory_simulation_cross_validation[random]",
    "tests/test_acceptance.py::"
    "test_criterion_09_jamming_type_ordering[single_tone-multi_tone]",
    "tests/test_acceptance.py::"
    "test_criterion_02_theory_simulation_cross_validation[deterministic]",
    "tests/test_channel.py::TestDrawChannel::test_rayleigh_unit_second_moment",
    "tests/test_channel.py::TestDrawChannel::test_rician_moment_identity",
    "tests/test_channel.py::TestDrawChannel::test_empirical_k_ratio",
    "tests/test_capacity.py::TestCapacity::test_matches_grid_argmax",
    "tests/test_acceptance.py::test_criterion_07_capacity_machinery",
)


# fresh-process imports per side for the ``setup`` section
SETUP_SAMPLES = 5
_IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$")


def _package(name):
    """jamlink, numpy or scipy.<name> for a module of one, else None."""
    parts = name.split(".")
    if parts[0] in ("jamlink", "numpy"):
        return parts[0]
    if parts[0] == "scipy" and len(parts) > 1 and not parts[1].startswith("_"):
        return f"scipy.{parts[1]}"
    return None


def import_times(checkout):
    """{package: cumulative microseconds} of one fresh ``import jamlink``.

    ``-X importtime`` prints each import after its children, indented by
    depth, but not the imports made through ``importlib``: scipy loads its
    subpackages that way, so their own line is missing and their modules
    hang below whatever imported them.  A package's time is therefore the
    sum of the cumulative times of its topmost printed modules.  A package
    whose own line is printed (jamlink, numpy) takes that line's time.
    """
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import jamlink, jamlink.harness"],
        capture_output=True, text=True, cwd=checkout, env=env, timeout=300,
        check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} import: exit {proc.returncode}\n"
                           f"{proc.stderr.strip()}")
    # pending subtrees: (depth, {package: time of its topmost modules})
    pending = []
    own = {}
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        depth = len(m[2]) // 2
        tops = {}
        while pending and pending[-1][0] > depth:
            for pkg, us in pending.pop()[1].items():
                tops[pkg] = tops.get(pkg, 0) + us
        pkg = _package(m[3])
        if pkg:
            tops[pkg] = int(m[1])
        if pkg == m[3]:
            own[pkg] = int(m[1])
        pending.append((depth, tops))
    out = {}
    for _depth, tops in pending:
        for pkg, us in tops.items():
            out[pkg] = out.get(pkg, 0) + us
    return {**out, **own}


def bench_setup(sides):
    """Median cumulative import time per package, per side."""
    samples = {side: [] for side in sides}
    for i in range(SETUP_SAMPLES):
        for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            samples[side].append(import_times(sides[side]))
    report = {}
    for side, runs in samples.items():
        names = sorted({name for run in runs for name in run})
        report[side] = {
            name: {"median_us": statistics.median(r.get(name, 0)
                                                  for r in runs),
                   "samples_us": [r.get(name, 0) for r in runs]}
            for name in names}
    for name in dict.fromkeys([*report["parent"], *report["change"]]):
        before, after = (report[side].get(name, {}).get("median_us", 0)
                         for side in ("parent", "change"))
        print(f"import {name:24s} {before / 1e3:8.1f} -> {after / 1e3:8.1f} ms",
              flush=True)
    return report


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
    """Pair wins and the bound test for one metric, samples in pair order.

    A metric is unresolved when either side's interquartile spread over its
    median exceeds the bound, since the bound test cannot then tell a change
    from noise, unless every change sample beats every parent sample.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_side, c_side = summarise(parent), summarise(change)
    rel = (c_side["median"] - p_side["median"]) / p_side["median"]
    spread = max((side["q3"] - side["q1"]) / side["median"]
                 for side in (p_side, c_side))
    beats_all = all(sign * (p - c) > 0 for p in parent for c in change)
    return {"better": better, "bound": bound, "parent": p_side,
            "change": c_side, "change_wins": wins, "change_losses": losses,
            "pairs": len(parent), "median_rel_change": rel,
            "parent_iqr": p_side["q3"] - p_side["q1"],
            "within_bound": sign * rel <= bound,
            "relative_spread": spread,
            "resolved": spread <= bound or beats_all}


# the thread control's two buffers and its repeats, of which the median
# time is kept
CONTROL_BYTES = 32 * 2**20
CONTROL_REPEATS = 5


def thread_control():
    """Serial and two-thread time of hashing two buffers, and their ratio.

    ``hashlib`` releases the GIL while it hashes more than 2047 bytes, so
    the ratio is the parallelism the host gives two threads right now.
    """
    buffers = [bytes(CONTROL_BYTES), b"\x01" * CONTROL_BYTES]
    serial, parallel = [], []
    for _ in range(CONTROL_REPEATS):
        start = time.perf_counter()
        for buf in buffers:
            hashlib.sha256(buf).digest()
        serial.append(time.perf_counter() - start)
        workers = [threading.Thread(target=hashlib.sha256, args=(buf,))
                   for buf in buffers]
        start = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        parallel.append(time.perf_counter() - start)
    one, two = statistics.median(serial), statistics.median(parallel)
    return {"serial_s": one, "two_threads_s": two, "speedup": one / two}


def run_cli(checkout, sweep, seed, threads, out):
    """One full sweep through the checkout's CLI.

    ``sweep`` is the subcommand and its ``--preset`` or ``--config`` flag.
    Returns the wall seconds and the run's peak resident set in MB, read
    from that one child's resource usage.
    """
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    with tempfile.TemporaryFile(mode="w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "jamlink.cli", *sweep,
             "--seed", str(seed), "--threads", str(threads), "--out",
             str(out), "--quiet"],
            stdout=subprocess.DEVNULL, stderr=err, text=True, cwd=checkout,
            env=env)
        # reaped here for its own resource usage; Popen must not wait again
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"{checkout} {' '.join(sweep)} --threads "
                               f"{threads}: "
                               f"exit {proc.returncode}\n{err.read().strip()}")
    # ru_maxrss is in KiB on Linux
    return wall, usage.ru_maxrss / 1024


def read_columns(path):
    """{column: list of cell strings} of an emitted CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        fh.readline()  # the schema line
        reader = csv.reader(fh)
        columns = next(reader)
        cells = {c: [] for c in columns}
        for row in reader:
            for c, v in zip(columns, row):
                cells[c].append(v)
    return cells


def relative_change(before, after):
    """|after - before| / |before| of two differing cells; inf where one
    side is 0 or either is not finite."""
    b, a = float(before), float(after)
    if b == 0 or a == 0 or not (math.isfinite(b) and math.isfinite(a)):
        return math.inf
    return abs(a - b) / abs(b)


def absolute_change(before, after):
    """|after - before| of two differing cells; None unless both are
    finite."""
    b, a = float(before), float(after)
    return abs(a - b) if math.isfinite(b) and math.isfinite(a) else None


def compare_csvs(parent, change):
    """Per column: cells of ``change`` that differ from ``parent``, the
    worst relative change among them and the worst absolute change among
    the finite ones (a cell that is 0 up to rounding on one side has an
    infinite relative change)."""
    before, after = read_columns(parent), read_columns(change)
    out = {}
    for name in dict.fromkeys([*before, *after]):
        p, c = before.get(name, []), after.get(name, [])
        pairs = [(x, y) for x, y in zip(p, c) if x != y]
        diffs = [relative_change(x, y) for x, y in pairs]
        diffs += [math.inf] * abs(len(p) - len(c))
        finite = [d for d in (absolute_change(x, y) for x, y in pairs)
                  if d is not None]
        out[name] = {"cells_changed": len(diffs),
                     "max_rel_change": max(diffs, default=0.0),
                     "max_abs_change": max(finite, default=0.0)}
    return out


def bench_sweeps(sides, seed, sweeps):
    """Each of ``sweeps``, {name: CLI subcommand and source flag}, at 1 and
    2 threads on each side, compared cell by cell."""
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, sweep) in enumerate(sweeps.items()):
            entry = {}
            for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
                checkout = sides[side]
                csvs = {t: Path(tmp) / f"{side}_{name}_{t}.csv"
                        for t in (1, 2)}
                control = thread_control()
                wall_1, _ = run_cli(checkout, sweep, seed, 1, csvs[1])
                wall, rss = run_cli(checkout, sweep, seed, 2, csvs[2])
                entry[side] = {
                    "wall_s_threads_1": wall_1,
                    "wall_s_threads_2": wall,
                    "thread_control": control,
                    "peak_rss_mb_threads_2": rss,
                    "threads_1_2_identical":
                        csvs[1].read_bytes() == csvs[2].read_bytes()}
            entry["columns"] = compare_csvs(Path(tmp) / f"parent_{name}_2.csv",
                                            Path(tmp) / f"change_{name}_2.csv")
            report[name] = entry
            changed = {k: v for k, v in entry["columns"].items()
                       if v["cells_changed"]}
            print(f"{name}: wall {entry['parent']['wall_s_threads_2']:.2f} -> "
                  f"{entry['change']['wall_s_threads_2']:.2f} s, peak RSS "
                  f"{entry['parent']['peak_rss_mb_threads_2']:.1f} -> "
                  f"{entry['change']['peak_rss_mb_threads_2']:.1f} MB, 1/2 threads "
                  f"identical {entry['parent']['threads_1_2_identical']}/"
                  f"{entry['change']['threads_1_2_identical']}, "
                  f"{len(changed)} columns changed", flush=True)
            for side in sides:
                e = entry[side]
                print(f"  {side}: 1 -> 2 threads {e['wall_s_threads_1']:.2f} "
                      f"-> {e['wall_s_threads_2']:.2f} s (x"
                      f"{e['wall_s_threads_1'] / e['wall_s_threads_2']:.2f}), "
                      f"sha256 control x{e['thread_control']['speedup']:.2f}",
                      flush=True)
            for column, v in changed.items():
                print(f"  {column:32s} {v['cells_changed']:5d} cells, "
                      f"max rel {v['max_rel_change']:.3g}, "
                      f"max abs {v['max_abs_change']:.3g}")
    return report


def bench_slow_tests(sides):
    """Wall time and exit code of each slow test, run alone on each side."""
    report = {}
    for i, node in enumerate(SLOW_TESTS):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        entry = {}
        for side in order:
            checkout = sides[side]
            env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "--durations=0", "--durations-min=0", node],
                capture_output=True, text=True, cwd=checkout, env=env,
                timeout=1800, check=False)
            # pytest's own setup + call + teardown lines, start-up excluded
            phases = re.findall(r"^([0-9.]+)s (?:setup|call|teardown) ",
                                proc.stdout, re.MULTILINE)
            entry[side] = {"wall_s": time.perf_counter() - start,
                           "test_s": sum(map(float, phases)),
                           "returncode": proc.returncode}
        report[node] = entry
        print(f"{node}: wall {entry['parent']['wall_s']:.2f} -> "
              f"{entry['change']['wall_s']:.2f} s, test "
              f"{entry['parent']['test_s']:.2f} -> "
              f"{entry['change']['test_s']:.2f} s (exit "
              f"{entry['parent']['returncode']}/"
              f"{entry['change']['returncode']})", flush=True)
    return report


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
    report["setup"] = bench_setup(sides)
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
    report["presets"] = bench_sweeps(
        sides, args.seed,
        {preset: (command, "--preset", preset) for preset, command in PRESETS})
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    report["configs"] = bench_sweeps(
        sides, args.seed,
        {path.stem: ("sweep", "--config", str(path)) for path in CONFIGS})
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    report["slow_tests"] = bench_slow_tests(sides)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        print(f"{workload}: failed parent {entry['parent_failed']}/"
              f"{entry['parent_attempted']}, change {entry['change_failed']}/"
              f"{entry['change_attempted']}")
        for name, m in entry["metrics"].items():
            print(f"  {name:14s} {m['parent']['median']:10.4g} -> "
                  f"{m['change']['median']:10.4g} "
                  f"({m['median_rel_change']:+.1%}, bound {m['bound']:.0%}, "
                  f"within bound {m['within_bound']}, resolved "
                  f"{m['resolved']} (spread {m['relative_spread']:.2f}), "
                  f"change wins {m['change_wins']}/{m['pairs']})")
        traced = entry["per_layer"]
        for name, before in traced["parent"]["metrics"].items():
            after = traced["change"]["metrics"][name]
            if before or after:
                print(f"  {name:40s} {before:12.4g} -> {after:12.4g} (traced)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
