"""jamlink preset-sweep benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig4_exact --seed 12345 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 12345 --seconds 30

Each workload is a cut-down paper preset run through the public harness API
(``preset_config`` -> ``run_ber_sweep`` / ``run_capacity_sweep`` ->
``emit_csv``) from the package sources in ``src/``.  The load is a closed
loop: one caller runs one sweep unit at a time on the harness thread pool
with a fixed thread count, for ``--seconds`` seconds after one untimed
warm-up unit.  The workload seed is the master seed of every config, so the
same seed gives the same inputs and the same CSV bytes.  Every unit's output
is checked (``checks.py``) and must also be byte-identical to the warm-up
unit's output.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of five
fresh-process imports of jamlink plus config construction, taken between
the first timed units), ``sweep_s``, ``points_per_s`` and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and
traced units and reports per-layer metrics from spans recorded around the
public functions of each package module (``tracer.py``); times are summed
across threads, counts marked ``_computed`` are derived from argument array
sizes, and every per-layer value is the median over traced units.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
prefixed ``env``, records the machine, versions, thread count, seed and
source identity.  CSVs, the full result and the span file go to
``.bench_out/`` in the repository root.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREADS = 2
SETUP_SAMPLES = 5
MIN_UNITS = 4

# workload -> ((preset, blocks or None for the preset's own size), ...).
# BER presets are cut by run.blocks only; N, payload size, the axis and the
# curves stay as users run them, so per-block size and memory stay real.
WORKLOADS = {
    # random broadband jamming, exact threshold, 50k-bit blocks, N=8 and the
    # DS-SS/FH baselines: baselines, CSCG draws and compose_energies
    "fig4_exact": (("fig4", 2),),
    # five jammer kinds under Rician fading, estimated threshold: tone
    # synthesis for the 41-tone curve and the preamble path of run_link
    "fig2_tonal": (("fig2", 4),),
    # BPSK/QPSK/16QAM jamming (noncentral chi-square threshold refinement,
    # modulated-jammer draws), then full fig8 (121 capacity solves) and fig7
    # (404 MI evaluations).  The capacity sweeps run on one thread and their
    # time swings more from run to run than a two-thread BER sweep's; alone
    # they made a workload whose spread sat at its bound, so they share a
    # unit with fig3, the other sweep dominated by closed-form work.
    "fig3_capacity": (("fig3", 4), ("fig8", None), ("fig7", None)),
}

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "points_per_s": "1/s",
                    "peak_rss_mb": "MB"}

# per-layer metric -> unit; see layer_metrics() for how each is formed
PER_LAYER_UNITS = {
    "kernels.tone_sum.s": "s",
    "kernels.tone_sum.ops": "ops_computed",
    "kernels.tone_sum.mops_per_s": "Mops/s",
    "signals.gen_tone_sum.s": "s",
    "signals.gen_tone_sum.samples": "count",
    "baselines.dsss_ber_mc.s": "s",
    "baselines.fh_ber_mc.s": "s",
    "baselines.trials": "count",
    "baselines.chips": "chips_computed",
    "harness.busy_s": "s",
    "harness.idle_s": "s",
    "theory.refine_threshold_det.s": "s",
    "theory.refine_threshold_det.calls": "count",
    "theory.ber_det_noncentral.s": "s",
    "theory.ber_det_noncentral.evals": "count",
    "theory.ber_det.evals": "count",
    "theory.closed_form.s": "s",
    "capacity.capacity.s": "s",
    "capacity.capacity.calls": "count",
    "capacity.mi_derivative.s": "s",
    "capacity.mi_derivative.calls": "count",
    "capacity.mutual_information.s": "s",
    "capacity.mutual_information.calls": "count",
    "capacity.quad_nodes": "nodes_computed",
    "kernels.compose_energies.s": "s",
    "kernels.compose_energies.samples": "count",
    "kernels.compose_energies.bytes": "bytes_computed",
    "kernels.compose_energies.msamples_per_s": "Msamples/s",
    "signals.gen_cscg.s": "s",
    "signals.gen_modulated.s": "s",
    "modem.run_link.self_s": "s",
    "modem.estimate_threshold.s": "s",
    "modem.degenerate_blocks": "count",
    "channel.draw_channel.s": "s",
    "theory.nan_points": "count",
    "harness.emit_csv_s": "s",
    "harness.csv_bytes": "bytes",
    "harness.trace_overhead": "ratio",
}

# modules whose self time is reported; config and cli are covered by
# setup_s, mc and errors do O(points) work
LAYERS = ("signals", "channel", "modem", "theory", "capacity", "baselines",
          "kernels", "harness")
for _layer in LAYERS:
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"

# The BER sweep's own span is the main thread waiting for pool tasks; every
# other span's self time is work on some thread.
WAIT_SPANS = ("harness.run_ber_sweep",)
CLOSED_FORM = ("theory.ber_random", "theory.ber_gaussian_approx",
               "theory.optimal_threshold_random")

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from dataclasses import replace
from jamlink import harness
for spec in sys.argv[4:]:
    preset, blocks = spec.split(":")
    cfg = harness.preset_config(preset, int(sys.argv[2]))
    extra = {"blocks": int(blocks)} if blocks else {}
    replace(cfg, threads=int(sys.argv[3]), **extra)
print(repr(time.perf_counter() - t0))
"""


class SetupError(Exception):
    """The checkout does not hold a runnable jamlink package."""


def import_jamlink():
    """Import jamlink from this checkout's sources and nowhere else."""
    init = SRC / "jamlink" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no package sources at {init.parent}")
    sys.path.insert(0, str(SRC))
    import jamlink
    if Path(jamlink.__file__).resolve() != init.resolve():
        raise SetupError(f"jamlink imported from {jamlink.__file__}, "
                         f"not from {init}")
    return jamlink


def build_configs(harness, workload, seed):
    cfgs = []
    for preset, blocks in WORKLOADS[workload]:
        cfg = harness.preset_config(preset, seed)
        extra = {"blocks": blocks} if blocks else {}
        cfgs.append(replace(cfg, threads=THREADS, **extra))
    return cfgs


def setup_sample(workload, seed):
    """Seconds to import jamlink and build the configs in a fresh process."""
    specs = [f"{p}:{b or ''}" for p, b in WORKLOADS[workload]]
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), str(seed), str(THREADS),
         *specs],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise SetupError(f"setup process failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# sweep units


class PointCounter:
    """Progress callback that counts the points a sweep has finished."""

    def __init__(self):
        self.point = 0

    def progress(self, _message=None):
        self.point += 1


def _produced_points(cfg, progress_calls):
    # BER sweeps report once per point; fig8 once per row (two points);
    # the prior sweep reports only after its last row
    if cfg.mode == "ber":
        return progress_calls
    return 2 * progress_calls if cfg.axis_name == "jnr_db" else 0


def expected_points(cfg):
    if cfg.mode == "ber":
        return checks.ber_points(cfg)
    return checks.capacity_points(cfg)


def run_unit(harness, cfgs, out_dir, progress_source):
    """Sweep and write every config once; returns (seconds, outcomes).

    An outcome is ``(cfg, result, csv_text, None)`` or, for a sweep that
    raised, ``(cfg, None, None, (points produced, error))``.
    """
    outcomes = []
    t0 = time.perf_counter()
    for cfg in cfgs:
        sweep = (harness.run_ber_sweep if cfg.mode == "ber"
                 else harness.run_capacity_sweep)
        path = out_dir / f"{cfg.preset}.csv"
        start = progress_source.point
        try:
            result = sweep(cfg, progress=progress_source.progress)
            harness.emit_csv(result, path)
        except Exception as exc:  # a failing sweep fails its points, not the run
            produced = _produced_points(cfg, progress_source.point - start)
            outcomes.append((cfg, None, None, (produced, repr(exc))))
            continue
        outcomes.append((cfg, result, None, None))
    seconds = time.perf_counter() - t0
    # read back after timing; the CSV is the program's output
    for i, (cfg, result, _text, err) in enumerate(outcomes):
        if err is None:
            text = (out_dir / f"{cfg.preset}.csv").read_text(encoding="utf-8")
            outcomes[i] = (cfg, result, text, None)
    return seconds, outcomes


def check_unit(reference, outcomes, first_texts):
    """(attempted, failed, messages) for one unit's outcomes.

    ``first_texts`` maps preset -> the CSV text of the first unit; later
    units must match it byte for byte.
    """
    attempted = failed = 0
    messages = []
    for cfg, result, text, err in outcomes:
        total = expected_points(cfg)
        attempted += total
        if err is not None:
            produced, why = err
            failed += total - min(produced, total)
            messages.append(f"{cfg.preset}: sweep raised {why}")
            continue
        if cfg.mode == "ber":
            bad = checks.check_ber(cfg, result)
        else:
            bad = checks.check_capacity(cfg, result, reference)
        if not checks.csv_matches(result, text):
            bad = [(None, "*", "CSV does not round-trip the result")] * total
        elif first_texts.setdefault(cfg.preset, text) != text:
            bad = [(None, "*", "CSV differs from the first unit's")] * total
        failed += min(len(bad), total)
        messages += [f"{cfg.preset} {v} {label}: {why}"
                     for v, label, why in bad[:5]]
    return attempted, failed, messages


def _nan_theory_points(outcomes):
    n = 0
    for _cfg, result, _text, _err in outcomes:
        if result is None:
            continue
        idx = [i for i, c in enumerate(result.columns)
               if c.endswith(".ber_theory")]
        n += sum(1 for row in result.rows for i in idx
                 if isinstance(row[i], float) and math.isnan(row[i]))
    return n


def layer_metrics(recorder, wall, outcomes):
    """Per-layer metrics of one traced unit."""
    total, calls, own, layer = tracer.summarize(recorder.spans, WAIT_SPANS)
    counts = recorder.counts
    m = {}
    for name in ("kernels.tone_sum", "signals.gen_tone_sum",
                 "baselines.dsss_ber_mc", "baselines.fh_ber_mc",
                 "theory.refine_threshold_det", "theory.ber_det_noncentral",
                 "capacity.capacity", "capacity.mi_derivative",
                 "capacity.mutual_information", "kernels.compose_energies",
                 "signals.gen_cscg", "signals.gen_modulated",
                 "modem.estimate_threshold", "channel.draw_channel"):
        m[f"{name}.s"] = total[name]
    for name in ("theory.refine_threshold_det", "capacity.capacity",
                 "capacity.mi_derivative", "capacity.mutual_information"):
        m[f"{name}.calls"] = calls[name]
    for name in ("kernels.tone_sum.ops", "signals.gen_tone_sum.samples",
                 "baselines.trials", "baselines.chips",
                 "theory.ber_det_noncentral.evals", "theory.ber_det.evals",
                 "capacity.quad_nodes", "kernels.compose_energies.samples",
                 "kernels.compose_energies.bytes"):
        m[name] = counts[name]
    m["kernels.tone_sum.mops_per_s"] = _rate(counts["kernels.tone_sum.ops"],
                                             total["kernels.tone_sum"])
    m["kernels.compose_energies.msamples_per_s"] = _rate(
        counts["kernels.compose_energies.samples"],
        total["kernels.compose_energies"])
    busy = sum(layer.values())
    m["harness.busy_s"] = busy
    m["harness.idle_s"] = THREADS * wall - busy
    m["theory.closed_form.s"] = sum(total[n] for n in CLOSED_FORM)
    m["modem.run_link.self_s"] = own["modem.run_link"]
    m["modem.degenerate_blocks"] = recorder.errors[
        ("modem.estimate_threshold", "DegenerateThresholdError")]
    m["theory.nan_points"] = _nan_theory_points(outcomes)
    m["harness.emit_csv_s"] = total["harness.emit_csv"]
    m["harness.csv_bytes"] = sum(len(text.encode("utf-8"))
                                 for _c, _r, text, _e in outcomes
                                 if text is not None)
    for name in LAYERS:
        m[f"{name}.self_s"] = layer[name]
    return m


def _rate(count, seconds):
    return count / seconds / 1e6 if seconds > 0 else 0.0


# ---------------------------------------------------------------------------
# environment


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def source_digest():
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "jamlink").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_info(jamlink, seed):
    import numpy
    import scipy
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_cache": l3 or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernels_backend": jamlink.kernels.BACKEND,
        "threads": THREADS,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "computed_counts": sorted(k for k, u in PER_LAYER_UNITS.items()
                                  if u.endswith("_computed")),
    }


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload, seed, seconds, trace):
    jamlink = import_jamlink()
    from jamlink import harness

    reference = checks.load_reference()
    cfgs = build_configs(harness, workload, seed)
    out_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    out_dir.mkdir(parents=True, exist_ok=True)

    attempted = failed = 0
    messages = []
    first_texts = {}

    def account(outcomes):
        nonlocal attempted, failed
        a, f, msg = check_unit(reference, outcomes, first_texts)
        attempted += a
        failed += f
        messages.extend(msg)

    # warm-up: lazy imports and first-call costs; checked, not timed
    _, outcomes = run_unit(harness, cfgs, out_dir, PointCounter())
    account(outcomes)

    recorder = tracer.Tracer(
        [sys.modules[f"jamlink.{name}"] for name in LAYERS],
        executor_module=harness) if trace else None
    points = sum(expected_points(cfg) for cfg in cfgs)

    # set-up samples are spread over the run's first units rather than taken
    # back to back, so one slow stretch of the machine does not set them all
    want_setup = 0 if trace else SETUP_SAMPLES
    setup_samples, plain, traced, per_layer, spans = [], [], [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(plain) < MIN_UNITS
           or len(setup_samples) < want_setup):
        if len(setup_samples) < want_setup:
            setup_samples.append(setup_sample(workload, seed))
        dt, outcomes = run_unit(harness, cfgs, out_dir, PointCounter())
        account(outcomes)
        plain.append(dt)
        if recorder is None:
            continue
        recorder.reset()
        with recorder:
            dt, outcomes = run_unit(harness, cfgs, out_dir, recorder)
        account(outcomes)
        traced.append(dt)
        per_layer.append(layer_metrics(recorder, dt, outcomes))
        spans = recorder.spans

    sweep_s = statistics.median(plain)
    if trace:
        metrics = {name: statistics.median(m[name] for m in per_layer)
                   for name in PER_LAYER_UNITS if name != "harness.trace_overhead"}
        metrics["harness.trace_overhead"] = statistics.median(traced) / sweep_s
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "sweep_s": sweep_s,
            "points_per_s": statistics.median(points / dt for dt in plain),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    env = machine_info(jamlink, seed)
    detail = {"workload": workload, "seconds": seconds, "trace": int(trace),
              "env": env, "units_timed": len(plain), "sweep_s_samples": plain,
              "traced_s_samples": traced,
              "setup_s_samples": setup_samples, "messages": messages[:50]}
    if trace:
        _write_trace(out_dir, detail, spans, per_layer)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }, env, detail


def _write_trace(out_dir, detail, spans, per_layer):
    """Spans of the last traced unit plus every unit's layer metrics."""
    t0 = min((s[2] for s in spans), default=0.0)
    doc = dict(detail, per_unit=per_layer,
               span_fields=["id", "name", "start_s", "end_s", "parent",
                            "thread", "point"],
               spans=[[i, n, a - t0, b - t0, p, t, pt]
                      for i, n, a, b, p, t, pt in spans])
    with open(out_dir / "trace.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# all workloads


def run_all(seed, seconds, trace):
    """Run every workload in its own process and print a metric table."""
    failed = attempted = 0
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        res = json.loads(lines[-1])
        failed += res["failed"]
        attempted += res["attempted"]
        ok = ok and res["correct"]
        ratio = res["failed"] / res["attempted"]
        print(f"{workload}: correct={res['correct']} "
              f"points={res['attempted']} failed_ratio={ratio:.6g}")
        for name, m in res["metrics"].items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "failed_ratio": failed / attempted if attempted else None}))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result, env, detail = run_workload(args.workload, args.seed,
                                           args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, detail=detail), fh, indent=1)
    for msg in detail["messages"][:10]:
        print(f"check: {msg}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
