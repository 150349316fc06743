"""Command-line front end: sweeps, capacity curves, closed forms, selftest."""

import argparse
import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import harness, kernels, theory
from .capacity import capacity as cap_capacity
from .capacity import mutual_information
from .channel import ChannelDraw
from .config import load_config
from .errors import ConfigError, JamlinkError, NumericalFailureError
from .modem import FrameConfig, block_energies
from .signals import JammerKind, JammerSpec, gen_cscg, gen_jammer_block

__all__ = ["cli_main"]

_VARIANCES, _LEVELS = ("d1", "d2"), ("qd1", "qd2")
# --op: (level operands, closed form at a threshold, default threshold), the
# forms by name in `theory`.  An op with no closed form prints its default
# and ignores --t; mi and capacity take no threshold.
_THEORY_OPS = {
    "optimal-threshold": (_VARIANCES, None, "optimal_threshold_random"),
    "ber-random": (_VARIANCES, "ber_random", "optimal_threshold_random"),
    "ber-gaussian": (_VARIANCES, "ber_gaussian_approx",
                     "optimal_threshold_random"),
    "ber-det": (_LEVELS, "ber_det", "optimal_threshold_det"),
    # the noncentral law's own optimum, the threshold exact mode uses
    "ber-det-noncentral": (_LEVELS, "ber_det_noncentral",
                           "optimal_threshold_noncentral"),
    "optimal-threshold-det": (_LEVELS, None, "optimal_threshold_noncentral"),
    "mi": (_VARIANCES, None, None),
    "capacity": (_VARIANCES, None, None),
}


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="jamlink",
                     description="Jamming-modulation link simulator and "
                                 "closed-form analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_run_flags(p, need_out=True):
        p.add_argument("--preset", choices=harness.PRESET_NAMES)
        p.add_argument("--config", metavar="FILE")
        p.add_argument("--seed", type=int)
        p.add_argument("--trials", type=float,
                       help="target payload bits per sweep point")
        p.add_argument("--threads", type=int)
        p.add_argument("--out", metavar="CSV", required=need_out)
        p.add_argument("--quiet", action="store_true")

    add_run_flags(sub.add_parser("sweep", help="Monte Carlo BER sweep"))
    add_run_flags(sub.add_parser("capacity", help="capacity / mutual-information sweep"))

    t = sub.add_parser("theory", help="evaluate one closed form")
    t.add_argument("--op", required=True, choices=list(_THEORY_OPS))
    t.add_argument("--d1", type=float, help="low conditional variance")
    t.add_argument("--d2", type=float, help="high conditional variance")
    t.add_argument("--qd1", type=float, help="low deterministic energy level")
    t.add_argument("--qd2", type=float, help="high deterministic energy level")
    t.add_argument("--sigma2", type=float, default=1.0)
    t.add_argument("--p", type=float, default=0.5, help="prior of '0' (or input p for mi)")
    t.add_argument("--n", type=int, default=1, help="samples per symbol")
    t.add_argument("--t", type=float, help="threshold (default: optimal)")
    t.add_argument("--model", choices=["real", "complex"], default="real")

    s = sub.add_parser("selftest", help="run the built-in invariant checks")
    s.add_argument("--quiet", action="store_true")
    return parser


def _resolve_config(args):
    if args.preset and args.config:
        raise ConfigError("--preset and --config are mutually exclusive")
    if args.config:
        raw = load_config(args.config)
    elif args.preset:
        raw = {"experiment.preset": args.preset}
    else:
        raise ConfigError("one of --preset or --config is required")
    # a flag wins over the file's key
    for key, flag in (("run.master_seed", args.seed),
                      ("run.threads", args.threads)):
        if flag is not None:
            raw[key] = str(flag)
    cfg = harness.config_from_mapping(raw)
    if args.trials is not None:
        # it sets the block count, which only BER sweeps read
        if cfg.mode != "ber":
            raise ConfigError("--trials is not read in capacity mode")
        if not (math.isfinite(args.trials) and args.trials > 0):
            raise ConfigError(
                f"--trials must be finite and > 0, got {args.trials!r}")
        blocks = max(1, round(args.trials / cfg.payload_bits_per_block))
        cfg = replace(cfg, blocks=blocks)
    return cfg


def _cmd_run(args):
    cfg = _resolve_config(args)
    command = "sweep" if cfg.mode == "ber" else "capacity"
    if args.command != command:
        kind = "BER" if cfg.mode == "ber" else "capacity"
        raise ConfigError(f"preset {cfg.preset!r} is a {kind} experiment; "
                          f"use the {command!r} subcommand")
    run = harness.run_ber_sweep if cfg.mode == "ber" \
        else harness.run_capacity_sweep
    result = run(cfg, progress=None if args.quiet else print)
    harness.emit_csv(result, args.out)
    if not args.quiet:
        cross = result.meta.get("crossover_jnr_db", math.nan)
        if not math.isnan(cross):
            print(f"crossover at JNR = {cross:.2f} dB")
        print(f"wrote {args.out} ({len(result.rows)} rows)")
    return 0


def _require(args, *names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise ConfigError(f"--op {args.op} requires " +
                          ", ".join(f"--{n}" for n in missing))


def _cmd_theory(args):
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    # mi takes the input probability p, which may be 0 or 1; the other
    # ops take the prior of '0'
    if not (0 <= args.p <= 1 if args.op == "mi" else 0 < args.p < 1):
        bounds = "[0, 1]" if args.op == "mi" else "(0, 1)"
        raise ConfigError(f"--p must lie in {bounds}, got {args.p!r}")
    operands, closed_form, optimum = _THEORY_OPS[args.op]
    _require(args, *operands)
    for name in ("d1", "d2", "qd1", "qd2", "sigma2", "t"):
        x = getattr(args, name)
        if x is not None and not math.isfinite(x):
            raise ConfigError(f"--{name} must be finite, got {x!r}")
    try:
        levels = theory.ConditionalVariances(args.d1, args.d2) \
            if operands == _VARIANCES else theory.DeterministicEnergies(
                qd_1=args.qd1, qd_2=args.qd2, sigma2_R=args.sigma2)
    except ValueError as exc:
        raise ConfigError(f"--op {args.op}: {exc}") from None
    p1, p2 = args.p, 1.0 - args.p
    if args.op == "mi":
        value = mutual_information(args.p, levels, model=args.model)
    elif args.op == "capacity":
        res = cap_capacity(levels, model=args.model)
        print(f"p_star={res.p_star:.17g}")
        value = res.capacity_bits
    else:
        t = args.t if closed_form and args.t is not None else \
            getattr(theory, optimum)(levels, p1, p2, args.n)
        value = getattr(theory, closed_form)(levels, p1, p2, args.n, t) \
            if closed_form else t
    if math.isnan(value):
        raise NumericalFailureError(
            f"--op {args.op} gives NaN at these operands")
    print(f"{value:.17g}")
    return 0


# ---------------------------------------------------------------------------
# selftest


def _check_threshold_optimality(rng):
    for _ in range(5):
        d1 = rng.uniform(0.5, 2.0)
        v = theory.ConditionalVariances(d1, d1 * rng.uniform(1.5, 8.0))
        n = int(rng.integers(1, 30))
        t_star = theory.optimal_threshold_random(v, 0.5, 0.5, n)
        best = theory.ber_random(v, 0.5, 0.5, n, t_star)
        grid = np.linspace(v.delta2_1 * 0.2, v.delta2_2 * 2.0, 200)
        if best > theory.ber_random(v, 0.5, 0.5, n, grid).min() + 1e-12:
            raise AssertionError(f"threshold beaten on grid (N={n})")


def _check_noncentral_threshold_root(rng):
    # the likelihood-ratio root, built on special.ive, must be the exact
    # law's BER minimum: no point of a 512-point grid may beat it
    for _ in range(5):
        s2 = rng.uniform(0.5, 2.0)
        qd1 = rng.uniform(0.0, 2.0) * s2
        d = theory.DeterministicEnergies(
            qd_1=qd1, qd_2=qd1 + rng.uniform(0.5, 4.0) * s2, sigma2_R=s2)
        n = int(rng.integers(1, 30))
        p1 = rng.uniform(0.2, 0.8)
        t_star = theory.optimal_threshold_noncentral(d, p1, 1 - p1, n)
        best = theory.ber_det_noncentral(d, p1, 1 - p1, n, t_star)
        grid = np.linspace(d.qd_1, d.qd_2 + 15.0 * s2, 512)
        if best > theory.ber_det_noncentral(d, p1, 1 - p1, n, grid).min() \
                + 1e-12:
            raise AssertionError(f"noncentral threshold beaten on grid (N={n})")


def _check_mi_endpoints(rng):
    v = theory.ConditionalVariances(1.0, 4.0)
    for p in (0.0, 1.0):
        if abs(mutual_information(p, v)) > 1e-8:
            raise AssertionError(f"MI({p}) != 0")
    lam, pa, pb = 0.3, 0.2, 0.7
    mid = mutual_information(lam * pa + (1 - lam) * pb, v)
    if mid < lam * mutual_information(pa, v) \
            + (1 - lam) * mutual_information(pb, v) - 1e-8:
        raise AssertionError("MI concavity violated")


def _check_chi_square(rng):
    from scipy import stats

    n_per, nsym = 10, 4000
    delta2 = 5.0
    jam = np.sqrt(0.5) * (rng.standard_normal(n_per * nsym)
                          + 1j * rng.standard_normal(n_per * nsym))
    noise = np.sqrt(0.5) * (rng.standard_normal(n_per * nsym)
                            + 1j * rng.standard_normal(n_per * nsym))
    q = kernels.compose_energies(jam, jam, noise, np.full(nsym, 1.0),
                                 complex(1.0), complex(1.0), n_per)
    # delta2 = |1*1 + 1|^2 * 1 + 1 = 5
    stat = stats.kstest(2 * n_per * q / delta2, stats.chi2(2 * n_per).cdf)
    if stat.pvalue < 0.01:
        raise AssertionError(f"KS p={stat.pvalue:.4f} < 0.01")


def _check_determinism(rng):
    cfg = harness.ExperimentConfig(
        preset="custom", mode="ber", axis_name="jnr_db", axis_values=(10.0,),
        curves=(harness.Curve("bbr", JammerSpec(
            kind=JammerKind.RANDOM_BROADBAND, power=1.0)),),
        frame=FrameConfig(N=10, M=10, a1=0.0, a2=2.0),
        rician=None, blocks=4, payload_bits_per_block=500, master_seed=7)
    r1 = harness.run_ber_sweep(replace(cfg, threads=1))
    r2 = harness.run_ber_sweep(replace(cfg, threads=4))
    if r1.rows != r2.rows:
        raise AssertionError("thread count changed results")


def _check_gaussian_approx(rng):
    # thresholds a bounded number of standard deviations from the means;
    # at the optimal threshold (deep tails) the CLT error grows with N
    v = theory.ConditionalVariances(1.0, 2.0)
    n = 100
    for u in (0.25, 0.5, 1.0):
        for t in (v.delta2_1 * (1 + u / math.sqrt(n)),
                  v.delta2_2 * (1 - u / math.sqrt(n))):
            exact = theory.ber_random(v, 0.5, 0.5, n, t)
            approx = theory.ber_gaussian_approx(v, 0.5, 0.5, n, t)
            if abs(approx - exact) / exact > 0.05:
                raise AssertionError(
                    f"Gaussian approximation off at N={n}, u={u}")


def _check_tone_sum(rng):
    # the reference reduces each phase exactly: in floating point,
    # 2*pi*f*m itself is off by ~1e-8 rad at m ~ 1e8
    amps = rng.uniform(0.1, 1.0, 41)
    freqs = rng.uniform(0.0, 0.5, 41)
    phases = rng.uniform(0.0, 2.0 * math.pi, 41)
    start, n = 120_000_000, 10_100
    got = kernels.tone_sum(amps, freqs, phases, start, n)
    tol = 1e-10 * amps.sum()
    for m in rng.choice(n, 16, replace=False):
        k = start + int(m)
        want = sum(a * math.cos(2.0 * math.pi * float(Fraction(f) * k % 1) + phi)
                   for a, f, phi in zip(amps, freqs, phases))
        if abs(got[m] - want) > tol:
            raise AssertionError(
                f"tone_sum off by {abs(got[m] - want):.2e} at sample {k}")


def _check_noncentral_law(rng):
    # ber_det_noncentral calls scipy's private _ncx2_sf ufunc in place of
    # stats.ncx2.sf; a scipy that moved or changed it must not go unnoticed
    from scipy import stats

    n, p1, p2 = 10, 0.3, 0.7
    d = theory.DeterministicEnergies(qd_1=0.5, qd_2=3.0, sigma2_R=1.0)
    ts = np.array([-1.0, 0.0, 0.2, d.qd_1, 1.7, d.qd_2, 6.0, np.inf, np.nan])
    x = 2.0 * n * ts / d.sigma2_R
    want = p1 * stats.ncx2.sf(x, 2 * n, 2.0 * n * d.qd_1 / d.sigma2_R) \
        + p2 * stats.ncx2.cdf(x, 2 * n, 2.0 * n * d.qd_2 / d.sigma2_R)
    got = theory.ber_det_noncentral(d, p1, p2, n, ts)
    if not np.array_equal(got, want, equal_nan=True):
        raise AssertionError(f"noncentral law {got} differs from stats {want}")


def _law_matches_samples(spec, cfg, rng):
    # block_energies draws this jammer's energies from their exact law; both
    # levels must match energies composed from its samples (KS, two-sample)
    from scipy import stats

    ch = ChannelDraw(h1=0.8 - 0.6j, h2=0.3 + 1.1j, h3=-0.7 + 0.4j,
                     sigma2_R=1.0)
    bits = np.repeat([0, 1], 2000)
    law, _ = block_energies(spec, ch, cfg, bits, rng)
    n = bits.size * cfg.N
    jam = gen_jammer_block(spec, n, 0, rng)
    noise = gen_cscg(ch.sigma2_R, n, rng)
    samples = kernels.compose_energies(
        jam, jam, noise, np.where(bits == 0, cfg.a1, cfg.a2), ch.h1 * ch.h2,
        ch.h3, cfg.N)
    for bit in (0, 1):
        p = stats.ks_2samp(law[bits == bit], samples[bits == bit]).pvalue
        if p < 1e-3:
            raise AssertionError(
                f"{spec.kind.value} bit {bit}: KS p={p:.2e} < 1e-3")


def _check_random_energy_law(rng):
    _law_matches_samples(JammerSpec(kind=JammerKind.RANDOM_BROADBAND,
                                    power=1.0),
                         FrameConfig(N=8, M=2, a1=0.5, a2=2.0), rng)


def _check_modulated_energy_law(rng):
    cfg = FrameConfig(N=10, M=2, a1=0.0, a2=2.0)
    for kind in (JammerKind.MOD_BPSK, JammerKind.MOD_QPSK,
                 JammerKind.MOD_16QAM):
        _law_matches_samples(JammerSpec(kind=kind, power=1.0), cfg, rng)


def _cmd_selftest(args):
    checks = [
        ("threshold-optimality", _check_threshold_optimality),
        ("noncentral-threshold-root", _check_noncentral_threshold_root),
        ("mi-endpoints-concavity", _check_mi_endpoints),
        ("chi-square-law", _check_chi_square),
        ("thread-determinism", _check_determinism),
        ("gaussian-approx", _check_gaussian_approx),
        ("tone-sum-large-offset", _check_tone_sum),
        ("noncentral-law-matches-stats", _check_noncentral_law),
        ("random-energy-law", _check_random_energy_law),
        ("modulated-energy-law", _check_modulated_energy_law),
    ]
    rng = np.random.default_rng(20240817)
    failed = 0
    for name, fn in checks:
        try:
            fn(rng)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            if not args.quiet:
                print(f"ok {name}")
    if failed:
        print(f"{failed} of {len(checks)} checks failed")
        return 2
    if not args.quiet:
        print(f"all {len(checks)} checks passed")
    return 0


def cli_main(argv=None):
    """Entry point; returns the process exit code (0 ok, 1 config, 2 runtime)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"sweep": _cmd_run, "capacity": _cmd_run,
                "theory": _cmd_theory, "selftest": _cmd_selftest}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (JamlinkError, OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(cli_main())
