"""Output checks for the benchmark's sweeps.

A point is one (axis value, curve) cell of a sweep.  Every check returns the
list of failed points as ``(axis value, curve label, reason)`` tuples, one
per point at most, so ``len(result)`` is that sweep's failed-point count.

BER checks compare the simulation against closed forms only where the
theory column is exact for the curve; tonal curves, whose shifted-gamma
theory column is known to be wrong, get sanity checks only.  Capacity
checks compare against reference values stored from the seed commit.
"""

import json
import math
from pathlib import Path

# Wilson half-widths a simulated BER may sit from an exact closed form.
K_HALF_WIDTHS = 3.0

# Capacity tolerances.  The capacity solver bisects p to xtol = 1e-6, so
# p* may move by that much under any change that keeps the method; every
# tolerance here is ten times that or more.
CAPACITY_TOL = {"p_star": 1e-5, "capacity_bits": 1e-5, "mi": 1e-5,
                "dt_capacity_bits": 1e-9, "crossover_jnr_db": 1e-3}

REFERENCE_FILE = Path(__file__).with_name("reference_capacity.json")

_ESTIMATED_EXACT_LAW = ("random_broadband", "mod_bpsk", "mod_qpsk")
_TONAL = ("single_tone", "multi_tone", "narrowband", "det_broadband")


def _q(x):
    """Standard normal tail probability."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _half_width(lo, hi):
    return (hi - lo) / 2.0


def _ci_ok(ber, lo, hi):
    return (all(math.isfinite(v) for v in (ber, lo, hi))
            and 0.0 <= lo <= ber <= hi <= 1.0)


def _curve_reason(curve, f, bits_expected):
    """Why one BER curve cell fails, or None."""
    if f["bits"] != bits_expected:
        return f"bits {f['bits']} != {bits_expected}"
    if not (f["errors"] >= 0 and f["errors"] == int(f["errors"])):
        return f"bad error count {f['errors']}"
    if f["ber_sim"] != f["errors"] / f["bits"]:
        return "ber_sim != errors / bits"
    if not _ci_ok(f["ber_sim"], f["ci_low"], f["ci_high"]):
        return "Wilson interval does not hold ber_sim inside [0, 1]"
    if not (math.isfinite(f["sinr"]) and f["sinr"] > 0):
        return f"sinr {f['sinr']} not finite and positive"
    kind = curve.jammer.kind.value
    theory, gauss = f["ber_theory"], f["ber_gauss"]
    slack = K_HALF_WIDTHS * _half_width(f["ci_low"], f["ci_high"])
    if kind == "random_broadband" and not 0.0 <= gauss <= 1.0:
        return f"ber_gauss {gauss} outside [0, 1]"
    if kind != "random_broadband" and not math.isnan(gauss):
        return f"ber_gauss {gauss} should be NaN for {kind}"
    if kind == "mod_16qam" and not math.isnan(theory):
        return "16QAM has no closed form; ber_theory should be NaN"
    if kind in _TONAL and not (math.isnan(theory) or 0.0 <= theory <= 1.0):
        return f"ber_theory {theory} outside [0, 1]"
    if kind in _ESTIMATED_EXACT_LAW:
        if not 0.0 <= theory <= 1.0:
            return f"ber_theory {theory} outside [0, 1]"
        if curve.threshold_mode == "exact" and abs(f["ber_sim"] - theory) > slack:
            return (f"ber_sim {f['ber_sim']:.4g} more than {K_HALF_WIDTHS} "
                    f"half-widths from exact theory {theory:.4g}")
        # an estimated threshold can only do worse than the optimal one
        if f["ber_sim"] < theory - slack:
            return (f"ber_sim {f['ber_sim']:.4g} below optimal-threshold "
                    f"theory {theory:.4g} by more than {K_HALF_WIDTHS} "
                    f"half-widths")
    return None


def _baseline_reason(f, eb_n0_db, jnr_db):
    if not _ci_ok(f["ber_sim"], f["ci_low"], f["ci_high"]):
        return "Wilson interval does not hold ber_sim inside [0, 1]"
    ebn0 = 10.0 ** (eb_n0_db / 10.0)
    jnr = 10.0 ** (jnr_db / 10.0)
    # fullband CSCG jamming adds its power to the noise on every chip
    theory = _q(math.sqrt(2.0 * ebn0 / (1.0 + jnr)))
    slack = K_HALF_WIDTHS * _half_width(f["ci_low"], f["ci_high"])
    if abs(f["ber_sim"] - theory) > slack:
        return (f"ber_sim {f['ber_sim']:.4g} more than {K_HALF_WIDTHS} "
                f"half-widths from Q(sqrt(2 Eb/N0 / (1 + JNR))) = {theory:.4g}")
    return None


def ber_points(cfg):
    """Number of points a BER sweep of ``cfg`` produces."""
    per_row = len(cfg.curves) + (2 if cfg.include_baselines else 0)
    return len(cfg.axis_values) * per_row


def check_ber(cfg, result):
    """Failed points of a BER sweep result against its config."""
    col = {name: i for i, name in enumerate(result.columns)}
    bits = cfg.blocks * cfg.payload_bits_per_block
    failed = []
    if len(result.rows) != len(cfg.axis_values):
        return [(None, "*", f"{len(result.rows)} rows, expected "
                 f"{len(cfg.axis_values)}")] * ber_points(cfg)
    for row, value in zip(result.rows, cfg.axis_values):
        def fields(label, names):
            return {n: float(row[col[f"{label}.{n}"]]) for n in names}
        for curve in cfg.curves:
            try:
                f = fields(curve.label, ("errors", "bits", "ber_sim", "ci_low",
                                         "ci_high", "ber_theory", "ber_gauss",
                                         "sinr"))
                reason = _curve_reason(curve, f, bits)
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"unreadable cell: {exc!r}"
            if reason:
                failed.append((value, curve.label, reason))
        if cfg.include_baselines:
            for label in ("dsss", "fh"):
                try:
                    f = fields(label, ("ber_sim", "ci_low", "ci_high"))
                    reason = _baseline_reason(f, cfg.baseline_eb_n0_db, value)
                except (KeyError, TypeError, ValueError) as exc:
                    reason = f"unreadable cell: {exc!r}"
                if reason:
                    failed.append((value, label, reason))
    return failed


def capacity_points(cfg):
    """Number of points a capacity sweep of ``cfg`` produces."""
    per_row = len(cfg.snr_curves_db) if cfg.axis_name == "p" else 2
    return len(cfg.axis_values) * per_row


def load_reference():
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b, tol):
    return math.isfinite(float(a)) and abs(float(a) - float(b)) <= tol


def check_capacity(cfg, result, reference):
    """Failed points of a capacity sweep against the stored reference."""
    ref = reference[cfg.preset]
    if len(result.rows) != len(ref["rows"]):
        return [(None, "*", f"{len(result.rows)} rows, expected "
                 f"{len(ref['rows'])}")] * capacity_points(cfg)
    failed = []
    if cfg.axis_name == "p":
        labels = [c.split(".", 1)[1] for c in result.columns[1:]]
        peaks = result.meta.get("peaks", {})
        for row, ref_row in zip(result.rows, ref["rows"]):
            for i, label in enumerate(labels, start=1):
                peak, ref_peak = peaks.get(label), ref["peaks"][label]
                if row[0] != ref_row[0]:
                    reason = f"p {row[0]} != {ref_row[0]}"
                elif not _close(row[i], ref_row[i], CAPACITY_TOL["mi"]):
                    reason = f"mi {row[i]} != reference {ref_row[i]}"
                elif peak is None or not all(
                        _close(peak[k], ref_peak[k], CAPACITY_TOL[k])
                        for k in ("p_star", "capacity_bits")):
                    reason = f"peak {peak} != reference {ref_peak}"
                else:
                    continue
                failed.append((row[0], label, reason))
        return failed

    crossover = result.meta.get("crossover_jnr_db", math.nan)
    crossover_ok = _close(crossover, ref["crossover_jnr_db"],
                          CAPACITY_TOL["crossover_jnr_db"])
    snr_db = cfg.snr_curves_db[0]
    for row, ref_row in zip(result.rows, ref["rows"]):
        jnr, c_aaj, p_star, c_dt = row
        if jnr != ref_row[0]:
            failed.append((jnr, "aaj", f"jnr {jnr} != {ref_row[0]}"))
            failed.append((jnr, "dt", f"jnr {jnr} != {ref_row[0]}"))
            continue
        if not _close(c_aaj, ref_row[1], CAPACITY_TOL["capacity_bits"]):
            failed.append((jnr, "aaj", f"capacity {c_aaj} != {ref_row[1]}"))
        elif not _close(p_star, ref_row[2], CAPACITY_TOL["p_star"]):
            failed.append((jnr, "aaj", f"p* {p_star} != {ref_row[2]}"))
        elif not crossover_ok:
            failed.append((jnr, "aaj", f"crossover {crossover} != "
                           f"{ref['crossover_jnr_db']}"))
        # direct transmission treats the jamming as noise, unit gains
        p_a = 10.0 ** (snr_db / 10.0) * cfg.sigma2_R
        p_j = 10.0 ** (jnr / 10.0) * cfg.sigma2_R
        dt = math.log2(1.0 + p_a / (p_j + cfg.sigma2_R))
        if not _close(c_dt, dt, CAPACITY_TOL["dt_capacity_bits"]):
            failed.append((jnr, "dt", f"dt capacity {c_dt} != {dt}"))
    return failed


def csv_matches(result, text):
    """Whether emitted CSV text holds exactly the result's columns and rows.

    Floats must round-trip bit for bit (NaN matches NaN), which is what the
    17-significant-digit format promises.
    """
    lines = text.split("\n")
    if not lines or not lines[0].startswith("# schema=") or lines[-1] != "":
        return False
    body = lines[1:-1]
    if len(body) != len(result.rows) + 1:
        return False
    if body[0].split(",") != list(result.columns):
        return False
    for line, row in zip(body[1:], result.rows):
        cells = line.split(",")
        if len(cells) != len(row):
            return False
        for cell, value in zip(cells, row):
            got = float(cell)
            if not (got == value or (math.isnan(got) and math.isnan(value))):
                return False
    return True
