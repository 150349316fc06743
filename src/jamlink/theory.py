"""Closed-form detection performance: energy laws, BER, thresholds, limits.

The energy of a bit-k symbol is ``(s_k/2N) chi'^2(2N, 2N qd_k/s_k)``
(Urkowitz 1967): central under random broadband (CSCG) jamming, with
``s_k = delta2_k``, and with one ``s = sigma2_R`` under deterministic
jamming.  One BER form and one optimal threshold serve both.  Everything
here is a pure function; the simulator is cross-validated against these
forms, not the other way round.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
# the ufunc stats.ncx2._sf calls in scipy 1.17.1; private, so the selftest
# check noncentral-law-matches-stats compares it against stats.ncx2.sf
from scipy.special._ufuncs import _ncx2_sf

from .errors import DegenerateChannelError

__all__ = [
    "EnergyLaw",
    "jam_energy",
    "delta2",
    "variances",
    "ber",
    "optimal_threshold",
    "ber_det",
    "optimal_threshold_det",
    "ber_gaussian_approx",
]


@dataclass(frozen=True)
class EnergyLaw:
    """Scales ``s_k`` and deterministic energies ``qd_k`` of the two bits.

    A law is central (both ``qd_k`` 0) or has one common ``s``; any other
    shape is a ``ValueError``, and so are ``s_k <= 0`` and ``qd_k < 0``.
    Construction sorts the bits so that '1' is the louder; two equal bits
    are rejected because no detector can separate them.
    """

    s_1: float
    s_2: float
    qd_1: float = 0.0
    qd_2: float = 0.0

    def __post_init__(self):
        s_1, s_2 = float(self.s_1), float(self.s_2)
        qd_1, qd_2 = float(self.qd_1), float(self.qd_2)
        if not (s_1 > 0 and s_2 > 0):
            raise ValueError("energy scales s_k must be > 0")
        if not (qd_1 >= 0 and qd_2 >= 0):
            raise ValueError("deterministic energies qd_k must be >= 0")
        if (qd_1 or qd_2) and s_1 != s_2:
            raise ValueError("a law is central or has one common scale s")
        lo, hi = sorted(((qd_1, s_1), (qd_2, s_2)))
        if lo == hi:
            raise DegenerateChannelError("the two energy laws coincide")
        vars(self).update(qd_1=lo[0], s_1=lo[1], qd_2=hi[0], s_2=hi[1])

    @property
    def central(self):
        """True for the random-jamming law, with no deterministic energy."""
        return self.qd_2 == 0


def jam_energy(ch, a_k, P_J):
    """Received jamming power |h1 h2 a_k + h3|^2 P_J of symbol k.

    The two paths add coherently, so this holds when both carry the same
    jammer sample: ``ch.n_tau = 0``.
    """
    if not P_J > 0:
        raise ValueError("P_J must be > 0")
    return abs(ch.h1 * ch.h2 * a_k + ch.h3) ** 2 * P_J


def delta2(ch, a_k, P_J):
    """Conditional variance ``jam_energy(ch, a_k, P_J) + sigma2_R``."""
    return float(jam_energy(ch, a_k, P_J) + ch.sigma2_R)


def variances(ch, a1, a2, P_J):
    """The central law of an amplification alphabet on one channel draw."""
    return EnergyLaw(delta2(ch, a1, P_J), delta2(ch, a2, P_J))


def _sf(x, df, lam):
    """``P(X > x)`` at x >= 0 or NaN, X noncentral chi-square (df, lam), by
    the ufuncs under ``stats.ncx2``/``stats.chi2`` with their boundary rules
    (0 gives sf 1 and cdf 0, +inf sf 0 and cdf 1, NaN stays NaN).  The
    central ``chdtrc(df, x)`` is ``Q(df/2, x/2)`` itself."""
    if not lam > 0:
        return special.chdtrc(df, x)
    with np.errstate(over="ignore"):  # as stats.ncx2 does (scipy gh-17432)
        sf = _ncx2_sf(x, df, lam)
    # _ncx2_sf gives 0 at 0 and NaN at +inf
    return np.where(x == 0, 1.0, np.where(x == np.inf, 0.0, sf))


def _cdf(x, df, lam):
    """``P(X <= x)``, the complement of :func:`_sf`, by its rules, which
    ``chndtr`` keeps itself at x >= 0."""
    if not lam > 0:
        return special.chdtr(df, x)
    with np.errstate(over="ignore"):
        return special.chndtr(x, df, lam)


def ber(law, p1, p2, N, threshold):
    """Exact BER of the energy detector at a threshold.

    ``p1 P(Q_1 > T) + p2 P(Q_2 <= T)`` under the law's two energies; for
    the central law ``p1 Q(N, N T/s_1) + p2 P(N, N T/s_2)``, with P and
    Q = 1 - P the regularized incomplete gamma functions, bit for bit.  The
    '0' tail is evaluated directly, so a tail far below 1e-16 keeps its
    relative accuracy, and a threshold below 0 is 0: energies are never
    negative.  Broadcasts over ``threshold``.  The shifted-gamma
    :func:`ber_det` drops the noise-times-signal cross term and understates
    its spread (variance ``sigma2^2/N``, not ``(sigma2^2 + 2 qd sigma2)/N``).
    """
    x = 2.0 * N * np.maximum(np.asarray(threshold, dtype=np.float64), 0.0)
    df = 2 * N
    out = p1 * _sf(x / law.s_1, df, 2.0 * N * law.qd_1 / law.s_1) \
        + p2 * _cdf(x / law.s_2, df, 2.0 * N * law.qd_2 / law.s_2)
    return float(out) if out.ndim == 0 else out


def ber_det(law, p1, p2, N, threshold):
    """Shifted-gamma BER approximation under deterministic jamming.

    ``law`` has one scale ``s = sigma2_R``.  Both branch arguments are
    clamped at zero so thresholds at or below a level degrade to the
    correct limiting probability instead of a domain error.  The model
    drops the noise-times-signal cross term that :func:`ber` keeps; as
    there, the '0' tail is the upper incomplete gamma function itself.
    """
    t = np.asarray(threshold, dtype=np.float64)
    x0 = np.maximum(t - law.qd_1, 0.0)
    x1 = np.maximum(t - law.qd_2, 0.0)
    miss0 = special.gammaincc(N, N * x0 / law.s_1)
    miss1 = special.gammainc(N, N * x1 / law.s_1)
    out = p1 * miss0 + p2 * miss1
    return float(out) if out.ndim == 0 else out


def optimal_threshold_det(law, p1, p2, N):
    """BER-minimizing threshold of the shifted-gamma law of :func:`ber_det`.

    ``law`` has one scale ``s = sigma2_R``.  Above ``qd_2`` the two energy
    densities are ``f_k(T) ~ (T - qd_k)^(N-1) exp(-N (T - qd_k) / sigma2_R)``
    with a common constant, and below it the '1' density is zero, so the BER
    falls there.  The derivative of the BER is ``p2 f_1 - p1 f_0``, and the log
    of ``p2 f_1 / (p1 f_0)`` is ``k + (N-1) ln((T - qd_2) / (T - qd_1))``
    with ``k = N (qd_2 - qd_1) / sigma2_R + ln(p2/p1)``.  It rises in T (a
    monotone likelihood ratio), so it has at most one root, the minimizer:
    with ``r = exp(-k / (N-1))``,
    ``T* = (qd_2 - r qd_1) / (1 - r) = qd_2 + (qd_2 - qd_1) r / (1 - r)``,
    evaluated in the second form through ``expm1``.

    For N = 1 the ratio is ``exp(k)`` at every T above ``qd_2``, so the BER
    turns there and ``T* = qd_2``.  When k <= 0, for any N, the ratio
    stays below 1 and the BER falls over the whole bracket
    ``[qd_1, qd_2 + 15 sigma2_R]`` that :func:`optimal_threshold` searches
    for a deterministic law; its end is returned.
    """
    k = N * (law.qd_2 - law.qd_1) / law.s_1 + math.log(p2 / p1)
    if k <= 0:
        return float(law.qd_2 + 15.0 * law.s_1)
    if N == 1:
        return float(law.qd_2)
    x = k / (N - 1)
    return float(law.qd_2
                 + (law.qd_2 - law.qd_1) * math.exp(-x) / -math.expm1(-x))


def _log_ncx2_over_chi2(x, N, lam):
    """log of the noncentral (lam) over the central chi-square density, both
    with 2N degrees of freedom, at arrays x >= 0 and lam that broadcast.

    That is ``-lam/2 + log 0F1(; N; lam x / 4)``, written through
    ``log I_v(z) = log ive(v, z) + z`` with ``z = sqrt(lam x)`` so that it
    stays finite where the densities themselves underflow.  Where ``ive``
    underflows (z tiny, or 0 as for the central law or at x = 0) the 0F1
    factor is 1 to within ``lam x / 4N``.
    """
    z = np.sqrt(lam * x)
    bessel = np.where(z > 0, special.ive(N - 1, z), 0.0)
    out = -lam / 2
    on = bessel != 0
    z, bessel = z[on], bessel[on]
    out[on] = (out[on] + special.gammaln(N) + (N - 1) * _log(2.0 / z)
               + _log(bessel) + z)
    return out


def _log(a):
    # math.log per element: on CPUs where numpy's log runs in SIMD loops it
    # differs from the C library's by an ulp in about 1 of 2000 arguments,
    # which moves a root's last bits
    return np.array([math.log(v) for v in a.tolist()])


# scipy brentq's relative tolerance and iteration limit
_BRENT_RTOL = 4 * np.finfo(float).eps
_BRENT_MAXITER = 100


def _lockstep(lo, hi, values, xtol):
    """Brent roots of many brackets ``[lo[k], hi[k]]``, stepped in lockstep.

    ``values(keys, x)`` returns an array: the function of bracket
    ``keys[j]`` at ``x[j]``.  The first round evaluates every bracket end
    in one call, all of ``lo`` then all of ``hi``.  A bracket whose ends
    give no root (both of one sign, or a NaN end) gets None; each other
    bracket runs one :func:`_brent_steps` generator, primed with its two
    end values, and each later round is one ``values`` call over the
    generators still unsolved.  Returns ``(roots, f_lo, f_hi)``, lists by
    bracket.  A NaN inside a bracket raises ``ValueError``, and scipy's 100
    steps without convergence ``RuntimeError``.  The package's one Brent
    loop: :func:`optimal_threshold` and :func:`capacity.capacity`
    both run on it, and every root is scipy's ``brentq`` root bit for bit.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    keys = np.arange(lo.size)
    ends = values(np.concatenate([keys, keys]),
                  np.concatenate([lo, hi])).tolist()
    f_lo, f_hi = ends[:lo.size], ends[lo.size:]
    roots, steps = [None] * lo.size, {}

    def advance(k, gen, f):
        try:
            steps[k] = gen, gen.send(f)
        except StopIteration as done:
            roots[k] = done.value
            steps.pop(k, None)

    for k, (a, b, fa, fb) in enumerate(zip(lo.tolist(), hi.tolist(), f_lo,
                                           f_hi)):
        if fa <= 0 <= fb or fb <= 0 <= fa:
            advance(k, _brent_steps(a, b, fa, fb, xtol), None)
    while steps:
        live = list(steps)
        fx = values(np.array(live), np.array([steps[k][1] for k in live]))
        for k, f in zip(live, fx.tolist()):
            advance(k, steps[k][0], f)
    return roots, f_lo, f_hi


def _brent_steps(a, b, fa, fb, xtol):
    """Brent's method as a generator: yields each new x, is sent ``f(x)``.

    A line-for-line port of scipy's ``brentq.c`` with the defaults of
    scipy's ``brentq``, started from the values ``fa`` and ``fb`` at the
    bracket ends, which :func:`_lockstep` has checked: neither NaN, and not
    of one sign.  The root is the generator's return value.  Each step
    tries inverse quadratic extrapolation (secant interpolation while only
    two points are distinct), keeps it only when
    ``2|s| < min(|s_prev|, 3|s_bis| - delta)`` and bisects otherwise; no
    step is shorter than ``delta = (xtol + rtol |x|) / 2``, with scipy's
    ``rtol = 4 eps``.
    """
    xpre, xcur, fpre, fcur = a, b, fa, fb
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # an underflowed den gives C an infinite step, so it bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den \
                    else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = yield xcur
        if math.isnan(fcur):
            raise ValueError(f"the function value at x={xcur} is NaN")
    raise RuntimeError(f"failed to converge after {_BRENT_MAXITER} "
                       f"iterations, value is {xcur}")


def _central_optimum(law, p1, p2, N):
    """The central law's closed-form optimum; see :func:`optimal_threshold`."""
    x, y = law.s_1, law.s_2
    # written as log(p1/p2)/N + log(y/x) to dodge (y/x)**N overflow
    return float((x * y / (y - x)) * (math.log(p1 / p2) / N + math.log(y / x)))


def _roots(laws, p1, p2, N):
    """The likelihood-ratio roots of deterministic laws, in one lockstep."""
    lo = [u.qd_1 for u in laws]
    hi = [u.qd_2 + 15.0 * u.s_1 for u in laws]
    scale = np.array([2.0 * N / u.s_1 for u in laws])
    # row 0 the noncentrality of qd_2, row 1 that of qd_1
    lam = scale * np.array([[u.qd_2 for u in laws], lo])
    log_prior = math.log(p2 / p1)

    def log_ratio(keys, t):
        both = _log_ncx2_over_chi2(scale[keys] * t, N, lam[:, keys])
        return log_prior + both[0] - both[1]

    roots, f_lo, f_hi = _lockstep(lo, hi, log_ratio, 2e-12)  # brentq's xtol
    return [t if t is not None
            else math.nan if math.isnan(fa) or math.isnan(fb)
            else a if fa > 0 else b
            for t, a, b, fa, fb in zip(roots, lo, hi, f_lo, f_hi)]


def optimal_threshold(law, p1, p2, N):
    """BER-minimizing threshold of :func:`ber`: where ``p1 f_1 = p2 f_2``.

    For the central law that is the closed form
    ``(s_1 s_2 / (s_2 - s_1)) (ln(p1/p2)/N + ln(s_2/s_1))``; for equal
    priors N cancels.  :func:`modem.estimate_threshold` maps its two
    estimated levels through it.  A deterministic law solves
    ``p1 f(x; 2N, lam1) = p2 f(x; 2N, lam2)`` with ``x = 2N T / s`` and
    ``lam_k = 2N qd_k / s``; the central density both share cancels from
    the ratio.  The family has a monotone likelihood ratio (Karlin and
    Rubin 1956), so the log of that ratio rises through at most one root on
    ``[qd_1, qd_2 + 15 s]``, and without one its sign at the ends says
    which way the BER runs there: ``qd_1`` where it is positive, the upper
    end where it is negative.  Where an end's log ratio is NaN
    (``special.ive`` gives NaN past an argument of 2**30: from about 68 dB
    JNR at unit gains and N = 10) the threshold is NaN.

    ``law`` is one :class:`EnergyLaw` (a float back) or a sequence of laws
    of either shape (a list back).  A sequence's roots are solved by one
    :func:`_lockstep`, each round one array evaluation of the log ratio
    over the brackets still unsolved; every root is scipy's ``brentq`` on
    the scalar log ratio bit for bit, and an entry equals the law alone.
    """
    if isinstance(law, EnergyLaw):
        return _central_optimum(law, p1, p2, N) if law.central \
            else _roots([law], p1, p2, N)[0]
    laws = list(law)
    roots = iter(_roots([u for u in laws if not u.central], p1, p2, N))
    return [_central_optimum(u, p1, p2, N) if u.central else next(roots)
            for u in laws]


def ber_gaussian_approx(law, p1, p2, N, threshold):
    """Large-N Gaussian (central-limit) BER approximation of a central law.

    ``p1 Q((T - s1) sqrt(N)/s1) + p2 Q((s2 - T) sqrt(N)/s2)`` with Q the
    standard normal tail.  Accurate only while the threshold stays a bounded
    number of standard deviations from both means.
    """
    t = np.asarray(threshold, dtype=np.float64)
    rn = math.sqrt(N)
    # Q(z) = ndtr(-z), the ufunc under stats.norm.sf, bit for bit
    out = p1 * special.ndtr(-((t - law.s_1) * rn / law.s_1)) \
        + p2 * special.ndtr(-((law.s_2 - t) * rn / law.s_2))
    return float(out) if out.ndim == 0 else out

