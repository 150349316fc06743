"""Mutual information and capacity of the binary-input two-variance channel.

The detector-facing channel maps input symbol k to a zero-mean Gaussian
output of variance delta2_k, a central law's ``s_k``.  The default treats
the output as a real scalar; ``model="complex"`` switches to a circularly
symmetric complex output with the same per-symbol variances, which matters
when comparing against baselines defined on the complex baseband
(conditional entropies differ by the dimension factor).

Both the mutual information and its derivative in p are read off one pair
of expectations, ``A_k = E_{Y~phi_k}[log2 f(Y)]`` under each component of
the output mixture f.  They are integrals over the radius y >= 0, taken
with a 32-node Gauss-Legendre rule (Golub and Welsch, Math. Comp. 1969) on
panels split at 0, 12 sigma_1 and 12 sigma_2, at the crossover y* where
``p phi1 = (1 - p) phi2``, and at ``y* +- {1, 2, 4, 8} w`` with w the width
of the transition of ``log f`` there.  The narrow component, the wide tail
and the kink of ``log f`` each get their own panels, so the rule agrees
with an 8001-node Simpson grid to 1e-9 for variance ratios up to 1e12.

The rule works on rows ``(p, delta2_1, delta2_2)``, many at once.  Every
row has the same 12 cuts (coinciding cuts make zero-width panels that add
an exact 0), so a batch is one set of 2-D arrays, reduced row by row, and a
row of a batch equals the one-row call bit for bit.  Batches are taken in
passes of at most 32 rows, which keeps a pass's arrays near 1 MB.  An array
``p`` in :func:`mutual_information` or :func:`mi_derivative` is one batch;
:func:`capacity` of a sequence of channels solves one Brent root per channel
in lockstep (:func:`theory._lockstep`): one batch over both bracket ends of
every channel, then each round one batch over the channels still unsolved.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError
from .theory import EnergyLaw, _lockstep

__all__ = [
    "CapacityResult",
    "mutual_information",
    "mi_derivative",
    "capacity",
    "dt_capacity",
]

# half the real dimension of the output: each log-density is
# -c (y^2 / delta2 + ln(pi delta2 / c)) and each entropy c log2(pi e delta2 / c)
_HALF_DIMENSION = {"real": 0.5, "complex": 1.0}


@dataclass(frozen=True)
class CapacityResult:
    """Optimal input probability of the low symbol and the capacity in bits."""

    p_star: float
    capacity_bits: float

    def __post_init__(self):
        if not 0.0 < self.p_star < 1.0:
            raise ValueError("p_star must lie in (0, 1)")
        if not 0.0 <= self.capacity_bits <= 1.0:
            raise ValueError("capacity_bits must lie in [0, 1]")


# rows per quadrature pass: 32 rows of 352 nodes keep a pass's arrays near
# 1 MB, however many channels a solve or an MI column holds
_PASS_ROWS = 32
# the cuts around the crossover y*, in units of the transition width w
_OFFSETS = np.array([-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0])


@functools.cache
def _legendre_rule():
    from numpy.polynomial.legendre import leggauss
    return leggauss(32)


def _half_dimension(model):
    try:
        return _HALF_DIMENSION[model]
    except KeyError:
        raise ValueError("model must be 'real' or 'complex'") from None


def _expectations(p, d1, d2, model):
    """``(A1, A2)`` with ``A_k = E_{Y~phi_k}[log2 f(Y)]``, f the mixture.

    One entry per row of the equal-length arrays ``p``, ``d1``, ``d2``,
    taken in passes of at most ``_PASS_ROWS`` rows.
    """
    out = np.empty((2, p.size))
    for lo in range(0, p.size, _PASS_ROWS):
        rows = slice(lo, lo + _PASS_ROWS)
        out[:, rows] = _expectations_pass(p[rows], d1[rows], d2[rows], model)
    return out


def _expectations_pass(p, d1, d2, model):
    """:func:`_expectations` on one pass of rows, each reduced on its own.

    Every row has the same 12 cuts, so the same 11 panels; where cuts
    coincide a panel has zero width and adds an exact 0.  The real model
    doubles the half-line integral; the complex model integrates the radial
    form with Jacobian ``2 pi y``.
    """
    c = _half_dimension(model)
    top = 12.0 * np.sqrt(d2)
    # log(p phi1 / ((1 - p) phi2)) = c (rhs - gap y^2) crosses 0 at y* and
    # moves by 1 over w there; where y* nears 0 (or the log-ratio peaks
    # below 0 at y = 0) the bend of the parabola sets w instead.  At p = 0
    # or 1 there is no crossover and the nine cuts collapse onto 0.
    inner = (p > 0.0) & (p < 1.0)
    q = np.where(inner, p, 0.5)
    gap = 1.0 / d1 - 1.0 / d2
    rhs = np.log(q / (1.0 - q)) / c + np.log(d2 / d1)
    y_star = np.where(inner, np.sqrt(np.maximum(rhs, 0.0) / gap), 0.0)
    w = np.where(inner, 1.0 / np.maximum(2.0 * c * y_star * gap,
                                         np.sqrt(c * gap)), 0.0)
    cuts = np.column_stack([np.zeros_like(p), 12.0 * np.sqrt(d1), top,
                            y_star[:, None] + _OFFSETS * w[:, None]])
    edges = np.sort(np.clip(cuts, 0.0, top[:, None]), axis=1)
    nodes, weights = _legendre_rule()
    mid = (edges[:, 1:, None] + edges[:, :-1, None]) / 2.0
    half = (edges[:, 1:, None] - edges[:, :-1, None]) / 2.0
    y = (mid + half * nodes).reshape(len(p), -1)
    log_phi1 = -c * (y * y / d1[:, None] + np.log(np.pi * d1 / c)[:, None])
    log_phi2 = -c * (y * y / d2[:, None] + np.log(np.pi * d2 / c)[:, None])
    with np.errstate(divide="ignore"):
        log_p, log_q = np.log(p), np.log1p(-p)
    log_f = np.logaddexp(log_p[:, None] + log_phi1, log_q[:, None] + log_phi2)
    jacobian = 2.0 if model == "real" else 2.0 * np.pi * y
    g = (half * weights).reshape(len(p), -1) * jacobian * log_f \
        * math.log2(math.e)
    return (np.einsum("ij,ij->i", g, np.exp(log_phi1)),
            np.einsum("ij,ij->i", g, np.exp(log_phi2)))


def _entropy(delta2_k, c):
    return c * np.log2(np.pi * np.e * delta2_k / c)


def _information(p, d1, d2, model):
    c = _half_dimension(model)
    a1, a2 = _expectations(p, d1, d2, model)
    return -(p * a1 + (1.0 - p) * a2) - p * _entropy(d1, c) \
        - (1.0 - p) * _entropy(d2, c)


def _derivative(p, d1, d2, model):
    c = _half_dimension(model)
    a1, a2 = _expectations(p, d1, d2, model)
    return -(a1 - a2) - c * np.log2(d1 / d2)


def _on_channel(rows, p, v, model):
    # a scalar p is a batch of one row and comes back as a float
    p = np.asarray(p, dtype=np.float64)
    flat = p.ravel()
    out = rows(flat, np.full(flat.size, v.s_1), np.full(flat.size, v.s_2),
               model)
    return float(out[0]) if p.ndim == 0 else out.reshape(p.shape)


def mutual_information(p, v, model="real"):
    """Mutual information in bits of the binary-input mixture channel.

    ``h(Y) - p h(Y|1) - (1-p) h(Y|2)`` with the output entropy
    ``h(Y) = -(p A1 + (1-p) A2)``.  ``p`` is a scalar (float result) or an
    array (array result of its shape).
    """
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p must lie in [0, 1]")
    return _on_channel(_information, p, v, model)


def mi_derivative(p, v, model="real"):
    """d/dp of :func:`mutual_information`, for a scalar or an array ``p``.

    The ``integral(phi1 - phi2)`` times ``log2 e`` term drops because both
    densities normalize, leaving ``-(A1 - A2) - c log2(delta2_1/delta2_2)``
    with c = 1/2 (real) or 1 (complex).
    """
    return _on_channel(_derivative, p, v, model)


def capacity(v, model="real"):
    """Maximize mutual information over the input distribution.

    ``v`` is one central :class:`~theory.EnergyLaw` (one
    :class:`CapacityResult` back) or a sequence of them (a list back).  The
    derivative decreases monotonically in p, so its unique root is found by
    Brent's method on [1e-9, 1 - 1e-9] with ``xtol = 1e-6``, scipy's
    ``brentq`` bit for bit.  The channels step in lockstep
    (:func:`theory._lockstep`): the first round evaluates the derivative at
    both ends of every channel in one batched quadrature, each later round
    at the points of every channel still unsolved, and a row of a batch
    equals the one-row call bit for bit.

    Raises
    ------
    NumericalFailureError
        If the derivative of any channel has one sign at both bracket ends,
        or is NaN at one.
    """
    one = isinstance(v, EnergyLaw)
    vs = [v] if one else list(v)
    d1 = np.array([u.s_1 for u in vs], dtype=np.float64)
    d2 = np.array([u.s_2 for u in vs], dtype=np.float64)
    lo, hi = 1e-9, 1.0 - 1e-9
    roots, f_lo, f_hi = _lockstep(
        [lo] * len(vs), [hi] * len(vs),
        lambda live, x: _derivative(x, d1[live], d2[live], model), 1e-6)
    if None in roots:
        i = roots.index(None)
        raise NumericalFailureError(
            f"mutual-information derivative does not change sign on "
            f"[{lo}, {hi}]: {f_lo[i]} and {f_hi[i]} at the ends")
    p_star = np.array(roots)
    values = _information(p_star, d1, d2, model)
    # quadrature noise can leave a tiny negative residue near degeneracy
    results = [CapacityResult(p_star=p, capacity_bits=max(0.0, value))
               for p, value in zip(p_star.tolist(), values.tolist())]
    return results[0] if one else results


def dt_capacity(P_A, P_J, sigma2_R):
    """Direct-transmission capacity treating the jamming as noise.

    ``log2(1 + P_A / (P_J + sigma2_R))`` on unit channel gains.  ``P_J = 0``
    is allowed and models the jammer silent.
    """
    if not P_A > 0:
        raise ValueError("P_A must be > 0")
    if P_J < 0:
        raise ValueError("P_J must be >= 0")
    if not sigma2_R > 0:
        raise ValueError("sigma2_R must be > 0")
    return math.log2(1.0 + P_A / (P_J + sigma2_R))
