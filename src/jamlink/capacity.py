"""Mutual information and capacity of the binary-input two-variance channel.

The detector-facing channel maps input symbol k to a zero-mean Gaussian
output of variance delta2_k.  The default treats the output as a real
scalar; ``model="complex"`` switches to a circularly symmetric complex
output with the same per-symbol variances, which matters when comparing
against baselines defined on the complex baseband (conditional entropies
differ by the dimension factor).

Both the mutual information and its derivative in p are read off one pair
of expectations, ``A_k = E_{Y~phi_k}[log2 f(Y)]`` under each component of
the output mixture f.  They are integrals over the radius y >= 0, taken
with a 32-node Gauss-Legendre rule (Golub and Welsch, Math. Comp. 1969) on
panels split at 0, 12 sigma_1 and 12 sigma_2, at the crossover y* where
``p phi1 = (1 - p) phi2``, and at ``y* +- {1, 2, 4, 8} w`` with w the width
of the transition of ``log f`` there.  The narrow component, the wide tail
and the kink of ``log f`` each get their own panels, so the rule agrees
with an 8001-node Simpson grid to 1e-9 for variance ratios up to 1e12.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError
from .theory import brentq

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


@functools.cache
def _legendre_rule():
    from numpy.polynomial.legendre import leggauss
    return leggauss(32)


def _half_dimension(model):
    try:
        return _HALF_DIMENSION[model]
    except KeyError:
        raise ValueError("model must be 'real' or 'complex'") from None


def _expectations(p, v, model):
    """``(A1, A2)`` with ``A_k = E_{Y~phi_k}[log2 f(Y)]``, f the mixture.

    The real model doubles the half-line integral; the complex model
    integrates the radial form with Jacobian ``2 pi y``.
    """
    c = _half_dimension(model)
    d1, d2 = v.delta2_1, v.delta2_2
    top = 12.0 * math.sqrt(d2)
    cuts = [0.0, 12.0 * math.sqrt(d1), top]
    if 0.0 < p < 1.0:
        # log(p phi1 / ((1 - p) phi2)) = c (rhs - gap y^2) crosses 0 at y*
        # and moves by 1 over w there; where y* nears 0 (or the log-ratio
        # peaks below 0 at y = 0) the bend of the parabola sets w instead
        gap = 1.0 / d1 - 1.0 / d2
        rhs = math.log(p / (1.0 - p)) / c + math.log(d2 / d1)
        y_star = math.sqrt(max(rhs, 0.0) / gap)
        w = 1.0 / max(2.0 * c * y_star * gap, math.sqrt(c * gap))
        cuts += [y_star + k * w for k in (-8, -4, -2, -1, 0, 1, 2, 4, 8)]
    edges = np.unique(np.clip(cuts, 0.0, top))
    nodes, weights = _legendre_rule()
    mid = (edges[1:, None] + edges[:-1, None]) / 2.0
    half = (edges[1:, None] - edges[:-1, None]) / 2.0
    y = (mid + half * nodes).ravel()
    log_phi1 = -c * (y * y / d1 + math.log(math.pi * d1 / c))
    log_phi2 = -c * (y * y / d2 + math.log(math.pi * d2 / c))
    log_f = np.logaddexp(math.log(p) + log_phi1 if p > 0.0 else -np.inf,
                         math.log1p(-p) + log_phi2 if p < 1.0 else -np.inf)
    jacobian = 2.0 if model == "real" else 2.0 * math.pi * y
    g = (half * weights).ravel() * jacobian * log_f * math.log2(math.e)
    return float(g @ np.exp(log_phi1)), float(g @ np.exp(log_phi2))


def _entropy(delta2_k, c):
    return c * math.log2(math.pi * math.e * delta2_k / c)


def mutual_information(p, v, model="real"):
    """Mutual information in bits of the binary-input mixture channel.

    ``h(Y) - p h(Y|1) - (1-p) h(Y|2)`` with the output entropy
    ``h(Y) = -(p A1 + (1-p) A2)``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    c = _half_dimension(model)
    a1, a2 = _expectations(p, v, model)
    return -(p * a1 + (1.0 - p) * a2) - p * _entropy(v.delta2_1, c) \
        - (1.0 - p) * _entropy(v.delta2_2, c)


def mi_derivative(p, v, model="real"):
    """d/dp of :func:`mutual_information`.

    The ``integral(phi1 - phi2)`` times ``log2 e`` term drops because both
    densities normalize, leaving ``-(A1 - A2) - c log2(delta2_1/delta2_2)``
    with c = 1/2 (real) or 1 (complex).
    """
    a1, a2 = _expectations(p, v, model)
    return -(a1 - a2) - _half_dimension(model) * math.log2(
        v.delta2_1 / v.delta2_2)


def capacity(v, model="real"):
    """Maximize mutual information over the input distribution.

    The derivative decreases monotonically in p, so its unique root is
    found by Brent's method (:func:`theory.brentq`, scipy's ``brentq`` bit
    for bit) on [1e-9, 1 - 1e-9] with ``xtol = 1e-6``.

    Raises
    ------
    NumericalFailureError
        If the derivative has the same sign at both bracket ends.
    """
    lo, hi = 1e-9, 1.0 - 1e-9
    try:
        p_star = brentq(lambda p: mi_derivative(p, v, model), lo, hi,
                        xtol=1e-6)
    except ValueError as exc:
        raise NumericalFailureError(
            f"mutual-information derivative does not change sign on "
            f"[{lo}, {hi}]: {exc}") from exc
    value = mutual_information(p_star, v, model)
    # quadrature noise can leave a tiny negative residue near degeneracy
    return CapacityResult(p_star=float(p_star),
                          capacity_bits=max(0.0, float(value)))


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
