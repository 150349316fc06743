"""Mutual information and capacity of the binary-input two-variance channel.

The detector-facing channel maps input symbol k to a zero-mean Gaussian
output of variance delta2_k.  The default treats the output as a real
scalar; ``model="complex"`` switches to a circularly symmetric complex
output with the same per-symbol variances, which matters when comparing
against baselines defined on the complex baseband (conditional entropies
differ by the dimension factor).

Integrals run on a fixed split composite Simpson grid: one panel resolves
the narrow delta2_1 component, a second covers the wide delta2_2 tail.  A
single uniform grid loses the narrow spike entirely once the variance ratio
is large.  The panels do not depend on p, so the last two channels' panels
are kept and every integral in a capacity solve reuses them.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError
from .theory import brentq

__all__ = [
    "CapacityResult",
    "gaussian_mixture_components",
    "mutual_information",
    "mi_derivative",
    "capacity",
    "dt_capacity",
]

# nodes per Simpson panel, and each panel's far edge in standard deviations
# of its component: the Gaussian tail mass cut off beyond it is below 1e-30
_POINTS = 4001
_HALF_WIDTH_SIGMAS = 12.0


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


def gaussian_mixture_components(y, v):
    """The two zero-mean real Gaussian conditional densities at y.

    Each is ``stats.norm.pdf(y, scale=s)`` bit for bit: the standard
    density at ``y / s`` in scipy's operation order, divided by ``s``.
    """
    y = np.asarray(y, dtype=np.float64)
    s1, s2 = math.sqrt(v.delta2_1), math.sqrt(v.delta2_2)
    phi1 = np.exp(-(y / s1) ** 2 / 2.0) / math.sqrt(2 * math.pi) / s1
    phi2 = np.exp(-(y / s2) ** 2 / 2.0) / math.sqrt(2 * math.pi) / s2
    return phi1, phi2


@functools.lru_cache(maxsize=2)
def _panels(v, model):
    """Read-only ``(y, phi1, phi2, c, w0, w1, w2)`` for each Simpson panel.

    ``c * (g[0:-2:2] w0 + g[1::2] w1 + g[2::2] w2)`` sums to
    ``integrate.simpson(g, x=y)`` bit for bit: the weights are scipy's
    unequal-spacing coefficients, built with the same operations as
    ``scipy.integrate._quadrature._basic_simpson``.
    """
    # [0, w] resolves the narrow component, [w, W] the wide tail;
    # ConditionalVariances keeps delta2_1 < delta2_2, so w < W
    w = _HALF_WIDTH_SIGMAS * math.sqrt(v.delta2_1)
    W = _HALF_WIDTH_SIGMAS * math.sqrt(v.delta2_2)
    panels = []
    for y in (np.linspace(0.0, w, _POINTS), np.linspace(w, W, _POINTS)):
        if model == "real":
            phi1, phi2 = gaussian_mixture_components(y, v)
        elif model == "complex":
            # radial form of the circularly symmetric densities at r = y
            phi1 = np.exp(-y * y / v.delta2_1) / (math.pi * v.delta2_1)
            phi2 = np.exp(-y * y / v.delta2_2) / (math.pi * v.delta2_2)
        else:
            raise ValueError("model must be 'real' or 'complex'")
        h = np.diff(y)
        h0, h1 = h[0::2], h[1::2]
        hsum = h0 + h1
        hprod = h0 * h1
        r = np.true_divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
        w0 = 2.0 - np.true_divide(1.0, r, out=np.zeros_like(r), where=r != 0)
        w1 = hsum * np.true_divide(hsum, hprod, out=np.zeros_like(hsum),
                                   where=hprod != 0)
        panel = (y, phi1, phi2, hsum / 6.0, w0, w1, 2.0 - r)
        for a in panel:
            a.setflags(write=False)
        panels.append(panel)
    return tuple(panels)


def _entropy_integral(weight, p, v, model):
    """``-integral(weight(phi1, phi2) log2 f)`` over the output space.

    The real model doubles the half-line integral; the complex model
    integrates the radial form ``2 pi y weight`` in the plane.
    """
    total = 0.0
    for y, phi1, phi2, c, w0, w1, w2 in _panels(v, model):
        f = p * phi1 + (1.0 - p) * phi2
        # f underflows to 0 only where every component does; the weight
        # vanishes there too, so masked nodes contribute exactly nothing
        log2f = np.where(f > 0, np.log2(np.where(f > 0, f, 1.0)), 0.0)
        if model == "real":
            g = weight(phi1, phi2) * log2f
        else:
            g = 2.0 * math.pi * y * weight(phi1, phi2) * log2f
        total += np.sum(c * (g[0:-2:2] * w0 + g[1::2] * w1 + g[2::2] * w2))
    return -2.0 * total if model == "real" else -total


def _cond_entropy(delta2_k, model):
    if model == "real":
        return 0.5 * math.log2(2.0 * math.pi * math.e * delta2_k)
    return math.log2(math.pi * math.e * delta2_k)


def mutual_information(p, v, model="real"):
    """Mutual information in bits of the binary-input mixture channel.

    ``-integral(f log2 f) - p h(Y|1) - (1-p) h(Y|2)`` with the output
    entropy evaluated by panelled Simpson quadrature; the real model
    integrates over the symmetric line (doubled half-line), the complex
    model integrates the radial density ``2 pi r f(r)``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    h_out = _entropy_integral(lambda a, b: p * a + (1.0 - p) * b, p, v, model)
    return h_out - p * _cond_entropy(v.delta2_1, model) \
        - (1.0 - p) * _cond_entropy(v.delta2_2, model)


def mi_derivative(p, v, model="real"):
    """d/dp of :func:`mutual_information`.

    The ``integral(phi1 - phi2)`` times ``log2 e`` term drops because both
    densities normalize, leaving
    ``-integral((phi1 - phi2) log2 f) - c log2(delta2_1/delta2_2)`` with
    c = 1/2 (real) or 1 (complex).
    """
    c = 0.5 if model == "real" else 1.0
    term = _entropy_integral(lambda a, b: a - b, p, v, model)
    return term - c * math.log2(v.delta2_1 / v.delta2_2)


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
