"""Mutual information and capacity of the binary-input two-variance channel.

The detector-facing channel maps input symbol k to a zero-mean Gaussian
output of variance delta2_k.  The default treats the output as a real
scalar; ``model="complex"`` switches to a circularly symmetric complex
output with the same per-symbol variances, which matters when comparing
against baselines defined on the complex baseband (conditional entropies
differ by the dimension factor).

Integrals run on a split composite Simpson grid: one panel resolves the
narrow delta2_1 component, a second covers the wide delta2_2 tail.  A
single uniform grid loses the narrow spike entirely once the variance ratio
is large.  The panels do not depend on p, so the last two channels' panels
are kept and every integral in a capacity solve reuses them.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import NumericalFailureError

__all__ = [
    "QuadratureConfig",
    "CapacityResult",
    "gaussian_mixture_components",
    "mutual_information",
    "mi_derivative",
    "capacity",
    "dt_capacity",
]

@dataclass(frozen=True)
class QuadratureConfig:
    """Integration window and resolution for the entropy integrals.

    ``half_width_sigmas`` sets the window edge in multiples of each
    component's standard deviation (the truncated tail mass is below 1e-30
    at the default 12).  ``points`` is the node count per Simpson panel.
    """

    half_width_sigmas: float = 12.0
    points: int = 4001

    def __post_init__(self):
        if int(self.points) < 3 or int(self.points) % 2 == 0:
            raise ValueError("points must be odd and >= 3")
        if not self.half_width_sigmas >= 6:
            raise ValueError("half_width_sigmas must be >= 6")
        object.__setattr__(self, "points", int(self.points))


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
def _panels(v, quad, model):
    """Read-only ``(y, phi1, phi2, c, w0, w1, w2)`` for each Simpson panel.

    ``c * (g[0:-2:2] w0 + g[1::2] w1 + g[2::2] w2)`` sums to
    ``integrate.simpson(g, x=y)`` bit for bit: the weights are scipy's
    unequal-spacing coefficients, built with the same operations as
    ``scipy.integrate._quadrature._basic_simpson``.
    """
    # [0, w] resolves the narrow component, [w, W] the wide tail
    w = quad.half_width_sigmas * math.sqrt(v.delta2_1)
    W = quad.half_width_sigmas * math.sqrt(v.delta2_2)
    if w >= W:
        grids = [np.linspace(0.0, W, quad.points)]
    else:
        grids = [np.linspace(0.0, w, quad.points),
                 np.linspace(w, W, quad.points)]
    panels = []
    for y in grids:
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


def _integrate_against_log_mixture(weight_fn, p, v, quad, model):
    """Sum of Simpson panel integrals of weight(y, phi1, phi2) * log2(f)."""
    total = 0.0
    for y, phi1, phi2, c, w0, w1, w2 in _panels(v, quad, model):
        f = p * phi1 + (1.0 - p) * phi2
        # f underflows to 0 only where every component does; the weight
        # vanishes there too, so masked nodes contribute exactly nothing
        log2f = np.where(f > 0, np.log2(np.where(f > 0, f, 1.0)), 0.0)
        g = weight_fn(y, phi1, phi2) * log2f
        total += np.sum(c * (g[0:-2:2] * w0 + g[1::2] * w1 + g[2::2] * w2))
    return total


def _cond_entropy(delta2_k, model):
    if model == "real":
        return 0.5 * math.log2(2.0 * math.pi * math.e * delta2_k)
    return math.log2(math.pi * math.e * delta2_k)


def mutual_information(p, v, quad=None, model="real"):
    """Mutual information in bits of the binary-input mixture channel.

    ``-integral(f log2 f) - p h(Y|1) - (1-p) h(Y|2)`` with the output
    entropy evaluated by panelled Simpson quadrature; the real model
    integrates over the symmetric line (doubled half-line), the complex
    model integrates the radial density ``2 pi r f(r)``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    quad = quad or QuadratureConfig()
    if model == "real":
        h_out = -2.0 * _integrate_against_log_mixture(
            lambda y, a, b: p * a + (1.0 - p) * b, p, v, quad, model)
    else:
        h_out = -_integrate_against_log_mixture(
            lambda y, a, b: 2.0 * math.pi * y * (p * a + (1.0 - p) * b),
            p, v, quad, model)
    return h_out - p * _cond_entropy(v.delta2_1, model) \
        - (1.0 - p) * _cond_entropy(v.delta2_2, model)


def mi_derivative(p, v, quad=None, model="real"):
    """d/dp of :func:`mutual_information`.

    The ``integral(phi1 - phi2)`` times ``log2 e`` term drops because both
    densities normalize, leaving
    ``-integral((phi1 - phi2) log2 f) - c log2(delta2_1/delta2_2)`` with
    c = 1/2 (real) or 1 (complex).
    """
    quad = quad or QuadratureConfig()
    c = 0.5 if model == "real" else 1.0
    if model == "real":
        term = -2.0 * _integrate_against_log_mixture(
            lambda y, a, b: a - b, p, v, quad, model)
    else:
        term = -_integrate_against_log_mixture(
            lambda y, a, b: 2.0 * math.pi * y * (a - b), p, v, quad, model)
    return term - c * math.log2(v.delta2_1 / v.delta2_2)


def capacity(v, quad=None, model="real"):
    """Maximize mutual information over the input distribution.

    The derivative decreases monotonically in p, so its unique root is
    found by Brent's method (``brentq``) on [1e-9, 1 - 1e-9] with
    ``xtol = 1e-6``.

    Raises
    ------
    NumericalFailureError
        If the derivative has the same sign at both bracket ends.
    """
    quad = quad or QuadratureConfig()
    lo, hi = 1e-9, 1.0 - 1e-9
    try:
        p_star = optimize.brentq(
            lambda p: mi_derivative(p, v, quad, model), lo, hi, xtol=1e-6)
    except ValueError as exc:
        raise NumericalFailureError(
            f"mutual-information derivative does not change sign on "
            f"[{lo}, {hi}]: {exc}") from exc
    value = mutual_information(p_star, v, quad, model)
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
