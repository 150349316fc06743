"""Shared Monte Carlo estimate plumbing."""

import math
from dataclasses import dataclass

from scipy import special

__all__ = ["BerEstimate", "wilson_interval"]

_CONFIDENCE = 0.95
# two-sided normal quantile of the interval, as scipy's binomtest computes it
_Z = special.ndtri(0.5 + 0.5 * _CONFIDENCE)


def wilson_interval(errors, bits):
    """Wilson score 95% interval for an error fraction.

    Preferred over the normal approximation because error counts at low BER
    are routinely small or zero.  The expressions, and their operation
    order, are those of ``scipy.stats.binomtest(errors, bits)
    .proportion_ci(method="wilson")`` (Newcombe 1998), evaluated directly
    so that no p-value is computed on the way.
    """
    k, n = int(errors), int(bits)
    if n < 1:
        raise ValueError("bits must be >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"errors must lie in [0, bits], got {k} of {n}")
    p = k / n
    denom = 2 * (n + _Z**2)
    center = (2 * n * p + _Z**2) / denom
    delta = _Z / denom * math.sqrt(4 * n * p * (1 - p) + _Z**2)
    lo = 0.0 if k == 0 else center - delta
    hi = 1.0 if k == n else center + delta
    return float(lo), float(hi)


@dataclass(frozen=True)
class BerEstimate:
    """Error fraction with its Wilson 95% confidence interval."""

    errors: int
    bits: int
    ber: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, errors, bits):
        errors = int(errors)
        bits = int(bits)
        lo, hi = wilson_interval(errors, bits)
        return cls(errors=errors, bits=bits, ber=errors / bits,
                   ci_low=lo, ci_high=hi)
