"""Shared Monte Carlo estimate plumbing."""

from dataclasses import dataclass

from scipy.stats import binomtest

__all__ = ["BerEstimate", "wilson_interval"]

_CONFIDENCE = 0.95


def wilson_interval(errors, bits):
    """Wilson score 95% interval for an error fraction.

    Preferred over the normal approximation because error counts at low BER
    are routinely small or zero.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    ci = binomtest(int(errors), int(bits)).proportion_ci(
        confidence_level=_CONFIDENCE, method="wilson")
    return float(ci.low), float(ci.high)


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

    @property
    def half_width(self):
        return (self.ci_high - self.ci_low) / 2.0
