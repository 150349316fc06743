"""Wilson score intervals against scipy's binomial test."""

import numpy as np
import pytest
from scipy.stats import binomtest

from jamlink.mc import BerEstimate, wilson_interval


def test_matches_binomtest_bit_for_bit():
    # k = 0, 1, n/7, n/2, n - 1 and n for n from 1 to 1e7
    ns = sorted({int(round(x)) for x in np.logspace(0, 7, 36)} | {50_000})
    cases = [(k, n) for n in ns
             for k in sorted({0, 1, n // 7, n // 2, n - 1, n}) if k <= n]
    mismatched = []
    for k, n in cases:
        ci = binomtest(k, n).proportion_ci(confidence_level=0.95,
                                           method="wilson")
        if wilson_interval(k, n) != (float(ci.low), float(ci.high)):
            mismatched.append((k, n))
    assert len(cases) > 150 and not mismatched


def test_ends_are_closed_at_zero_and_all_errors():
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == 1.0


@pytest.mark.parametrize("k,n", [(0, 0), (1, 0), (0, -5)])
def test_rejects_empty_trials(k, n):
    with pytest.raises(ValueError, match="bits must be >= 1"):
        wilson_interval(k, n)


@pytest.mark.parametrize("k,n", [(-1, 10), (11, 10)])
def test_rejects_counts_outside_the_trials(k, n):
    with pytest.raises(ValueError, match=r"errors must lie in \[0, bits\]"):
        wilson_interval(k, n)


def test_estimate_carries_the_interval():
    est = BerEstimate.from_counts(3, 1000)
    assert (est.ci_low, est.ci_high) == wilson_interval(3, 1000)
    assert est.ber == 3e-3
