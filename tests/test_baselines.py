"""Spread-spectrum reference receivers under broadband jamming."""

import math

import numpy as np
import pytest
from scipy import stats

from jamlink.baselines import bpsk_errors

# the DS-SS chip count of the per-bit reference; any L gives the same law
_CHIPS = 8


def _dsss_statistic(eb, pj):
    # the despread correlator of L chips of amplitude sqrt(Eb/L), each in
    # real noise of variance (1 + P_J)/2
    return _CHIPS * math.sqrt(eb / _CHIPS), _CHIPS * (1.0 + pj) / 2.0


def _fh_statistic(eb, pj):
    # one symbol per hop, every sub-channel jammed
    return math.sqrt(eb), (1.0 + pj) / 2.0


_STATISTICS = [_dsss_statistic, _fh_statistic]
_IDS = [f"dsss-L{_CHIPS}", "fh"]


def _predicted_ber(statistic, eb_n0_db, jnr_db):
    """Q(mean / sd) of a receiver's statistic: its BER from its geometry."""
    amp, noise_var = statistic(10.0 ** (eb_n0_db / 10.0),
                               10.0 ** (jnr_db / 10.0))
    return stats.norm.sf(amp / math.sqrt(noise_var))


def _per_bit_errors(amp, noise_var, trials, rng, chunk=200_000):
    """Reference: slice ``±amp`` plus N(0, noise_var) bit by bit."""
    sd = math.sqrt(noise_var)
    errors = 0
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        bits = rng.integers(0, 2, size=m)
        stat = (1.0 - 2.0 * bits) * amp + sd * rng.standard_normal(m)
        errors += int(np.count_nonzero((stat < 0) != (bits == 1)))
    return errors


class TestValidation:
    def test_small_trial_count_rejected(self, rng):
        with pytest.raises(ValueError):
            bpsk_errors(10.0, 10.0, 999, rng)


class TestJammingOff:
    def test_dsss_matches_bpsk_closed_form(self, rng):
        # without jamming the despread statistic is plain coherent BPSK:
        # Q(sqrt(2 Eb/N0)) = 3.87e-6 at 10 dB
        want = _predicted_ber(_dsss_statistic, 10.0, -np.inf)
        assert np.isclose(want, stats.norm.sf(np.sqrt(2.0 * 10.0)))
        assert np.isclose(want, 3.87e-6, rtol=0.01)
        # rare-event count: accept a loose band around the expectation
        assert 0 <= bpsk_errors(10.0, -np.inf, 2_000_000, rng) <= 40

    def test_fh_matches_bpsk_closed_form(self, rng):
        trials = 200_000
        want = _predicted_ber(_fh_statistic, 3.0, -np.inf)
        assert np.isclose(want, stats.norm.sf(np.sqrt(2.0 * 10.0 ** 0.3)))
        ber = bpsk_errors(3.0, -np.inf, trials, rng) / trials
        sigma = np.sqrt(want * (1 - want) / trials)
        assert abs(ber - want) < 4 * sigma


def _near_half_at_40db(statistic, rng):
    # strong jamming defeats the receiver: its own statistic and the count
    # both put the BER just under one half
    assert 0.4 <= _predicted_ber(statistic, 10.0, 40.0) <= 0.5
    assert 0.4 <= bpsk_errors(10.0, 40.0, 200_000, rng) / 200_000 <= 0.5


class TestStrongJamming:
    def test_dsss_near_half_at_40db(self, rng):
        _near_half_at_40db(_dsss_statistic, rng)

    def test_fh_near_half_at_40db(self, rng):
        _near_half_at_40db(_fh_statistic, rng)

    def test_monotone_in_jnr(self, rng):
        errors = [bpsk_errors(10.0, j, 100_000, rng)
                  for j in (0.0, 10.0, 20.0, 30.0)]
        assert all(a < b for a, b in zip(errors, errors[1:]))

    @pytest.mark.parametrize("jnr_db", [0.0, 10.0, 20.0],
                             ids=lambda j: f"{j:g}dB")
    @pytest.mark.parametrize("statistic", _STATISTICS, ids=_IDS)
    def test_theory_prediction_at_moderate_jnr(self, rng, statistic, jnr_db):
        # per-dimension view: each receiver's statistic gives the effective
        # Eb/(N0 + P_J) of coherent BPSK, and the count follows it
        trials = 400_000
        pj = 10.0 ** (jnr_db / 10.0)
        want = _predicted_ber(statistic, 10.0, jnr_db)
        assert np.isclose(want,
                          stats.norm.sf(np.sqrt(2.0 * 10.0 / (1.0 + pj))))
        got = bpsk_errors(10.0, jnr_db, trials, rng) / trials
        sigma = np.sqrt(want * (1 - want) / trials)
        assert abs(got - want) < 4 * sigma

    @pytest.mark.parametrize("jnr_db", [0.0, 10.0, 20.0, 30.0, 40.0],
                             ids=lambda j: f"{j:g}dB")
    @pytest.mark.parametrize("statistic", _STATISTICS, ids=_IDS)
    def test_counts_match_the_per_bit_statistic(self, rng, statistic, jnr_db):
        # the binomial count against each receiver's own per-bit statistic,
        # so the check does not rest on the closed form the draw uses
        trials = 200_000
        amp, noise_var = statistic(10.0, 10.0 ** (jnr_db / 10.0))
        want = _per_bit_errors(amp, noise_var, trials, rng)
        got = bpsk_errors(10.0, jnr_db, trials, rng)
        table = [[got, trials - got], [want, trials - want]]
        assert stats.fisher_exact(table).pvalue > 1e-3, (got, want)


class TestDeterminism:
    def test_same_seed_same_counts(self):
        a = bpsk_errors(10.0, 20.0, 50_000, np.random.default_rng(3))
        b = bpsk_errors(10.0, 20.0, 50_000, np.random.default_rng(3))
        assert a == b
