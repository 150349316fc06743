"""Spread-spectrum reference receivers under broadband jamming."""

import math

import numpy as np
import pytest
from scipy import stats

from jamlink.baselines import BaselineConfig, dsss_ber_mc, fh_ber_mc


def _cfg(eb_n0_db=10.0, **kw):
    return BaselineConfig(eb_n0_db=eb_n0_db, **kw)


def _dsss_statistic(eb, pj):
    # the despread correlator of L chips of amplitude sqrt(Eb/L), each in
    # real noise of variance (1 + P_J)/2
    L = BaselineConfig.spread_factor
    return L * math.sqrt(eb / L), L * (1.0 + pj) / 2.0


def _fh_statistic(eb, pj):
    # one symbol per hop, every sub-channel jammed
    return math.sqrt(eb), (1.0 + pj) / 2.0


_IDS = ["dsss-L8", "fh"]


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
            dsss_ber_mc(_cfg(), 10.0, 999, rng)

    def test_spread_factor_is_a_constant(self):
        # L cancels from the despread statistic, so it is not settable
        assert BaselineConfig.spread_factor == 8
        with pytest.raises(TypeError):
            _cfg(spread_factor=8)


class TestJammingOff:
    def test_dsss_matches_bpsk_closed_form(self, rng):
        # without jamming the despread statistic is plain coherent BPSK:
        # Q(sqrt(2 Eb/N0)) = 3.87e-6 at 10 dB
        ber = dsss_ber_mc(_cfg(eb_n0_db=10.0), -np.inf, 2_000_000, rng)
        want = stats.norm.sf(np.sqrt(2.0 * 10.0))
        assert ber.bits == 2_000_000
        # rare-event count: accept a loose band around the expectation
        assert 0 <= ber.errors <= 40
        assert np.isclose(want, 3.87e-6, rtol=0.01)

    def test_fh_matches_bpsk_closed_form(self, rng):
        ber = fh_ber_mc(_cfg(eb_n0_db=3.0), -np.inf, 200_000, rng)
        want = stats.norm.sf(np.sqrt(2.0 * 10.0 ** 0.3))
        sigma = np.sqrt(want * (1 - want) / ber.bits)
        assert abs(ber.ber - want) < 4 * sigma


class TestStrongJamming:
    def test_dsss_near_half_at_40db(self, rng):
        ber = dsss_ber_mc(_cfg(), 40.0, 200_000, rng)
        assert 0.4 <= ber.ber <= 0.5

    def test_fh_near_half_at_40db(self, rng):
        ber = fh_ber_mc(_cfg(), 40.0, 200_000, rng)
        assert 0.4 <= ber.ber <= 0.5

    def test_schemes_agree_under_fullband_jam(self, rng):
        # full-band jamming defeats both the same way
        a = dsss_ber_mc(_cfg(), 25.0, 200_000, rng)
        b = fh_ber_mc(_cfg(), 25.0, 200_000, rng)
        assert 0.5 <= a.ber / b.ber <= 2.0

    def test_monotone_in_jnr(self, rng):
        bers = [dsss_ber_mc(_cfg(), j, 100_000, rng).ber
                for j in (0.0, 10.0, 20.0, 30.0)]
        assert all(a < b for a, b in zip(bers, bers[1:]))

    @pytest.mark.parametrize("jnr_db", [0.0, 10.0, 20.0],
                             ids=lambda j: f"{j:g}dB")
    @pytest.mark.parametrize("simulator", [dsss_ber_mc, fh_ber_mc], ids=_IDS)
    def test_theory_prediction_at_moderate_jnr(self, rng, simulator, jnr_db):
        # per-dimension view: effective Eb/(N0 + P_J) remains coherent BPSK
        pj = 10.0 ** (jnr_db / 10.0)
        eb = 10.0
        want = stats.norm.sf(np.sqrt(2.0 * eb / (1.0 + pj)))
        got = simulator(_cfg(eb_n0_db=10.0), jnr_db, 400_000, rng)
        sigma = np.sqrt(want * (1 - want) / got.bits)
        assert abs(got.ber - want) < 4 * sigma

    @pytest.mark.parametrize("jnr_db", [0.0, 10.0, 20.0, 30.0, 40.0],
                             ids=lambda j: f"{j:g}dB")
    @pytest.mark.parametrize("simulator, statistic",
                             [(dsss_ber_mc, _dsss_statistic),
                              (fh_ber_mc, _fh_statistic)], ids=_IDS)
    def test_counts_match_the_per_bit_statistic(self, rng, simulator,
                                                statistic, jnr_db):
        # the binomial count against the receiver's own per-bit statistic,
        # so the check does not rest on the closed form the draw uses
        trials = 200_000
        amp, noise_var = statistic(10.0, 10.0 ** (jnr_db / 10.0))
        want = _per_bit_errors(amp, noise_var, trials, rng)
        got = simulator(_cfg(eb_n0_db=10.0), jnr_db, trials, rng).errors
        table = [[got, trials - got], [want, trials - want]]
        assert stats.fisher_exact(table).pvalue > 1e-3, (got, want)


class TestDeterminism:
    def test_same_seed_same_counts(self):
        a = fh_ber_mc(_cfg(), 20.0, 50_000, np.random.default_rng(3))
        b = fh_ber_mc(_cfg(), 20.0, 50_000, np.random.default_rng(3))
        assert a.errors == b.errors
