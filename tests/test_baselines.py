"""Spread-spectrum reference receivers under broadband jamming."""

import numpy as np
import pytest
from scipy import stats

from jamlink.baselines import (BaselineConfig, BaselineScheme, dsss_ber_mc,
                               fh_ber_mc)


def _cfg(scheme, eb_n0_db=10.0, **kw):
    return BaselineConfig(scheme=scheme, eb_n0_db=eb_n0_db, **kw)


class TestValidation:
    def test_small_trial_count_rejected(self, rng):
        cfg = _cfg(BaselineScheme.DSSS)
        with pytest.raises(ValueError):
            dsss_ber_mc(cfg, 10.0, 999, rng)

    def test_spread_factor_is_a_constant(self):
        # L cancels from the despread statistic, so it is not settable
        assert BaselineConfig.spread_factor == 8
        with pytest.raises(TypeError):
            _cfg(BaselineScheme.DSSS, spread_factor=8)


class TestJammingOff:
    def test_dsss_matches_bpsk_closed_form(self, rng):
        # without jamming the despread statistic is plain coherent BPSK:
        # Q(sqrt(2 Eb/N0)) = 3.87e-6 at 10 dB
        cfg = _cfg(BaselineScheme.DSSS, eb_n0_db=10.0)
        ber = dsss_ber_mc(cfg, -np.inf, 2_000_000, rng)
        want = stats.norm.sf(np.sqrt(2.0 * 10.0))
        assert ber.bits == 2_000_000
        # rare-event count: accept a loose band around the expectation
        assert 0 <= ber.errors <= 40
        assert np.isclose(want, 3.87e-6, rtol=0.01)

    def test_fh_matches_bpsk_closed_form(self, rng):
        cfg = _cfg(BaselineScheme.FH, eb_n0_db=3.0)
        ber = fh_ber_mc(cfg, -np.inf, 200_000, rng)
        want = stats.norm.sf(np.sqrt(2.0 * 10.0 ** 0.3))
        sigma = np.sqrt(want * (1 - want) / ber.bits)
        assert abs(ber.ber - want) < 4 * sigma


class TestStrongJamming:
    def test_dsss_near_half_at_40db(self, rng):
        cfg = _cfg(BaselineScheme.DSSS)
        ber = dsss_ber_mc(cfg, 40.0, 200_000, rng)
        assert 0.4 <= ber.ber <= 0.5

    def test_fh_near_half_at_40db(self, rng):
        cfg = _cfg(BaselineScheme.FH)
        ber = fh_ber_mc(cfg, 40.0, 200_000, rng)
        assert 0.4 <= ber.ber <= 0.5

    def test_schemes_agree_under_fullband_jam(self, rng):
        # full-band jamming defeats both the same way
        a = dsss_ber_mc(_cfg(BaselineScheme.DSSS), 25.0, 200_000, rng)
        b = fh_ber_mc(_cfg(BaselineScheme.FH), 25.0, 200_000, rng)
        assert 0.5 <= a.ber / b.ber <= 2.0

    def test_monotone_in_jnr(self, rng):
        cfg = _cfg(BaselineScheme.DSSS)
        bers = [dsss_ber_mc(cfg, j, 100_000, rng).ber
                for j in (0.0, 10.0, 20.0, 30.0)]
        assert all(a < b for a, b in zip(bers, bers[1:]))

    @pytest.mark.parametrize("jnr_db", [0.0, 10.0, 20.0],
                             ids=lambda j: f"{j:g}dB")
    @pytest.mark.parametrize("scheme", [BaselineScheme.DSSS,
                                        BaselineScheme.FH],
                             ids=["dsss-L8", "fh"])
    def test_theory_prediction_at_moderate_jnr(self, rng, scheme, jnr_db):
        # per-dimension view: effective Eb/(N0 + P_J) remains coherent BPSK
        cfg = _cfg(scheme, eb_n0_db=10.0)
        fn = dsss_ber_mc if scheme is BaselineScheme.DSSS else fh_ber_mc
        pj = 10.0 ** (jnr_db / 10.0)
        eb = 10.0
        want = stats.norm.sf(np.sqrt(2.0 * eb / (1.0 + pj)))
        got = fn(cfg, jnr_db, 400_000, rng)
        sigma = np.sqrt(want * (1 - want) / got.bits)
        assert abs(got.ber - want) < 4 * sigma


class TestDeterminism:
    def test_same_seed_same_counts(self):
        cfg = _cfg(BaselineScheme.FH)
        a = fh_ber_mc(cfg, 20.0, 50_000, np.random.default_rng(3))
        b = fh_ber_mc(cfg, 20.0, 50_000, np.random.default_rng(3))
        assert a.errors == b.errors
