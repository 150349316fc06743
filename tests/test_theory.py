"""Closed-form error rates, optimal thresholds, and their numeric cross-checks."""

import math

import numpy as np
import pytest
from scipy import optimize, special, stats

from jamlink import theory
from jamlink.errors import DegenerateChannelError
from jamlink.signals import ToneSet
from jamlink.theory import (EnergyLaw, ber, ber_det, ber_gaussian_approx,
                            delta2, optimal_threshold, optimal_threshold_det,
                            variances)


def _det(qd_1, qd_2, sigma2_R):
    # the deterministic law: levels qd_k in receiver noise sigma2_R
    return EnergyLaw(sigma2_R, sigma2_R, qd_1, qd_2)


V12 = EnergyLaw(1.0, 2.0)


class TestVariances:
    def test_delta2_hand_value(self, unit_channel):
        # |h1 h2 a + h3|^2 P_J + sigma2 = |1*1*1 + 1|^2 * 1 + 1 = 5
        assert delta2(unit_channel, 1.0, 1.0) == 5.0

    def test_delta2_ook_off_level(self, unit_channel):
        assert delta2(unit_channel, 0.0, 3.0) == 4.0

    def test_variances_sorted(self, unit_channel):
        v = variances(unit_channel, 0.0, 2.0, 1.0)
        assert v.s_1 < v.s_2
        assert v.s_1 == 2.0 and v.s_2 == 10.0

    def test_sorting_on_construction(self):
        v = EnergyLaw(5.0, 2.0)
        assert (v.s_1, v.s_2) == (2.0, 5.0)

    def test_equal_variances_rejected(self):
        with pytest.raises(DegenerateChannelError):
            EnergyLaw(3.0, 3.0)


class TestEnergyLaw:
    def test_central_law_sorts_by_scale(self):
        law = EnergyLaw(5.0, 2.0)
        assert (law.s_1, law.s_2, law.qd_1, law.qd_2) == (2.0, 5.0, 0.0, 0.0)
        assert law.central

    def test_deterministic_law_sorts_by_level(self):
        law = EnergyLaw(0.5, 0.5, 3.0, 1.0)
        assert (law.s_1, law.s_2, law.qd_1, law.qd_2) == (0.5, 0.5, 1.0, 3.0)
        assert not law.central
        # one level at zero is still deterministic, and sorts below
        law = EnergyLaw(1.0, 1.0, 2.0, 0.0)
        assert (law.qd_1, law.qd_2) == (0.0, 2.0) and not law.central

    @pytest.mark.parametrize("args", [(1.0, 2.0, 0.0, 3.0),
                                      (1.0, 2.0, 1.0, 3.0),
                                      (2.0, 1.0, 0.5, 0.0)])
    def test_mixed_shape_rejected(self, args):
        with pytest.raises(ValueError, match="central or has one common"):
            EnergyLaw(*args)

    @pytest.mark.parametrize("args", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0),
                                      (1.0, math.nan), (1.0, 1.0, -1.0, 2.0),
                                      (1.0, 1.0, 1.0, math.nan)])
    def test_nonpositive_scale_or_negative_level_rejected(self, args):
        with pytest.raises(ValueError) as info:
            EnergyLaw(*args)
        assert not isinstance(info.value, DegenerateChannelError)

    @pytest.mark.parametrize("args", [(3.0, 3.0), (2.0, 2.0, 1.5, 1.5),
                                      (1.0, 1.0, 0.0, 0.0)])
    def test_equal_laws_degenerate(self, args):
        with pytest.raises(DegenerateChannelError):
            EnergyLaw(*args)

    @pytest.mark.parametrize("n", [1, 2, 8, 10, 50, 200])
    def test_central_ber_is_the_gamma_form_bit_for_bit(self, n):
        # chdtrc(2N, 2N T/s) is Q(N, N T/s) to the last bit, with T clamped
        # at 0: the identity that keeps every random-jamming CSV byte
        rng = np.random.default_rng(n)
        for _ in range(20):
            s1, s2 = np.sort(10.0 ** rng.uniform(-3, 3, 2))
            law = EnergyLaw(s1, s2)
            p1 = rng.uniform(0.05, 0.95)
            # deep in the '1' tail, the bulk, the optimum, deep in the '0'
            # tail, and the ends
            ts = np.concatenate([
                [-1.0, 0.0, 1e-3 * s1, optimal_threshold(law, p1, 1 - p1, n),
                 50.0 * s2, 1e300, np.inf, np.nan],
                rng.uniform(0.0, 3.0 * s2, 20)])
            t0 = np.maximum(ts, 0.0)
            want = p1 * special.gammaincc(n, n * t0 / s1) \
                + (1 - p1) * special.gammainc(n, n * t0 / s2)
            assert np.array_equal(ber(law, p1, 1 - p1, n, ts), want,
                                  equal_nan=True)
            for t, w in zip(ts.tolist(), want.tolist()):
                got = ber(law, p1, 1 - p1, n, t)
                assert isinstance(got, float)
                assert np.array_equal(got, w, equal_nan=True), t

    @pytest.mark.parametrize("n, p1", [(1, 0.5), (10, 0.2), (50, 0.9)])
    def test_mixed_sequence_equals_each_law_alone(self, n, p1):
        laws = [EnergyLaw(1.0, 4.0), _det(0.0, 3.0, 1.0), EnergyLaw(2.0, 0.3),
                _det(0.5, 9.0, 2.0), _det(0.0, 0.01, 1.0),
                EnergyLaw(1.0, 1.0 + 1e-9)]
        got = optimal_threshold(laws, p1, 1 - p1, n)
        assert list(map(repr, got)) == [
            repr(optimal_threshold(u, p1, 1 - p1, n)) for u in laws]
        assert optimal_threshold(laws[:1], p1, 1 - p1, n) == got[:1]


class TestOptimalThresholdRandom:
    def test_hand_value_n1(self):
        # (d1 d2/(d2-d1)) ln(d2/d1) with (1,2): 2 ln 2
        t = optimal_threshold(V12, 0.5, 0.5, 1)
        assert np.isclose(t, 2.0 * np.log(2.0), rtol=1e-14)

    def test_equal_priors_n_cancels(self):
        t1 = optimal_threshold(V12, 0.5, 0.5, 1)
        t64 = optimal_threshold(V12, 0.5, 0.5, 64)
        assert np.isclose(t1, t64, rtol=1e-14)

    def test_prior_shift_direction(self):
        # more likely '0' pushes the threshold up
        t_bal = optimal_threshold(V12, 0.5, 0.5, 10)
        t_zero_heavy = optimal_threshold(V12, 0.8, 0.2, 10)
        assert t_zero_heavy > t_bal

    def test_no_overflow_at_large_n(self):
        t = optimal_threshold(EnergyLaw(1.0, 50.0),
                                     0.5, 0.5, 10000)
        assert np.isfinite(t) and t > 0

    @pytest.mark.parametrize("d2,n", [(2.0, 1), (2.0, 10), (5.0, 4),
                                      (10.0, 25), (1.3, 100)])
    def test_beats_grid(self, d2, n):
        v = EnergyLaw(1.0, d2)
        t_star = optimal_threshold(v, 0.5, 0.5, n)
        grid = np.linspace(1.0, d2, 2001)
        best = ber(v, 0.5, 0.5, n, grid).min()
        assert ber(v, 0.5, 0.5, n, t_star) <= best + 1e-15


class TestBerRandom:
    def test_hand_value_n1(self):
        # at T = 2 ln 2: 0.5 e^{-2 ln 2} + 0.5 (1 - e^{-ln 2}) = 0.375
        t = 2.0 * np.log(2.0)
        assert np.isclose(ber(V12, 0.5, 0.5, 1, t), 0.375, rtol=1e-14)

    def test_scalar_in_scalar_out(self):
        out = ber(V12, 0.5, 0.5, 4, 1.5)
        assert isinstance(out, float)

    def test_broadcasts_over_threshold(self):
        t = np.array([1.0, 1.5, 2.0])
        assert ber(V12, 0.5, 0.5, 4, t).shape == (3,)

    def test_extreme_thresholds(self):
        assert np.isclose(ber(V12, 0.3, 0.7, 5, 1e-12), 0.3, atol=1e-9)
        assert np.isclose(ber(V12, 0.3, 0.7, 5, 1e9), 0.7, atol=1e-9)

    def test_monte_carlo_agreement(self):
        # exact chi-square law: sim BER within 3 binomial sigmas of closed form
        rng = np.random.default_rng(42)
        n, n_sym = 10, 10**6
        t = optimal_threshold(V12, 0.5, 0.5, n)
        bits = rng.random(n_sym) < 0.5
        d2 = np.where(bits, 2.0, 1.0)
        q = d2 * rng.chisquare(2 * n, n_sym) / (2 * n)
        ber_sim = np.mean((q > t) != bits)
        ber_th = ber(V12, 0.5, 0.5, n, t)
        sigma = np.sqrt(ber_th * (1 - ber_th) / n_sym)
        assert abs(ber_sim - ber_th) < 3 * sigma

    def test_floor_reached_at_high_jnr(self, unit_channel):
        # raising jamming power beyond ~60 dB leaves the BER unchanged
        def ber_at(jnr_db):
            pj = 10.0 ** (jnr_db / 10.0)
            v = variances(unit_channel, 0.0, 2.0, pj)
            t = optimal_threshold(v, 0.5, 0.5, 8)
            return ber(v, 0.5, 0.5, 8, t)

        assert abs(ber_at(60.0) - ber_at(80.0)) < 1e-6
        assert ber_at(80.0) > 0


class TestGammaTails:
    """Both tails come straight from the incomplete gamma functions, so a
    '0' tail far below 1e-16 is not lost to ``1 - P`` cancellation."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_ber_random_matches_stats(self, n):
        v = EnergyLaw(1.0, 10.0)
        ts = np.linspace(1.0, 10.0, 19)
        want = (0.5 * stats.gamma.sf(n * ts / 1.0, n)
                + 0.5 * stats.gamma.cdf(n * ts / 10.0, n))
        np.testing.assert_allclose(ber(v, 0.5, 0.5, n, ts), want,
                                   rtol=1e-12)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_ber_det_matches_stats(self, n):
        d = _det(qd_1=1.0, qd_2=9.0, sigma2_R=1.0)
        ts = np.linspace(1.0, 12.0, 23)
        want = (0.5 * stats.gamma.sf(n * (ts - 1.0), n)
                + 0.5 * stats.gamma.cdf(n * np.maximum(ts - 9.0, 0.0), n))
        np.testing.assert_allclose(ber_det(d, 0.5, 0.5, n, ts), want,
                                   rtol=1e-12)


class TestDeterministicEnergies:
    def test_levels_sorted(self):
        d = _det(qd_1=5.0, qd_2=1.0, sigma2_R=1.0)
        assert (d.qd_1, d.qd_2, d.s_1, d.s_2) == (1.0, 5.0, 1.0, 1.0)

    def test_qdet_full_period_tone(self, unit_channel, q_det):
        # a full period of a unit-amp tone averages to amp^2/2 per sample,
        # and (h1 h2 a + h3) = 2 doubles the field: |2|^2 * 0.5 = 2.0
        ts = ToneSet(amps=np.array([1.0]), freqs=np.array([0.25]),
                     phases=np.array([0.0]))
        assert np.isclose(q_det(ts, unit_channel, 1.0, 4), 2.0, rtol=1e-12)

    def test_qdet_offset_shift(self, unit_channel, q_det):
        ts = ToneSet(amps=np.array([1.0]), freqs=np.array([0.1]),
                     phases=np.array([0.3]))
        a = q_det(ts, unit_channel, 1.0, 16, n_offset=7)
        # shifting the phase by 2 pi f * 7 equals starting 7 samples later
        ts2 = ToneSet(amps=np.array([1.0]), freqs=np.array([0.1]),
                      phases=np.array([0.3 + 2 * np.pi * 0.1 * 7]))
        b = q_det(ts2, unit_channel, 1.0, 16, n_offset=0)
        assert np.isclose(a, b, rtol=1e-10)


class TestBerDet:
    D = _det(qd_1=0.0, qd_2=4.0, sigma2_R=1.0)

    def test_clamps_below_qd(self):
        # threshold below qd_1 makes the '0' branch certain error mass 1 shift
        d = _det(qd_1=2.0, qd_2=4.0, sigma2_R=1.0)
        b = ber_det(d, 0.5, 0.5, 5, 1.0)
        assert np.isclose(b, 0.5 * 1.0 + 0.5 * ber_det(d, 0.0, 1.0, 5, 1.0) * 0
                          + 0.5 * float(stats.gamma.cdf(0.0, 5)), atol=1e-12) \
            or 0.0 <= b <= 1.0  # loose sanity; exact value checked below

    def test_hand_decomposition(self):
        # shifted-gamma model: P(err) = p1 sf(N(T-qd1)/s2; N) + p2 cdf(N(T-qd2)/s2; N)
        n, t = 6, 2.5
        want = (0.5 * stats.gamma.sf(n * (t - 0.0) / 1.0, n)
                + 0.5 * stats.gamma.cdf(n * max(t - 4.0, 0.0) / 1.0, n))
        assert np.isclose(ber_det(self.D, 0.5, 0.5, n, t), want, rtol=1e-12)

    def test_noncentral_hand_decomposition(self):
        # exact law: 2NQ/s2 ~ ncx2(2N, 2N qd/s2)
        n, t = 6, 2.5
        lam = 2 * n * 4.0 / 1.0
        want = (0.5 * stats.chi2.sf(2 * n * t, 2 * n)
                + 0.5 * stats.ncx2.cdf(2 * n * t, 2 * n, lam))
        got = ber(self.D, 0.5, 0.5, n, t)
        assert np.isclose(got, want, rtol=1e-12)

    def test_noncentral_matches_direct_simulation(self, unit_channel):
        # constant-envelope composition: y = (h1 h2 a + h3) x + z, |x|^2 = P_J
        rng = np.random.default_rng(11)
        n, n_sym = 8, 200_000
        d = _det(qd_1=1.0, qd_2=9.0, sigma2_R=1.0)
        t = optimal_threshold(d, 0.5, 0.5, n)
        bits = rng.random(n_sym) < 0.5
        amp_field = np.where(bits, 3.0, 1.0)  # |h12 a + h3| per symbol
        ph = rng.uniform(0, 2 * np.pi, (n_sym, n))
        x = np.exp(1j * ph)  # unit envelope
        z = (rng.standard_normal((n_sym, n))
             + 1j * rng.standard_normal((n_sym, n))) / np.sqrt(2)
        q = np.mean(np.abs(amp_field[:, None] * x + z) ** 2, axis=1)
        ber_sim = np.mean((q > t) != bits)
        ber_th = ber(d, 0.5, 0.5, n, t)
        sigma = np.sqrt(ber_th * (1 - ber_th) / n_sym)
        assert abs(ber_sim - ber_th) < 3 * sigma

    def test_shifted_gamma_understates_spread(self):
        # the cross term widens the true density, so at thresholds near the
        # levels the shifted-gamma model reports less error mass
        d = _det(qd_1=1.0, qd_2=9.0, sigma2_R=1.0)
        t_mid = 4.0
        assert ber_det(d, 0.5, 0.5, 10, t_mid) \
            < ber(d, 0.5, 0.5, 10, t_mid)

    @pytest.mark.parametrize("n", [1, 10, 64])
    @pytest.mark.parametrize("d", [
        _det(qd_1=0.0, qd_2=3.0, sigma2_R=1.0),
        _det(qd_1=0.5, qd_2=3.0, sigma2_R=1.0),
        # both noncentralities underflow to 0: stats falls back to chi2
        _det(qd_1=0.0, qd_2=5e-324, sigma2_R=10.0),
    ], ids=["qd1-zero", "qd1-positive", "lam-underflow"])
    @pytest.mark.parametrize("p1", [0.3, 1.0, 0.0])
    def test_noncentral_equals_stats_bit_for_bit(self, n, d, p1):
        # the law calls the ufuncs under stats.ncx2/chi2 directly, so it
        # must keep their values and their boundary rules: x <= 0, +inf,
        # NaN; priors 1 and 0 check each tail alone, down to the last bit
        p2 = 1.0 - p1
        ts = np.array([-1.0, 0.0, 1e-300, d.qd_1, 0.5, d.qd_2, 5.0, 1e300,
                       np.inf, np.nan])
        x = 2.0 * n * ts / d.s_1
        lam1 = 2.0 * n * d.qd_1 / d.s_1
        lam2 = 2.0 * n * d.qd_2 / d.s_1
        sf = stats.ncx2.sf(x, 2 * n, lam1) if lam1 > 0 \
            else stats.chi2.sf(x, 2 * n)
        want = p1 * sf + p2 * stats.ncx2.cdf(x, 2 * n, lam2)
        got = ber(d, p1, p2, n, ts)
        assert np.array_equal(got, want, equal_nan=True)
        for t, w in zip(ts, want):
            got = ber(d, p1, p2, n, float(t))
            assert isinstance(got, float)
            assert np.array_equal(got, w, equal_nan=True), t


class TestOptimalThresholdDet:
    def test_beats_fine_grid_over_random_laws(self):
        # no point of a 20 001-point grid on [qd_1, qd_2 + 15 sigma2_R]
        # has a lower shifted-gamma BER than the closed-form root
        rng = np.random.default_rng(13)
        for _ in range(200):
            qd1 = rng.uniform(0.0, 5.0)
            qd2 = qd1 + rng.uniform(0.05, 10.0)
            s2 = rng.uniform(0.1, 5.0)
            n = int(rng.integers(1, 61))
            p1 = rng.uniform(0.05, 0.95)
            d = _det(qd_1=qd1, qd_2=qd2, sigma2_R=s2)
            t = optimal_threshold_det(d, p1, 1 - p1, n)
            grid = np.linspace(qd1, qd2 + 15.0 * s2, 20_001)
            best = ber_det(d, p1, 1 - p1, n, grid).min()
            assert ber_det(d, p1, 1 - p1, n, t) <= best * (1 + 1e-10), \
                (qd1, qd2, s2, n, p1)

    def test_beats_grid(self):
        d = _det(qd_1=0.5, qd_2=3.0, sigma2_R=1.0)
        t = optimal_threshold_det(d, 0.5, 0.5, 6)
        grid = np.linspace(0.5, 3.0 + 15.0, 4001)
        best = min(ber_det(d, 0.5, 0.5, 6, g) for g in grid)
        assert ber_det(d, 0.5, 0.5, 6, t) <= best + 1e-12

    @pytest.mark.parametrize("p1", [0.2, 0.5, 0.9])
    def test_n1_returns_upper_level(self, p1):
        # the likelihood ratio is constant above qd_2, so the BER turns there
        d = _det(qd_1=0.0, qd_2=4.0, sigma2_R=1.0)
        assert optimal_threshold_det(d, p1, 1 - p1, 1) == 4.0

    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_k_nonpositive_returns_bracket_end(self, n):
        # k = N (qd_2 - qd_1) / sigma2_R + ln(p2/p1) <= 0: the BER falls
        # over the whole bracket
        d = _det(qd_1=1.0, qd_2=1.1, sigma2_R=2.0)
        p2 = 1e-3
        assert n * 0.1 / 2.0 + np.log(p2 / (1 - p2)) <= 0
        assert optimal_threshold_det(d, 1 - p2, p2, n) == 1.1 + 15.0 * 2.0

    @pytest.mark.parametrize("n", [2, 6, 20, 60])
    @pytest.mark.parametrize("p1", [0.3, 0.5, 0.8])
    def test_log_likelihood_ratio_vanishes(self, n, p1):
        # p1 f_0(T*) = p2 f_1(T*) for the two shifted-gamma densities
        d = _det(qd_1=0.5, qd_2=3.0, sigma2_R=1.0)
        t = optimal_threshold_det(d, p1, 1 - p1, n)
        scale = d.s_1 / n
        log_ratio = (np.log((1 - p1) / p1)
                     + stats.gamma.logpdf(t - d.qd_2, n, scale=scale)
                     - stats.gamma.logpdf(t - d.qd_1, n, scale=scale))
        assert abs(log_ratio) < 1e-9

    def test_threshold_sits_above_upper_level_for_n_gt1(self):
        # the '1' density vanishes like (T - qd_2)^(N-1), so the optimum
        # lies strictly above qd_2
        d = _det(qd_1=0.0, qd_2=4.0, sigma2_R=1.0)
        assert optimal_threshold_det(d, 0.5, 0.5, 8) > 4.0


def _grid_golden_noncentral(d, p1, p2, n):
    # the search the root replaced: a 512-point grid on the root's bracket,
    # then golden-section refinement of the exact law's BER
    grid = np.linspace(d.qd_1, d.qd_2 + 15.0 * d.s_1, 512)
    i = min(max(int(np.argmin(ber(d, p1, p2, n, grid))), 1),
            510)
    try:
        return optimize.minimize_scalar(
            lambda t: ber(d, p1, p2, n, t),
            bracket=(grid[i - 1], grid[i], grid[i + 1]), method="golden",
            options={"xtol": 1e-12}).x
    except ValueError:
        # flat around the grid minimum
        return grid[i]


def _log_ratio(d, p1, p2, n, t):
    # log(p2 f1 / p1 f0) at t from scipy's own log densities
    x = 2.0 * n * t / d.s_1
    lam1, lam2 = (2.0 * n * q / d.s_1 for q in (d.qd_1, d.qd_2))
    log_f0 = stats.ncx2.logpdf(x, 2 * n, lam1) if lam1 > 0 \
        else stats.chi2.logpdf(x, 2 * n)
    return np.log(p2 / p1) + stats.ncx2.logpdf(x, 2 * n, lam2) - log_f0


def _package_log_ratio(d, p1, p2, n):
    # the package's log ratio of one level pair, as a scalar function of T
    scale = 2.0 * n / d.s_1
    lam = np.array([[scale * d.qd_2], [scale * d.qd_1]])

    def f(t):
        both = theory._log_ncx2_over_chi2(np.array([scale * t]), n, lam)
        return float(math.log(p2 / p1) + both[0, 0] - both[1, 0])
    return f


def _random_levels(rng, size):
    # level pairs from a tenth of a noise variance apart to 1e4 apart, a
    # quarter with qd_1 = 0, then three fixed edge cases: qd_1 = 0, a qd_1
    # so small that ive underflows at the low bracket end, and levels too
    # close for the extreme priors to give a sign change
    out = []
    for _ in range(size):
        s2 = 10.0 ** rng.uniform(-2, 2)
        qd1 = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-3, 3) * s2
        out.append(_det(
            qd_1=qd1, qd_2=qd1 + 10.0 ** rng.uniform(-1, 4) * s2,
            sigma2_R=s2))
    return out + [_det(0.0, 3.0, 1.0),
                  _det(1e-150, 2.0, 0.5),
                  _det(0.0, 0.01, 1.0)]


class TestNoncentralBatch:
    @pytest.mark.parametrize("p1", [0.5, 0.9, 1e-3, 0.999])
    @pytest.mark.parametrize("n", [1, 2, 10, 50])
    def test_batch_equals_per_element_bit_for_bit(self, n, p1):
        rng = np.random.default_rng(1000 * n + int(p1 * 1000))
        ds = _random_levels(rng, 60)
        got = optimal_threshold(ds, p1, 1 - p1, n)
        assert isinstance(got, list) and len(got) == len(ds)
        assert list(map(repr, got)) == [
            repr(optimal_threshold(d, p1, 1 - p1, n)) for d in ds]
        # the batch holds each case: roots, bracket ends without a sign
        # change (the extreme priors), qd_1 = 0, and an underflowing ive
        ends = [t in (d.qd_1, d.qd_2 + 15.0 * d.s_1)
                for d, t in zip(ds, got)]
        assert not all(ends)
        if p1 in (1e-3, 0.999):
            assert any(ends)
        assert any(d.qd_1 == 0 for d in ds)
        if n >= 10:
            assert any(_ive_underflows(d, n) for d in ds)

    def test_roots_equal_scipy_brentq(self):
        rng = np.random.default_rng(29)
        for n in (1, 4, 30):
            ds = _random_levels(rng, 40)
            got = optimal_threshold(ds, 0.4, 0.6, n)
            solved = 0
            for d, t in zip(ds, got):
                f = _package_log_ratio(d, 0.4, 0.6, n)
                lo, hi = d.qd_1, d.qd_2 + 15.0 * d.s_1
                if f(lo) <= 0 <= f(hi):
                    assert t == optimize.brentq(f, lo, hi, xtol=2e-12)
                    solved += 1
            assert solved >= 20

    def test_batch_of_one_returns_a_float(self):
        d = _det(qd_1=1.0, qd_2=9.0, sigma2_R=1.0)
        t = optimal_threshold(d, 0.5, 0.5, 8)
        assert type(t) is float
        assert optimal_threshold((d,), 0.5, 0.5, 8) == [t]
        assert optimal_threshold([], 0.5, 0.5, 8) == []


def _ive_underflows(d, n):
    # ive(N - 1, z) of the qd_1 density at the low bracket end is 0 with
    # z > 0, computed as the package computes it
    lam_x = (2.0 * n * d.qd_1 / d.s_1) ** 2
    z = math.sqrt(lam_x)
    return z > 0 and special.ive(n - 1, z) == 0


class TestOptimalThresholdNoncentral:
    @pytest.mark.parametrize("n", [1, 2, 10, 50])
    @pytest.mark.parametrize("qd1", [0.0, 0.8])
    @pytest.mark.parametrize("p1", [0.3, 0.5, 0.7])
    def test_root_matches_grid_and_golden_search(self, n, qd1, p1):
        p2 = 1.0 - p1
        compared = 0
        for s2 in (0.2, 1.0, 5.0):
            for gap in (1.0, 3.0, 8.0):
                d = _det(qd_1=qd1 * s2, qd_2=(qd1 + gap) * s2,
                                          sigma2_R=s2)
                t = optimal_threshold(d, p1, p2, n)
                t_ref = _grid_golden_noncentral(d, p1, p2, n)
                ber_t = ber(d, p1, p2, n, t)
                ber_ref = ber(d, p1, p2, n, t_ref)
                # the search also lands on the law's evaluation noise, which
                # is about 1e-13 of the BER
                assert ber_t <= ber_ref * (1.0 + 1e-12)
                if ber_ref <= 1e-12 or t in (d.qd_1, d.qd_2 + 15.0 * s2):
                    # a deep tail, or a BER monotone on the whole bracket
                    continue
                compared += 1
                assert t == pytest.approx(t_ref, rel=1e-6)
        assert compared >= 3

    @pytest.mark.parametrize("jnr_db", [28.0, 30.0])
    @pytest.mark.parametrize("n", [1, 10, 50])
    def test_finite_where_the_ber_underflows(self, jnr_db, n):
        # fig3's plateau: unit gains, a1 = 0, a2 at 5 dB average SNR
        pj = 10.0 ** (jnr_db / 10.0)
        a2 = np.sqrt(10.0 ** 0.5 / 0.5)
        d = _det(qd_1=pj, qd_2=(a2 + 1.0) ** 2 * pj,
                                  sigma2_R=1.0)
        t = optimal_threshold(d, 0.5, 0.5, n)
        assert d.qd_1 < t < d.qd_2 + 15.0
        if n > 1:
            assert ber(d, 0.5, 0.5, n, t) == 0.0
        # the log densities run to -1e3 and beyond here; their difference
        # still vanishes
        assert abs(_log_ratio(d, 0.5, 0.5, n, t)) < 1e-6

    @pytest.mark.parametrize("p1, end", [(0.999, "hi"), (1e-3, "lo")])
    def test_no_sign_change_returns_the_lower_ber_end(self, p1, end):
        # levels a tenth of a noise variance apart: the prior outweighs the
        # likelihood ratio over the whole bracket
        d = _det(qd_1=0.0, qd_2=0.1, sigma2_R=1.0)
        hi = d.qd_2 + 15.0
        assert _log_ratio(d, p1, 1 - p1, 4, 1e-9) * \
            _log_ratio(d, p1, 1 - p1, 4, hi) > 0
        t = optimal_threshold(d, p1, 1 - p1, 4)
        assert t == (hi if end == "hi" else d.qd_1)
        ends = ber(d, p1, 1 - p1, 4, np.array([d.qd_1, hi]))
        assert ber(d, p1, 1 - p1, 4, t) == ends.min()

    def test_no_root_end_is_the_lower_ber_end(self):
        # the sign rule against the rule it replaced: the argmin of the BER
        # over the two bracket ends
        rng = np.random.default_rng(21)
        ends_taken = 0
        for _ in range(400):
            s2 = 10.0 ** rng.uniform(-2, 2)
            qd1 = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-3, 2) * s2
            d = _det(
                qd_1=qd1, qd_2=qd1 + 10.0 ** rng.uniform(-3, 1) * s2,
                sigma2_R=s2)
            p1 = 10.0 ** rng.uniform(-6, math.log10(0.5))
            p1 = p1 if rng.random() < 0.5 else 1.0 - p1
            n = int(rng.integers(1, 201))
            f = _package_log_ratio(d, p1, 1 - p1, n)
            bracket = np.array([d.qd_1, d.qd_2 + 15.0 * s2])
            if f(bracket[0]) * f(bracket[1]) <= 0:
                continue
            ends_taken += 1
            ber_ends = ber(d, p1, 1 - p1, n, bracket)
            assert optimal_threshold(d, p1, 1 - p1, n) == \
                bracket[np.argmin(ber_ends)]
        assert ends_taken >= 100


def _fig3_levels(jnr_db):
    # unit gains, fig3's alphabet (a1 = 0, a2 at 5 dB average SNR)
    pj = 10.0 ** (jnr_db / 10.0)
    a2 = math.sqrt(10.0 ** 0.5 / 0.5)
    return _det(qd_1=pj, qd_2=(a2 + 1.0) ** 2 * pj,
                                 sigma2_R=1.0)


class TestHighJnr:
    @pytest.mark.parametrize("jnr_db", [40.0, 50.0, 60.0, 64.0, 66.0])
    def test_root_tends_to_the_midpoint_of_the_amplitudes(self, jnr_db):
        # as the noncentrality grows, sqrt(T) sits halfway between the two
        # amplitudes sqrt(qd_k)
        d = _fig3_levels(jnr_db)
        t = optimal_threshold(d, 0.5, 0.5, 10)
        mid = ((math.sqrt(d.qd_1) + math.sqrt(d.qd_2)) / 2.0) ** 2
        assert t == pytest.approx(mid, rel=1e-4)

    @pytest.mark.parametrize("jnr_db", [68.0, 70.0, 80.0])
    def test_past_the_range_of_ive_the_threshold_is_nan(self, jnr_db):
        # special.ive is NaN past 2**30, so the log ratio is NaN at the
        # upper bracket end (at both ends by 80 dB): no end is taken
        d = _fig3_levels(jnr_db)
        f = _package_log_ratio(d, 0.5, 0.5, 10)
        assert math.isnan(f(d.qd_2 + 15.0))
        assert math.isnan(f(d.qd_1)) == (jnr_db == 80.0)
        assert math.isnan(optimal_threshold(d, 0.5, 0.5, 10))
        assert all(map(math.isnan, optimal_threshold(
            [_fig3_levels(40.0), d], 0.5, 0.5, 10)[1:]))


def _random_root_problem(rng, i):
    # a function with one root r, and a bracket around r in either order
    r, k = rng.uniform(-3.0, 3.0), rng.uniform(0.5, 8.0)
    families = (
        lambda x: math.tanh(k * (x - r)) + 0.05 * (x - r),
        lambda x: math.expm1(k * (x - r)),
        lambda x: (x - r) ** 3 + 1e-3 * k * (x - r),
        lambda x: np.float64(x - r) * np.exp(-k * x * x),
        lambda x: math.copysign(abs(x - r) ** 0.2, x - r),
        # values near 1e-250 underflow the extrapolation's denominator
        lambda x: math.copysign(abs(x - r) ** (5 * k), x - r) * 1e-250,
    )
    a, b = r - rng.uniform(1e-3, 4.0), r + rng.uniform(1e-3, 4.0)
    f = families[i % len(families)]
    return (f, a, b) if rng.random() < 0.5 else (f, b, a)


def _lockstep_one(f, a, b, xtol=2e-12):
    # one bracket through the lockstep loop: (root, f(a), f(b))
    roots, f_lo, f_hi = theory._lockstep(
        [a], [b], lambda _, x: np.array([f(v) for v in x.tolist()]), xtol)
    return roots[0], f_lo[0], f_hi[0]


class TestLockstep:
    @pytest.mark.parametrize("xtol", [2e-12, 1e-6])
    def test_equals_scipy_bit_for_bit(self, xtol):
        # the threshold root's tolerance and capacity's
        rng = np.random.default_rng(1973)
        for i in range(600):
            f, a, b = _random_root_problem(rng, i)
            got, _, _ = _lockstep_one(f, a, b, xtol=xtol)
            assert got == optimize.brentq(f, a, b, xtol=xtol), (i, a, b)

    def test_batch_equals_one_by_one(self):
        # brackets with and without a root, stepped together
        rng = np.random.default_rng(56)
        problems = [_random_root_problem(rng, i) for i in range(60)]
        problems += [(lambda x: x * x + 1.0, -1.0, 2.0),
                     (lambda x: x - 1.0, 1.0, 3.0)]
        fs = [f for f, _, _ in problems]
        got = theory._lockstep(
            [a for _, a, _ in problems], [b for _, _, b in problems],
            lambda keys, x: np.array([fs[k](v) for k, v
                                      in zip(keys.tolist(), x.tolist())]),
            2e-12)
        assert list(zip(*got)) == [_lockstep_one(*p) for p in problems]

    def test_threshold_brackets_equal_scipy(self, monkeypatch):
        # the log-likelihood-ratio roots optimal_threshold solves in one
        # lockstep batch, fig3's 28-30 dB plateau among them, equal scipy's
        # brentq on the scalar log ratio
        drive, batches = theory._lockstep, []

        def recording(lo, hi, values, xtol):
            batches.append(len(lo))
            return drive(lo, hi, values, xtol)

        monkeypatch.setattr(theory, "_lockstep", recording)
        rng = np.random.default_rng(18)
        problems = []
        for _ in range(200):
            s2 = rng.uniform(0.2, 5.0)
            qd1 = rng.uniform(0.0, 2.0) * s2
            d = _det(
                qd_1=qd1, qd_2=qd1 + rng.uniform(0.5, 8.0) * s2, sigma2_R=s2)
            p1 = rng.uniform(0.2, 0.8)
            problems.append(([d], p1, int(rng.integers(1, 60))))
        a2 = math.sqrt(10.0 ** 0.5 / 0.5)
        plateau = [_det(qd_1=pj, qd_2=(a2 + 1.0) ** 2 * pj,
                                         sigma2_R=1.0)
                   for pj in (10.0 ** 2.8, 10.0 ** 3.0)]
        problems += [(plateau, 0.5, n) for n in (1, 10, 50)]
        solved = 0
        for ds, p1, n in problems:
            got = optimal_threshold(ds, p1, 1 - p1, n)
            for d, t in zip(ds, got):
                f = _package_log_ratio(d, p1, 1 - p1, n)
                lo, hi = d.qd_1, d.qd_2 + 15.0 * d.s_1
                if f(lo) <= 0 <= f(hi):
                    assert t == optimize.brentq(f, lo, hi, xtol=2e-12)
                    solved += 1
        assert solved >= 150
        # one lockstep batch per call, of every bracket
        assert batches == [len(ds) for ds, _, _ in problems]

    def test_endpoint_root_returned_as_given(self):
        assert _lockstep_one(lambda x: x - 1.0, 1.0, 3.0) == (1.0, 0.0, 2.0)
        assert _lockstep_one(lambda x: x - 3.0, 1.0, 3.0) == (3.0, -2.0, 0.0)
        # a zero at an end needs no sign change
        assert _lockstep_one(lambda x: x * x, 0.0, 2.0)[0] == 0.0

    def test_no_sign_change_gives_none(self):
        assert _lockstep_one(lambda x: x * x + 1.0, -1.0, 2.0) == \
            (None, 2.0, 5.0)
        assert _lockstep_one(lambda x: -1.0 - x * x, 2.0, -1.0) == \
            (None, -5.0, -2.0)

    @pytest.mark.parametrize("ends", [(1.0, 3.0), (3.0, 1.0), (1.0, 1.5)])
    def test_nan_end_gives_none(self, ends):
        # a NaN at 1 (and at 1.5) hides whether the bracket holds a root
        def f(x):
            return x - 2.0 if x == 3.0 else math.nan
        root, f_a, f_b = _lockstep_one(f, *ends)
        assert root is None
        assert [math.isnan(v) for v in (f_a, f_b)] == \
            [math.isnan(f(x)) for x in ends]
        with pytest.raises(ValueError):
            optimize.brentq(f, *ends)

    def test_nan_inside_raises(self):
        # a NaN at the first step inside [0, 3]
        def f(x):
            return x - 0.5 if x == 0.0 or x == 3.0 else math.nan
        with pytest.raises(ValueError, match="NaN"):
            _lockstep_one(f, 0.0, 3.0)
        with pytest.raises(ValueError):
            optimize.brentq(f, 0.0, 3.0)

    def test_maxiter_exhausted_raises(self, monkeypatch):
        def f(x):
            return x ** 3 - 2.0
        want = optimize.brentq(f, 0.0, 5.0)
        monkeypatch.setattr(theory, "_BRENT_MAXITER", 2)
        with pytest.raises(RuntimeError, match="2 iterations"):
            _lockstep_one(f, 0.0, 5.0)
        with pytest.raises(RuntimeError):
            optimize.brentq(f, 0.0, 5.0, maxiter=2)
        monkeypatch.undo()
        assert _lockstep_one(f, 0.0, 5.0)[0] == want


class TestGaussianApprox:
    def test_equals_the_stats_norm_expression(self):
        # Q is ndtr(-z), the ufunc under stats.norm.sf, so the sum is the
        # stats expression bit for bit, tails and threshold ends included
        rng = np.random.default_rng(15)
        for _ in range(50):
            d1, d2 = np.sort(10.0 ** rng.uniform(-3, 4, 2))
            v = EnergyLaw(d1, d2)
            n = int(rng.integers(1, 200))
            p1 = rng.uniform(0.05, 0.95)
            t = np.concatenate([rng.uniform(0.0, 3.0 * d2, 200),
                                [0.0, d1, d2, np.inf, -np.inf, np.nan]])
            rn = np.sqrt(n)
            want = p1 * stats.norm.sf((t - d1) * rn / d1) \
                + (1 - p1) * stats.norm.sf((d2 - t) * rn / d2)
            got = ber_gaussian_approx(v, p1, 1 - p1, n, t)
            assert np.array_equal(got, want, equal_nan=True)

    def test_tracks_exact_in_bulk(self):
        # standardized offsets u/sqrt(N) around each level stay accurate and
        # sharpen as N grows
        worst = []
        for n in (10, 30, 100):
            errs = []
            for u in (0.25, 0.5, 1.0):
                for t in (1.0 * (1 + u / np.sqrt(n)),
                          2.0 * (1 - u / np.sqrt(n))):
                    exact = ber(V12, 0.5, 0.5, n, t)
                    approx = ber_gaussian_approx(V12, 0.5, 0.5, n, t)
                    errs.append(abs(approx - exact) / exact)
            worst.append(max(errs))
        assert worst[0] < 0.2 and worst[2] < 0.05
        assert worst[0] > worst[1] > worst[2]

    def test_diverges_in_far_tail(self):
        # at the optimal threshold the relative error grows with N: the
        # approximation is a bulk tool, not a tail tool
        n = 100
        t = optimal_threshold(V12, 0.5, 0.5, n)
        exact = ber(V12, 0.5, 0.5, n, t)
        approx = ber_gaussian_approx(V12, 0.5, 0.5, n, t)
        assert abs(approx - exact) / exact > 0.5
