"""Framing, energy detection, and threshold estimation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from jamlink import kernels, theory
from jamlink.channel import ChannelDraw
from jamlink.errors import DegenerateThresholdError
from jamlink.modem import (FrameConfig, block_energies, build_preamble,
                           decode, estimate_threshold)
from jamlink.signals import (JammerKind, JammerSpec, gen_cscg,
                             gen_jammer_block, prepare_jammer)


def _cfg(**kw):
    base = dict(N=10, M=10, a1=0.0, a2=2.0, p1=0.5)
    base.update(kw)
    return FrameConfig(**base)


def _threshold_of_means(q0_mean, q1_mean, cfg):
    levels = theory.EnergyLaw(q0_mean, q1_mean)
    return theory.optimal_threshold(levels, cfg.p1, cfg.p2, cfg.N)


class TestFrameConfig:
    def test_rejects_odd_preamble(self):
        with pytest.raises(ValueError):
            _cfg(M=9)

    def test_rejects_amp_order(self):
        with pytest.raises(ValueError):
            _cfg(a1=2.0, a2=1.0)

    def test_rejects_bad_priors(self):
        with pytest.raises(ValueError):
            _cfg(p1=1.5)


class TestFraming:
    def test_preamble_alternates_from_one(self):
        np.testing.assert_array_equal(build_preamble(6), [1, 0, 1, 0, 1, 0])

    def test_encode_expands_amplitudes(self):
        # bits 0, 1 map to a1 = 0, a2 = 2, each held over N = 3 samples
        cfg = _cfg(N=3)
        amps = np.where(np.array([0, 1]) == 0, cfg.a1, cfg.a2)
        jam = np.array([1, 1, 1, 1, 2, 3], dtype=complex)
        q = kernels.compose_energies(jam, np.zeros(6, complex),
                                     np.zeros(6, complex), amps, 1.0, 0.0, 3)
        np.testing.assert_allclose(q, [0.0, 4.0 * 14.0 / 3.0])

    def test_symbol_energies_mean(self):
        y = np.array([1.0, 1.0, 2.0, 2.0], dtype=complex)
        q = kernels.compose_energies(y, np.zeros(4, complex),
                                     np.zeros(4, complex), np.ones(2),
                                     1.0, 0.0, 2)
        np.testing.assert_allclose(q, [1.0, 4.0])

    def test_symbol_energies_complex_modulus(self):
        y = np.array([3 + 4j, 0j], dtype=complex)
        q = kernels.compose_energies(np.zeros(2, complex), np.zeros(2, complex),
                                     y, np.ones(1), 1.0, 1.0, 2)
        np.testing.assert_allclose(q, [12.5])


class TestEstimateThreshold:
    def test_hand_value_equal_priors(self):
        # (xy/(y-x)) ln(y/x) with x=1, y=2: 2 ln 2
        q = np.array([2.0, 1.0, 2.0, 1.0])
        cfg = _cfg(M=4, N=1)
        t = estimate_threshold(q, cfg)
        assert np.isclose(t, 2.0 * np.log(2.0), rtol=1e-12)
        assert t == _threshold_of_means(1.0, 2.0, cfg)

    def test_hand_value_ratio_e(self):
        # x=1, y=e: (e/(e-1)) ln e = e/(e-1)
        q = np.array([np.e, 1.0])
        t = estimate_threshold(q, _cfg(M=2, N=1))
        assert np.isclose(t, np.e / (np.e - 1.0), rtol=1e-12)

    def test_level_means(self):
        # each level is the mean of its M/2 slots: ones at 0::2, zeros at 1::2
        q = np.array([5.0, 1.0, 3.0, 2.0])
        cfg = _cfg(M=4, N=1)
        assert estimate_threshold(q, cfg) == _threshold_of_means(1.5, 4.0, cfg)

    def test_degenerate_raises(self):
        q = np.ones(4)
        with pytest.raises(DegenerateThresholdError):
            estimate_threshold(q, _cfg(M=4, N=1))

    def test_threshold_between_levels(self):
        q = np.array([4.0, 1.0, 4.0, 1.0])
        cfg = _cfg(M=4, N=1)
        t = estimate_threshold(q, cfg)
        assert 1.0 < t < 4.0
        assert t == _threshold_of_means(1.0, 4.0, cfg)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3),
           ratio=st.floats(min_value=1.1, max_value=50.0))
    def test_scaling_covariance(self, scale, ratio):
        # T(c x, c y) = c T(x, y)
        cfg = _cfg(M=2, N=1)
        base = estimate_threshold(np.array([ratio, 1.0]), cfg)
        scaled = estimate_threshold(np.array([ratio * scale, scale]), cfg)
        assert np.isclose(scaled, scale * base, rtol=1e-9)


class TestDecode:
    def test_tie_decodes_zero(self):
        bits = decode(np.array([1.0, 1.0 + 1e-9]), 1.0)
        np.testing.assert_array_equal(bits, [0, 1])

    def test_dtype_is_int(self):
        assert decode(np.array([0.5]), 1.0).dtype.kind == "i"


def _with_preamble(cfg, payload):
    return np.concatenate([build_preamble(cfg.M), payload])


class TestPreambleLink:
    """A block of preamble then payload: one energies call, the preamble's
    threshold estimate, and one decode of the payload energies."""

    def _spec(self, power=1.0):
        return JammerSpec(kind=JammerKind.RANDOM_BROADBAND, power=power)

    def test_noiseless_link_is_error_free(self, rng):
        ch = ChannelDraw(1.0, 1.0, 1.0, 1e-12, 0)
        cfg = _cfg(N=10, M=10)
        payload = rng.integers(0, 2, 200)
        q, _ = block_energies(self._spec(), ch, cfg,
                              _with_preamble(cfg, payload), rng)
        t = estimate_threshold(q[:cfg.M], cfg)
        np.testing.assert_array_equal(decode(q[cfg.M:], t), payload)
        assert t == _threshold_of_means(q[1:cfg.M:2].mean(),
                                        q[0:cfg.M:2].mean(), cfg)
        assert q.shape == (10 + 200,)

    def test_seeded_determinism(self, unit_channel):
        cfg = _cfg()
        bits = _with_preamble(cfg, np.array([0, 1, 1, 0, 1]))
        q1, q2 = (block_energies(self._spec(), unit_channel, cfg, bits,
                                 np.random.default_rng(9))[0]
                  for _ in range(2))
        np.testing.assert_array_equal(q1, q2)
        t1 = estimate_threshold(q1[:cfg.M], cfg)
        assert t1 == estimate_threshold(q2[:cfg.M], cfg)
        np.testing.assert_array_equal(decode(q1[cfg.M:], t1),
                                      decode(q2[cfg.M:], t1))

    @pytest.mark.parametrize("n_tau", [0, 3])
    def test_tonal_offset_continuity(self, n_tau):
        # two consecutive blocks see the same continuous tones as one block
        # spanning both; the noise is too weak to tell them apart.  Blocks of
        # 15 samples are no multiple of the tones' 10-sample period.
        spec = prepare_jammer(
            JammerSpec(kind=JammerKind.MULTI_TONE, power=1.0),
            np.random.default_rng(3))
        ch = ChannelDraw(0.8 - 0.6j, 0.3 + 1.1j, -0.7 + 0.4j, 1e-24, n_tau)
        cfg = _cfg(N=3, M=2)
        bits = _with_preamble(cfg, np.array([0, 1, 1]))
        n_block = bits.size * cfg.N
        qa, _ = block_energies(spec, ch, cfg, bits, np.random.default_rng(1),
                               0)
        qb, _ = block_energies(spec, ch, cfg, bits, np.random.default_rng(2),
                               n_block)
        q, _ = block_energies(spec, ch, cfg, np.concatenate([bits, bits]),
                              np.random.default_rng(3), 0)
        np.testing.assert_allclose(np.concatenate([qa, qb]), q, rtol=1e-9)

    def test_energy_law_matches_chi_square(self, unit_channel):
        # 2NQ/delta^2 ~ chi2(2N) under CSCG jamming
        cfg = _cfg(N=10, M=10, a2=2.0)
        rng = np.random.default_rng(77)
        payload = np.zeros(4000, dtype=np.int64)
        q, _ = block_energies(self._spec(), unit_channel, cfg,
                              _with_preamble(cfg, payload), rng)
        q0 = q[cfg.M:]  # all-zero payload: delta2 = |h3|^2 + sigma2
        delta2 = 2.0
        stat = 2 * cfg.N * q0 / delta2
        _, p = stats.kstest(stat, "chi2", args=(2 * cfg.N,))
        assert p > 0.01


class TestBlockEnergies:
    """With n_tau = 0, random broadband jamming draws Gamma(N, delta2/N)
    energies and modulated jamming draws scaled noncentral chi-square ones;
    tonal jamming, and every kind with a delay, composes them from samples."""

    CH = ChannelDraw(h1=0.8 - 0.6j, h2=0.3 + 1.1j, h3=-0.7 + 0.4j,
                     sigma2_R=0.5, n_tau=0)
    BBR = JammerSpec(kind=JammerKind.RANDOM_BROADBAND, power=3.0)

    @staticmethod
    def _sample_path(spec, ch, cfg, bits, rng, offset):
        n_tot = bits.size * cfg.N
        jam = gen_jammer_block(spec, n_tot + ch.n_tau, offset - ch.n_tau, rng)
        noise = gen_cscg(ch.sigma2_R, n_tot, rng)
        return kernels.compose_energies(
            jam[ch.n_tau:], jam[:n_tot], noise,
            np.where(bits == 0, cfg.a1, cfg.a2), ch.h1 * ch.h2, ch.h3, cfg.N)

    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("N", [1, 8, 50])
    def test_gamma_path_matches_sample_path_law(self, N, bit):
        # fixed seeds; a correct law fails the 1e-3 KS bound 0.1% of the time
        cfg = _cfg(N=N, M=2, a1=0.5, a2=2.0)
        bits = np.full(4000, bit)
        law, _ = block_energies(self.BBR, self.CH, cfg, bits,
                                np.random.default_rng(100 + N))
        samples = self._sample_path(self.BBR, self.CH, cfg, bits,
                                    np.random.default_rng(200 + N), 0)
        assert stats.ks_2samp(law, samples).pvalue > 1e-3

    # a1 acts on bit 0 only; a1 = 0 is on-off keying
    @pytest.mark.parametrize("bit,a1", [(0, 0.0), (0, 0.5), (1, 0.5)])
    @pytest.mark.parametrize("N", [1, 10])
    @pytest.mark.parametrize("kind", [JammerKind.MOD_BPSK, JammerKind.MOD_QPSK,
                                      JammerKind.MOD_16QAM])
    def test_modulated_law_matches_sample_path_law(self, kind, N, bit, a1):
        # fixed seeds; a correct law fails the 1e-3 KS bound 0.1% of the time
        spec = JammerSpec(kind=kind, power=3.0)
        cfg = _cfg(N=N, M=2, a1=a1, a2=2.0)
        bits = np.full(4000, bit)
        law, _ = block_energies(spec, self.CH, cfg, bits,
                                np.random.default_rng(300 + N))
        samples = self._sample_path(spec, self.CH, cfg, bits,
                                    np.random.default_rng(400 + N), 0)
        assert stats.ks_2samp(law, samples).pvalue > 1e-3

    @pytest.mark.parametrize("kind,n_tau", [
        (JammerKind.RANDOM_BROADBAND, 3),
        (JammerKind.SINGLE_TONE, 0),
        (JammerKind.MULTI_TONE, 2),
        (JammerKind.MOD_QPSK, 2),
        (JammerKind.MOD_BPSK, 1),
        (JammerKind.MOD_16QAM, 1),
    ])
    def test_other_cases_keep_the_sample_path(self, kind, n_tau):
        spec = prepare_jammer(JammerSpec(kind=kind, power=3.0),
                              np.random.default_rng(4))
        ch = ChannelDraw(self.CH.h1, self.CH.h2, self.CH.h3,
                         self.CH.sigma2_R, n_tau)
        cfg = _cfg(N=8, M=2, a1=0.5, a2=2.0)
        bits = np.random.default_rng(5).integers(0, 2, 300)
        got, _ = block_energies(spec, ch, cfg, bits, np.random.default_rng(6),
                                sample_offset=40)
        want = self._sample_path(spec, ch, cfg, bits,
                                 np.random.default_rng(6), 40)
        np.testing.assert_array_equal(got, want)

    def test_preamble_is_drawn_from_the_gamma_law(self):
        cfg = _cfg(N=8, M=10, a1=0.5, a2=2.0)
        payload = np.random.default_rng(7).integers(0, 2, 50)
        bits = _with_preamble(cfg, payload)
        q, _ = block_energies(self.BBR, self.CH, cfg, bits,
                              np.random.default_rng(8))
        d2 = np.where(bits == 0,
                      theory.delta2(self.CH, cfg.a1, self.BBR.power),
                      theory.delta2(self.CH, cfg.a2, self.BBR.power))
        gamma = np.random.default_rng(8).standard_gamma(cfg.N, bits.size)
        np.testing.assert_array_equal(q, gamma * (d2 / cfg.N))

    @pytest.mark.parametrize("kind", [JammerKind.MOD_BPSK, JammerKind.MOD_QPSK,
                                      JammerKind.MOD_16QAM])
    def test_preamble_is_drawn_from_the_modulated_law(self, kind):
        spec = JammerSpec(kind=kind, power=3.0)
        cfg = _cfg(N=8, M=10, a1=0.5, a2=2.0)
        payload = np.random.default_rng(7).integers(0, 2, 50)
        bits = _with_preamble(cfg, payload)
        q, _ = block_energies(spec, self.CH, cfg, bits,
                              np.random.default_rng(8))
        qd = np.where(bits == 0, theory.jam_energy(self.CH, cfg.a1, 3.0),
                      theory.jam_energy(self.CH, cfg.a2, 3.0))
        rng = np.random.default_rng(8)
        # window jamming power over P_J: N, or (2N + 8m)/10 for 16QAM
        s = cfg.N if kind is not JammerKind.MOD_16QAM else \
            (2 * cfg.N + 8 * rng.binomial(2 * cfg.N, 0.5, bits.size)) / 10
        df = 2 * cfg.N
        want = rng.noncentral_chisquare(df, 2.0 * qd * s / self.CH.sigma2_R) \
            * (self.CH.sigma2_R / df)
        np.testing.assert_array_equal(q, want)

    @pytest.mark.parametrize("kind", [JammerKind.RANDOM_BROADBAND,
                                      JammerKind.MOD_16QAM,
                                      JammerKind.MOD_BPSK, JammerKind.MOD_QPSK])
    def test_levels_are_the_law_of_the_draw(self, kind):
        spec = JammerSpec(kind=kind, power=3.0)
        cfg = _cfg(N=8, M=2, a1=0.5, a2=2.0)
        bits = np.random.default_rng(5).integers(0, 2, 30)
        _, levels = block_energies(spec, self.CH, cfg, bits,
                                   np.random.default_rng(6))
        if kind in (JammerKind.MOD_BPSK, JammerKind.MOD_QPSK):
            lo, hi = sorted(theory.jam_energy(self.CH, a, 3.0)
                            for a in (cfg.a1, cfg.a2))
            want = theory.EnergyLaw(self.CH.sigma2_R, self.CH.sigma2_R, lo,
                                    hi)
        else:
            want = theory.variances(self.CH, cfg.a1, cfg.a2, 3.0)
        assert levels == want

    @pytest.mark.parametrize("kind", [JammerKind.RANDOM_BROADBAND,
                                      JammerKind.MOD_BPSK, JammerKind.MOD_QPSK,
                                      JammerKind.MOD_16QAM])
    def test_non_tonal_delay_has_no_levels(self, kind):
        # the relayed and direct paths carry different jammer samples
        ch = ChannelDraw(self.CH.h1, self.CH.h2, self.CH.h3,
                         self.CH.sigma2_R, 2)
        q, levels = block_energies(JammerSpec(kind=kind, power=3.0), ch,
                                   _cfg(N=8, M=2), np.ones(30),
                                   np.random.default_rng(6))
        assert levels is None and q.shape == (30,)

    @pytest.mark.parametrize("kind", [JammerKind.RANDOM_BROADBAND,
                                      JammerKind.MOD_BPSK,
                                      JammerKind.MOD_16QAM,
                                      JammerKind.SINGLE_TONE])
    def test_coinciding_levels_are_none_and_the_energies_drawn(self, kind):
        # h1 h2 a_k + h3 is -1 for a1 = 0 and +1 for a2 = 2: one level
        ch = ChannelDraw(h1=1.0, h2=1.0, h3=-1.0, sigma2_R=0.5, n_tau=0)
        spec = prepare_jammer(JammerSpec(kind=kind, power=3.0),
                              np.random.default_rng(4))
        cfg = _cfg(N=8, M=2, a1=0.0, a2=2.0)
        bits = np.random.default_rng(5).integers(0, 2, 300)
        q, levels = block_energies(spec, ch, cfg, bits,
                                   np.random.default_rng(6))
        assert levels is None
        assert q.shape == bits.shape and np.all(q > 0)
        # each symbol's mean energy is its one level: jamming plus noise
        assert np.isclose(q.mean(), 3.0 + 0.5, rtol=0.05)
