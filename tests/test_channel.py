"""Fading draw statistics, SINR and received-signal composition."""

import numpy as np
import pytest

from jamlink import signals
from jamlink.channel import ChannelDraw, RicianParams, draw_channel, sinr
from jamlink.modem import FrameConfig, block_energies
from jamlink.signals import JammerKind, JammerSpec, ToneSet


def _draw_many(params, n, seed=0):
    rng = np.random.default_rng(seed)
    return [draw_channel(params, 1.0, 0, rng) for _ in range(n)]


class TestDrawChannel:
    def test_pure_los_limit(self):
        # every line-of-sight mean is 1
        ch = draw_channel(RicianParams(k_factor=1e12), 1.0, 0,
                          np.random.default_rng(0))
        assert abs(ch.h1 - 1.0) < 1e-5
        assert abs(ch.h2 - 1.0) < 1e-5
        assert abs(ch.h3 - 1.0) < 1e-5

    def test_rayleigh_unit_second_moment(self):
        draws = _draw_many(RicianParams(k_factor=0.0), 10**5)
        m2 = np.mean([abs(d.h1) ** 2 for d in draws])
        assert np.isclose(m2, 1.0, rtol=0.02)

    def test_rician_moment_identity(self):
        # K/(K+1)*|los|^2 + 1/(K+1) = 1 for unit LOS
        draws = _draw_many(RicianParams(k_factor=10.0), 10**5)
        m2 = np.mean([abs(d.h2) ** 2 for d in draws])
        assert np.isclose(m2, 1.0, rtol=0.02)

    def test_empirical_k_ratio(self):
        draws = _draw_many(RicianParams(k_factor=10.0), 10**5)
        h = np.array([d.h3 for d in draws])
        los_power = abs(h.mean()) ** 2
        scatter_power = h.var()
        assert np.isclose(los_power / scatter_power, 10.0, rtol=0.05)

    def test_seeded_determinism(self):
        p = RicianParams(k_factor=10.0)
        a = draw_channel(p, 1.0, 0, np.random.default_rng(5))
        b = draw_channel(p, 1.0, 0, np.random.default_rng(5))
        assert (a.h1, a.h2, a.h3) == (b.h1, b.h2, b.h3)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            RicianParams(k_factor=-1.0)


def _tones(amps, freqs, phases):
    """A prepared tonal jammer; tones do not depend on the rng."""
    ts = ToneSet(amps=np.asarray(amps, dtype=np.float64),
                 freqs=np.asarray(freqs, dtype=np.float64),
                 phases=np.asarray(phases, dtype=np.float64))
    kind = JammerKind.SINGLE_TONE if ts.amps.size == 1 else JammerKind.MULTI_TONE
    return JammerSpec(kind=kind, power=ts.power, toneset=ts)


# a real constant-one jammer: one tone at frequency 0, phase 0
_ONES = _tones([1.0], [0.0], [0.0])


def _frame(N, a2=1.0):
    return FrameConfig(N=N, M=2, a1=0.0, a2=a2)


class TestComposeReceived:
    """The received block h1 h2 a j[n] + h3 j[n - n_tau] + z[n], seen through
    the per-symbol energies of :func:`modem.block_energies`."""

    def test_all_zero(self):
        ch = ChannelDraw(1.0, 1.0, 0.0, 1e-30, 0)
        q, _ = block_energies(_ONES, ch, _frame(2), np.zeros(5),
                              np.random.default_rng(0))
        np.testing.assert_allclose(np.sqrt(q), 0.0, atol=1e-13)

    def test_constant_gain_collapse(self, rng):
        # n_tau = 0, amps constant: y = (h1 h2 a + h3) jam
        ch = ChannelDraw(0.7 + 0.1j, 1.2, 0.5 - 0.2j, 1e-30, 0)
        spec = _tones([1.0, 0.5, 0.8], [0.05, 0.17, 0.31],
                      rng.uniform(0.0, 2 * np.pi, 3))
        q, _ = block_energies(spec, ch, _frame(4, a2=2.0), np.ones(16), rng)
        jam = signals.gen_jammer_block(spec, 64, 0, None)
        want = abs(ch.h1 * ch.h2 * 2.0 + ch.h3) ** 2 * \
            (np.abs(jam) ** 2).reshape(16, 4).mean(axis=1)
        np.testing.assert_allclose(q, want, rtol=1e-10, atol=1e-12)

    def test_unit_everything(self):
        # y = 1 + 1 = 2 on every sample
        ch = ChannelDraw(1.0, 1.0, 1.0, 1e-30, 0)
        q, _ = block_energies(_ONES, ch, _frame(5), np.ones(1),
                              np.random.default_rng(0))
        np.testing.assert_allclose(q, 4.0, atol=1e-12)

    def test_delay_lookback(self, rng):
        # the direct path reads the jammer 3 samples earlier, reaching back
        # before the block start
        ch = ChannelDraw(1.0, 1.0, 1.0, 1e-30, n_tau=3)
        spec = _tones([1.0, 0.7], [0.11, 0.23], [0.4, 2.0])
        q, _ = block_energies(spec, ch, _frame(2), np.ones(5), rng)
        y = signals.gen_jammer_block(spec, 10, 0, None) \
            + signals.gen_jammer_block(spec, 10, -3, None)
        want = (np.abs(y) ** 2).reshape(5, 2).mean(axis=1)
        np.testing.assert_allclose(q, want, rtol=1e-10, atol=1e-12)

    def test_noise_variance(self, rng):
        ch = ChannelDraw(0.0, 0.0, 0.0, 4.0, 0)
        q, _ = block_energies(_ONES, ch, _frame(10), np.zeros(10**4), rng)
        assert np.isclose(np.mean(q), 4.0, rtol=0.05)


class TestSinr:
    def test_hand_value(self):
        ch = ChannelDraw(1.0, 1.0, 1.0, 1.0, 0)
        assert np.isclose(sinr(ch, 2.0, 10.0, True), 40.0 / 11.0)

    def test_zero_amplification(self, unit_channel):
        assert sinr(unit_channel, 0.0, 10.0, True) == 0.0

    def test_deterministic_equals_jnr(self, unit_channel):
        assert np.isclose(sinr(unit_channel, 1.0, 7.0, False), 7.0)

    def test_increasing_in_pj_and_bounded(self, unit_channel):
        vals = [sinr(unit_channel, 2.0, pj, True) for pj in (1, 10, 100, 1e4)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 4.0  # limit |h1 h2 a|^2 / |h3|^2
