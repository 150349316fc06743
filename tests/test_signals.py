"""Waveform generator contracts: power control, determinism, tone layout."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jamlink import signals
from jamlink.signals import (JammerKind, JammerSpec, ToneSet, gen_cscg,
                             gen_modulated, make_toneset, prepare_jammer)


def average_power(block):
    """Mean of |samples|^2 over the block."""
    return float(np.mean(np.abs(block) ** 2))


class TestGenCscg:
    def test_power_large_sample(self):
        b = gen_cscg(1.0, 10**6, 1)
        # mean of 1e6 unit exponentials: 5 sigma band is 1 +/- 5e-3
        assert 0.995 <= average_power(b) <= 1.005

    def test_component_variances(self):
        b = gen_cscg(4.0, 10**5, 2)
        assert np.isclose(average_power(b), 4.0, rtol=0.05)
        assert np.isclose(b.real.var(), 2.0, rtol=0.05)
        assert np.isclose(b.imag.var(), 2.0, rtol=0.05)

    def test_seeded_determinism(self):
        assert gen_cscg(1.0, 1, 42) == gen_cscg(1.0, 1, 42)

    @pytest.mark.parametrize("pj", [1e-3, 1.0, 3.7, 1e4])
    @pytest.mark.parametrize("seed", range(5))
    def test_bits_match_the_complex_expression(self, pj, seed):
        # the parts are written in place; the values are those of
        # scale * (z0 + 1j z1), bit for bit
        z = np.random.default_rng(seed).standard_normal((2, 1001))
        want = np.sqrt(pj / 2.0) * (z[0] + 1j * z[1])
        got = gen_cscg(pj, 1001, np.random.default_rng(seed))
        assert got.dtype == np.complex128
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("pj,n", [(0.0, 5), (-1.0, 5), (1.0, 0)])
    def test_invalid_args(self, pj, n):
        with pytest.raises(ValueError):
            gen_cscg(pj, n, 0)


class TestMakeToneset:
    def test_five_tone_grid(self):
        ts = make_toneset(0.25, 0.4, 5, 3.0, 0)
        np.testing.assert_allclose(ts.freqs, [0.05, 0.15, 0.25, 0.35, 0.45])
        assert np.isclose(ts.power, 3.0, rtol=1e-9)

    def test_single_tone_amplitude(self):
        ts = make_toneset(0.25, 0.0, 1, 2.0, 0)
        assert ts.amps.shape == (1,)
        # a^2/2 = 2 -> a = 2
        assert np.isclose(ts.amps[0], 2.0)

    def test_equal_power_split(self):
        ts = make_toneset(0.25, 0.2, 3, 1.0, 0)
        np.testing.assert_allclose(ts.amps, np.sqrt(2.0 / 3.0))

    def test_band_exceeding_nyquist(self):
        with pytest.raises(ValueError):
            make_toneset(0.4, 0.3, 5, 1.0, 0)

    def test_phases_from_stream(self):
        a = make_toneset(0.25, 0.4, 5, 1.0, 7)
        b = make_toneset(0.25, 0.4, 5, 1.0, 7)
        c = make_toneset(0.25, 0.4, 5, 1.0, 8)
        np.testing.assert_array_equal(a.phases, b.phases)
        assert not np.array_equal(a.phases, c.phases)


class TestToneSetValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ToneSet(np.array([]), np.array([]), np.array([]))

    def test_rejects_duplicate_freqs(self):
        with pytest.raises(ValueError):
            ToneSet(np.array([1.0, 1.0]), np.array([0.1, 0.1]),
                    np.array([0.0, 0.0]))

    def test_rejects_out_of_band(self):
        with pytest.raises(ValueError):
            ToneSet(np.array([1.0]), np.array([0.5]), np.array([0.0]))


def _tone_block(ts, n, sample_offset=0):
    kind = JammerKind.SINGLE_TONE if ts.amps.size == 1 else JammerKind.MULTI_TONE
    spec = JammerSpec(kind=kind, power=ts.power, toneset=ts)
    return signals.gen_jammer_block(spec, n, sample_offset, None)


class TestGenToneSum:
    """Tone sums as :func:`signals.gen_jammer_block` returns them."""

    def test_quarter_rate_cosine(self):
        ts = ToneSet(np.array([1.0]), np.array([0.25]), np.array([0.0]))
        b = _tone_block(ts, 4)
        assert b.dtype == np.float64
        np.testing.assert_allclose(b, [1.0, 0.0, -1.0, 0.0], atol=1e-12)

    def test_shift_identity(self):
        ts = make_toneset(0.25, 0.3, 4, 1.0, 3)
        full = _tone_block(ts, 50 + 7)
        shifted = _tone_block(ts, 50, sample_offset=7)
        np.testing.assert_allclose(shifted, full[7:], rtol=1e-12, atol=1e-12)

    def test_empirical_power(self):
        # incommensurate-ish grid, long average converges to sum(a^2)/2
        ts = make_toneset(0.23, 0.37, 5, 2.0, 11)
        b = _tone_block(ts, 10**5)
        assert np.isclose(average_power(b), 2.0, rtol=0.01)

    @given(offset=st.integers(min_value=-50, max_value=50))
    def test_offset_property(self, offset):
        ts = make_toneset(0.25, 0.004, 5, 1.0, 5)
        a = _tone_block(ts, 16, sample_offset=offset)
        b = _tone_block(ts, 32, sample_offset=offset - 16)
        np.testing.assert_allclose(a, b[16:], rtol=1e-9, atol=1e-12)


class TestGenModulated:
    def test_qpsk_constant_envelope(self):
        b = gen_modulated("mod_qpsk", 1.0, 1000, 0)
        np.testing.assert_allclose(np.abs(b), 1.0, rtol=1e-12)

    def test_bpsk_alphabet(self):
        b = gen_modulated("mod_bpsk", 1.0, 1000, 0)
        assert set(np.unique(b.real)) == {-1.0, 1.0}
        np.testing.assert_array_equal(b.imag, 0.0)

    def test_16qam_power(self):
        b = gen_modulated("mod_16qam", 1.0, 10**6, 0)
        assert 0.99 <= average_power(b) <= 1.01

    def test_rejects_non_modulated_kind(self):
        with pytest.raises(ValueError):
            gen_modulated("single_tone", 1.0, 10, 0)


class TestJammerSpec:
    def test_kind_parsing(self):
        assert JammerKind.parse("Random_Broadband") is JammerKind.RANDOM_BROADBAND
        with pytest.raises(ValueError):
            JammerKind.parse("nope")

    def test_narrowband_span_enforced(self):
        ts = make_toneset(0.25, 0.2, 5, 1.0, 0)
        with pytest.raises(ValueError):
            JammerSpec(kind=JammerKind.NARROWBAND, power=1.0, toneset=ts)

    def test_broadband_span_enforced(self):
        ts = make_toneset(0.25, 0.004, 5, 1.0, 0)
        with pytest.raises(ValueError):
            JammerSpec(kind=JammerKind.DET_BROADBAND, power=1.0, toneset=ts)

    def test_power_mismatch_rejected(self):
        ts = make_toneset(0.25, 0.0, 1, 2.0, 0)
        with pytest.raises(ValueError):
            JammerSpec(kind=JammerKind.SINGLE_TONE, power=1.0, toneset=ts)

    def test_prepare_draws_phases_once(self):
        spec = JammerSpec(kind=JammerKind.MULTI_TONE, power=1.0)
        p1 = prepare_jammer(spec, np.random.default_rng(3))
        p2 = prepare_jammer(p1, np.random.default_rng(99))
        assert p2.toneset is p1.toneset  # already prepared, untouched

    def test_block_continuity(self):
        # consecutive blocks continue the waveform, no phase restart
        spec = prepare_jammer(JammerSpec(kind=JammerKind.NARROWBAND, power=1.0),
                              np.random.default_rng(0))
        a = signals.gen_jammer_block(spec, 64, 0, None)
        b = signals.gen_jammer_block(spec, 32, 64, None)
        whole = signals.gen_jammer_block(spec, 96, 0, None)
        np.testing.assert_allclose(np.concatenate([a, b]), whole,
                                   rtol=1e-9, atol=1e-12)


@given(pj=st.floats(min_value=0.1, max_value=50.0),
       j=st.integers(min_value=1, max_value=12))
def test_toneset_power_invariant(pj, j):
    ts = make_toneset(0.25, 0.3 if j > 1 else 0.0, j, pj, 0)
    assert np.isclose(ts.power, pj, rtol=1e-9, atol=0.0)
