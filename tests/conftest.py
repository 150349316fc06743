import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from jamlink import kernels
from jamlink.channel import ChannelDraw

settings.register_profile(
    "suite", deadline=None, max_examples=25,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture
def unit_channel():
    """All gains 1, unit noise, no delay."""
    return ChannelDraw(h1=1.0, h2=1.0, h3=1.0, sigma2_R=1.0, n_tau=0)


@pytest.fixture
def q_det():
    """Deterministic per-symbol energy of a tone sum through a channel.

    Direct N-sample summation of |h1 h2 a_k s[n] + h3 s[n - n_tau]|^2 / N
    starting at absolute sample ``n_offset``; no approximation involved.
    """
    def energy(ts, ch, a_k, N, n_offset=0):
        s = kernels.tone_sum(ts.amps, ts.freqs, ts.phases, n_offset, N)
        s_del = kernels.tone_sum(ts.amps, ts.freqs, ts.phases,
                                 n_offset - ch.n_tau, N)
        comp = ch.h1 * ch.h2 * a_k * s + ch.h3 * s_del
        return float(np.mean(np.abs(comp) ** 2))
    return energy


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
