"""Rician block-fading draws and the SINR of one draw.

The link has three complex gains: h1 (jammer to transmitter), h2
(transmitter to receiver) and h3 (jammer to receiver).  Within one block all
three are constant; the receiver adds circularly symmetric Gaussian noise of
variance ``sigma2_R`` per complex sample.  The jammer-to-receiver path may
arrive ``n_tau`` samples later than the relayed path.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["RicianParams", "ChannelDraw", "draw_channel", "sinr"]


@dataclass(frozen=True)
class RicianParams:
    """Rician fading: a finite K factor; every line-of-sight mean is 1."""

    k_factor: float

    def __post_init__(self):
        if not 0 <= self.k_factor < np.inf:
            raise ValueError("k_factor must be finite and >= 0")


@dataclass(frozen=True)
class ChannelDraw:
    """One block-fading realization."""

    h1: complex
    h2: complex
    h3: complex
    sigma2_R: float
    n_tau: int = 0

    def __post_init__(self):
        if not self.sigma2_R > 0:
            raise ValueError("sigma2_R must be > 0")
        if int(self.n_tau) < 0:
            raise ValueError("n_tau must be >= 0")
        object.__setattr__(self, "n_tau", int(self.n_tau))


def _cn01(rng, size=None):
    z = rng.standard_normal((2,) + ((size,) if size else ()))
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)


def draw_channel(params, sigma2_R, n_tau, rng):
    """Draw one Rician block-fading realization.

    Each gain is ``sqrt(K/(K+1)) + sqrt(1/(K+1)) * h_scatter``, a unit
    line-of-sight mean plus scatter components i.i.d. CN(0, 1) and
    independent across the three paths.  ``K = 0`` is pure Rayleigh; a huge
    ``K`` pins the gains to 1.

    Parameters
    ----------
    params : RicianParams
    sigma2_R : float
        Receiver noise variance, > 0.
    n_tau : int
        Jammer-to-receiver path delay in samples, >= 0.
    rng : numpy.random.Generator or seed

    Returns
    -------
    ChannelDraw
    """
    rng = np.random.default_rng(rng)
    k = params.k_factor
    los_w = np.sqrt(k / (k + 1.0))
    sc_w = np.sqrt(1.0 / (k + 1.0))
    h1, h2, h3 = los_w + sc_w * _cn01(rng, 3)
    return ChannelDraw(h1=complex(h1), h2=complex(h2), h3=complex(h3),
                       sigma2_R=float(sigma2_R), n_tau=int(n_tau))


def sinr(ch, a_k, P_J, jamming_is_random):
    """Signal-to-interference-plus-noise ratio of the relayed component.

    With random jamming the direct jammer-to-receiver path is interference,
    so the denominator is ``|h3|^2 P_J + sigma2_R``.  With deterministic
    (tone) jamming that path is a known waveform the detector can absorb,
    leaving only noise in the denominator.
    """
    if not P_J > 0:
        raise ValueError("P_J must be > 0")
    num = (abs(ch.h1) ** 2) * (abs(ch.h2) ** 2) * (a_k ** 2) * P_J
    if jamming_is_random:
        return float(num / ((abs(ch.h3) ** 2) * P_J + ch.sigma2_R))
    return float(num / ch.sigma2_R)
