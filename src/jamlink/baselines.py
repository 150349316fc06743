"""Conventional anti-jamming baselines: DS-SS and FH under fullband jamming.

Both schemes carry coherent BPSK at a fixed Eb/N0 and face circularly
symmetric Gaussian jamming whose power spectral density matches the main
link's JNR definition: every chip or sub-channel sample sees jamming
variance P_J on top of noise variance N0 (normalized to 1).  Interference
suppression is omitted: with the whole band jammed there is no clean band
to select, so it degenerates to direct transmission.

Neither spreading nor hopping buys any rejection, so both receivers slice
one real Gaussian statistic per bit, and BER = Q(sqrt(2 Eb / (N0 + P_J))).
The DS-SS correlator sums L chips of amplitude ``sqrt(Eb/L)``, each with
real noise of variance ``(1 + P_J)/2``; mean² over variance is
``2 Eb / (1 + P_J)`` for any L, so L cancels at fixed Eb/N0.  Every FH hop
lands in a jammed sub-channel, so the hop index changes nothing.  Each bit
errs independently with that probability whichever value it carries, so
the simulation draws the error count from its Binomial(trials, Q) law, not
L chips, a hop or a per-bit statistic.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import special

from .mc import BerEstimate

__all__ = ["BaselineConfig", "dsss_ber_mc", "fh_ber_mc"]


@dataclass(frozen=True)
class BaselineConfig:
    """Baseline link parameters; unit gains (perfect CSI assumed).

    ``spread_factor`` is the DS-SS chip count L, a class constant: L cancels
    from the despread statistic, so no value of it changes a result.
    """

    eb_n0_db: float
    spread_factor: ClassVar[int] = 8


def _bpsk_ber(cfg, jnr_db, trials, rng):
    """Binomial error count of coherent BPSK at Eb/(N0 + P_J)."""
    trials = int(trials)
    if trials < 1_000:
        raise ValueError("trials must be >= 1000 for a usable estimate")
    eb = 10.0 ** (cfg.eb_n0_db / 10.0)
    pj = 10.0 ** (jnr_db / 10.0)
    z = math.sqrt(2.0 * eb / (1.0 + pj))
    errors = int(np.random.default_rng(rng).binomial(trials, special.ndtr(-z)))
    return BerEstimate.from_counts(errors, trials)


def dsss_ber_mc(cfg, jnr_db, trials, rng):
    """Monte Carlo BER of direct-sequence spreading under fullband jamming.

    The despread correlator of ``spread_factor`` chips has mean
    ``L·sqrt(Eb/L)`` and variance ``L·(1 + 10^(jnr_db/10))/2``; L cancels.
    ``jnr_db = -inf`` switches the jammer off.
    """
    return _bpsk_ber(cfg, jnr_db, trials, rng)


def fh_ber_mc(cfg, jnr_db, trials, rng):
    """Monte Carlo BER of frequency hopping under fullband jamming.

    One BPSK symbol per hop; every sub-channel carries jamming of variance
    ``10^(jnr_db/10)``, so the statistic is ``±sqrt(Eb)`` in real
    noise of variance ``(1 + P_J)/2`` whichever hop is taken.
    """
    return _bpsk_ber(cfg, jnr_db, trials, rng)
