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
lands in a jammed sub-channel and carries one symbol ``±sqrt(Eb)`` in the
same noise, so the hop index changes nothing.  Each bit errs independently
with that probability whichever value it carries, so one binomial error
count serves both schemes, not L chips, a hop or a per-bit statistic.
"""

import math

import numpy as np
from scipy import special

__all__ = ["bpsk_errors"]


def bpsk_errors(eb_n0_db, jnr_db, trials, rng):
    """Errors in ``trials`` coherent BPSK bits at Eb/(N0 + P_J).

    One ``Binomial(trials, Q(sqrt(2 Eb / (1 + 10^(jnr_db/10)))))`` draw;
    ``jnr_db = -inf`` switches the jammer off.
    """
    trials = int(trials)
    if trials < 1_000:
        raise ValueError("trials must be >= 1000 for a usable estimate")
    eb = 10.0 ** (eb_n0_db / 10.0)
    pj = 10.0 ** (jnr_db / 10.0)
    z = math.sqrt(2.0 * eb / (1.0 + pj))
    return int(np.random.default_rng(rng).binomial(trials, special.ndtr(-z)))
