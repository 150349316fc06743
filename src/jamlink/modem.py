"""Transmitter-side amplification mapping and receiver-side energy detection.

The transmitter never generates a waveform of its own.  It conveys bits by
switching the amplification factor applied to whatever jamming it receives:
bit '0' selects ``a1``, bit '1' selects ``a2`` (on-off keying is the special
case ``a1 = 0``).  The receiver integrates per-symbol average energy,
estimates a detection threshold from an alternating preamble and slices.

:func:`block_energies` is the one place that maps a jammer kind to its
energy law: it draws a block's energies from that law, or composes them
from samples, and returns the law's levels for the payload with them.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, signals, theory
from .errors import DegenerateChannelError, DegenerateThresholdError

__all__ = [
    "FrameConfig",
    "build_preamble",
    "block_energies",
    "estimate_threshold",
    "decode",
]


@dataclass(frozen=True)
class FrameConfig:
    """Frame and alphabet description.

    Attributes
    ----------
    N : int
        Samples integrated per symbol, >= 1.
    M : int
        Preamble length in symbols; even, >= 2.
    a1, a2 : float
        Amplification factors for bits '0' and '1'; 0 <= a1 < a2 < inf.
    p1 : float
        Prior probability of '0', in (0, 1); '1' has prior ``p2 = 1 - p1``.
    """

    N: int
    M: int
    a1: float
    a2: float
    p1: float = 0.5

    def __post_init__(self):
        if int(self.N) < 1:
            raise ValueError("N must be >= 1")
        if int(self.M) < 2 or int(self.M) % 2:
            raise ValueError("M must be even and >= 2")
        if not 0 <= self.a1 < self.a2 < np.inf:
            raise ValueError("alphabet requires 0 <= a1 < a2 < inf")
        if not 0 < self.p1 < 1:
            raise ValueError("prior p1 must lie in (0, 1)")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "M", int(self.M))

    @property
    def p2(self):
        return 1.0 - self.p1


def build_preamble(M):
    """Alternating training bits '1','0','1','0',... of even length M."""
    M = int(M)
    if M < 2 or M % 2:
        raise ValueError("M must be even and >= 2")
    bits = np.zeros(M, dtype=np.int64)
    bits[0::2] = 1
    return bits


def _window_power(kind, N, n, rng):
    """``sum |x|^2 / P_J`` over each of ``n`` windows of N modulated symbols.

    BPSK and QPSK have constant envelope, so every window holds N.  A 16QAM
    point has ``10|x|^2 = 2 + 8(b1 + b2)`` with its two level bits fair and
    independent, so a window holds ``(2N + 8m) / 10``, m ~ Binomial(2N, 1/2).
    """
    if kind is signals.JammerKind.MOD_16QAM:
        return (2 * N + 8 * rng.binomial(2 * N, 0.5, size=n)) / 10
    return N


def _levels(law, *args):
    """``law(*args)``, or None where the two levels it builds coincide."""
    try:
        return law(*args)
    except DegenerateChannelError:
        return None


def _deterministic(e, sigma2_R):
    lo, hi = sorted(float(x) for x in e)
    return theory.DeterministicEnergies(qd_1=lo, qd_2=hi, sigma2_R=sigma2_R)


def _tone_levels(jam, ch, cfg):
    """Deterministic energy levels of tonal samples ``jam``, averaged over them.

    ``jam`` holds real tone samples ``s`` after the ``n_tau`` look-back of
    the delayed samples ``s_d``; the mean of ``|h12 a s + h3 s_d|^2`` is
    expanded into the mean products of the two.
    """
    n = jam.shape[0] - ch.n_tau
    s, s_d = jam[ch.n_tau:], jam[:n]
    ss = float(np.dot(s, s)) / n
    if ch.n_tau:
        dd, sd = float(np.dot(s_d, s_d)) / n, float(np.dot(s, s_d)) / n
    else:
        dd = sd = ss
    h12 = complex(ch.h1 * ch.h2)
    h3 = complex(ch.h3)
    cross = 2.0 * (h12 * h3.conjugate()).real
    return _deterministic([abs(h12) ** 2 * a * a * ss + abs(h3) ** 2 * dd
                           + a * cross * sd for a in (cfg.a1, cfg.a2)],
                          ch.sigma2_R)


def block_energies(jam_spec, ch, cfg, bits, rng, sample_offset=0, payload=0,
                   bases=None):
    """Per-symbol received energies of one block carrying ``bits``, and
    the law of the energies of its payload ``bits[payload:]``.

    ``bits`` is every symbol the block sends, starting at absolute sample
    ``sample_offset``: a preamble of ``payload`` symbols and then the
    payload, or the payload alone (``payload = 0``) when the threshold is
    not estimated.  Each energy averages ``|h1 h2 a_k j[n] + h3 j[n -
    n_tau] + z[n]|^2`` over the N samples of symbol k.

    With ``n_tau == 0`` a random or modulated jammer reaches the receiver
    as ``(h1 h2 a_k + h3) j[n]``, with independent samples, so each energy
    is drawn from its exact law after the channel and the payload bits,
    from the per-symbol pair computed once for the draw and the levels:

    - random broadband: every sample is CN(0, delta2_k), so the energy is
      Gamma(N, delta2_k / N), one ``rng`` draw per symbol; the levels are
      the ``ConditionalVariances`` (delta2_1, delta2_2);
    - BPSK, QPSK and 16QAM: given the window's jamming power
      ``S = sum |j|^2`` the energy is ``(sigma2_R / 2N)`` times a
      noncentral chi-square with 2N degrees of freedom and noncentrality
      ``2 qd_k S / (P_J sigma2_R)``, ``qd_k = jam_energy(ch, a_k, P_J)``
      (Urkowitz 1967).  S is ``N P_J`` for BPSK and QPSK, whose levels are
      the ``DeterministicEnergies`` (qd_1, qd_2); 16QAM draws S first from
      its binomial law, and its varying envelope has no closed form, so
      its levels are the conditional variances ``qd_k + sigma2_R``.  One
      ``noncentral_chisquare`` call per block.

    Tonal jammers, and every kind at ``n_tau > 0``, draw samples.  The
    jamming block covers samples ``[sample_offset - ch.n_tau, sample_offset
    + len(bits) * cfg.N)``: the ``n_tau`` look-back feeds the delayed
    jammer-to-receiver path, so tonal waveforms continue smoothly across
    consecutive blocks.  Tonal samples are synthesized from the phasors in
    ``bases``, a ``kernels.ToneBases`` store (None: built for this block
    alone), and their levels are the ``DeterministicEnergies`` of the
    payload's samples.  Receiver noise, CN(0, sigma2_R) per sample, is
    drawn from ``rng`` after the jamming samples.

    The levels are None where the two coincide, and for a non-tonal jammer
    at ``n_tau > 0``, whose relayed and direct paths do not add coherently.
    """
    bits = np.asarray(bits, dtype=np.int64)
    rng = np.random.default_rng(rng)
    kind, P_J = jam_spec.kind, jam_spec.power
    if ch.n_tau == 0 and kind is signals.JammerKind.RANDOM_BROADBAND:
        d2 = [theory.delta2(ch, a, P_J) for a in (cfg.a1, cfg.a2)]
        q = rng.standard_gamma(cfg.N, size=bits.shape[0]) \
            * (np.where(bits == 0, *d2) / cfg.N)
        return q, _levels(theory.ConditionalVariances, *d2)
    if ch.n_tau == 0 and kind.is_modulated:
        qd = [theory.jam_energy(ch, a, P_J) for a in (cfg.a1, cfg.a2)]
        s = _window_power(kind, cfg.N, bits.shape[0], rng)
        df = 2 * cfg.N
        q = rng.noncentral_chisquare(
            df, 2.0 * np.where(bits == 0, *qd) * s / ch.sigma2_R) \
            * (ch.sigma2_R / df)
        if kind is signals.JammerKind.MOD_16QAM:
            return q, _levels(theory.ConditionalVariances,
                              *(e + ch.sigma2_R for e in qd))
        return q, _levels(_deterministic, qd, ch.sigma2_R)
    amps_sym = np.where(bits == 0, float(cfg.a1), float(cfg.a2))
    n_tot = bits.shape[0] * cfg.N
    jam = signals.gen_jammer_block(jam_spec, n_tot + ch.n_tau,
                                   sample_offset - ch.n_tau, rng, bases)
    noise = signals.gen_cscg(ch.sigma2_R, n_tot, rng)
    q = kernels.compose_energies(jam[ch.n_tau:], jam[:n_tot], noise,
                                 amps_sym, ch.h1 * ch.h2, ch.h3, cfg.N)
    if not kind.is_tonal:
        return q, None
    return q, _levels(_tone_levels, jam[payload * cfg.N:], ch, cfg)


def estimate_threshold(preamble_energies, cfg):
    """The threshold mapped from the preamble's two estimated energy levels.

    The preamble alternates starting with '1', so '1'-symbol energies sit at
    even indexes and '0'-symbol energies at odd indexes; each level is the
    mean of its M/2 energies.  The two estimates then stand in for the two
    conditional variances of :func:`theory.optimal_threshold_random`, which
    orders them itself, so noise that swaps their order is harmless.

    Raises
    ------
    DegenerateThresholdError
        If the two estimated levels coincide.
    """
    q = np.asarray(preamble_energies, dtype=np.float64)
    if q.shape[0] != cfg.M:
        raise ValueError(f"expected {cfg.M} preamble energies, got {q.shape[0]}")
    q1_hat = float(q[0::2].mean())
    q0_hat = float(q[1::2].mean())
    if q0_hat == q1_hat:
        raise DegenerateThresholdError(
            "estimated energy levels coincide; threshold undefined this block")
    levels = theory.ConditionalVariances(q0_hat, q1_hat)
    return theory.optimal_threshold_random(levels, cfg.p1, cfg.p2, cfg.N)


def decode(energies, t_hat):
    """Slice energies against the threshold; ties decode to '0'."""
    q = np.asarray(energies, dtype=np.float64)
    return (q > t_hat).astype(np.int64)
