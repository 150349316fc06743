"""Discrete-time complex baseband jamming waveform generators.

Every generator works in cycles/sample and returns a 1-D numpy array (a
"sample block"): complex128 for random and modulated jamming, real float64
for tone sums.  Average power is controlled exactly for tone sets and
constant-envelope constellations, and statistically for Gaussian noise.

Tone placement convention: a tone layout is a center frequency plus a
bandwidth, both in cycles/sample, and ``J`` equal-amplitude tones are laid on
the inclusive uniform grid across ``[center - bw/2, center + bw/2]``.  The
default source band occupies ``[0.05, 0.45]``.
"""

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels

__all__ = [
    "SOURCE_BAND",
    "JammerKind",
    "ToneSet",
    "JammerSpec",
    "gen_cscg",
    "make_toneset",
    "gen_modulated",
    "prepare_jammer",
    "gen_jammer_block",
]

# Default occupancy of the protected source signal, cycles/sample.  Tone
# layout defaults and the narrow/broadband span checks are relative to it.
SOURCE_BAND = (0.05, 0.45)
_SOURCE_WIDTH = SOURCE_BAND[1] - SOURCE_BAND[0]

_POWER_RTOL = 1e-9


class JammerKind(enum.Enum):
    """Jamming waveform families understood by the toolkit."""

    RANDOM_BROADBAND = "random_broadband"
    SINGLE_TONE = "single_tone"
    MULTI_TONE = "multi_tone"
    NARROWBAND = "narrowband"
    DET_BROADBAND = "det_broadband"
    MOD_BPSK = "mod_bpsk"
    MOD_QPSK = "mod_qpsk"
    MOD_16QAM = "mod_16qam"

    @classmethod
    def parse(cls, name):
        """Map a config-file string (case-insensitive) to a kind."""
        key = str(name).strip().lower()
        for kind in cls:
            if key == kind.value:
                return kind
        raise ValueError(f"unknown jammer kind {name!r}; "
                         f"expected one of {[k.value for k in cls]}")

    @property
    def is_tonal(self):
        return self in (JammerKind.SINGLE_TONE, JammerKind.MULTI_TONE,
                        JammerKind.NARROWBAND, JammerKind.DET_BROADBAND)

    @property
    def is_modulated(self):
        return self in (JammerKind.MOD_BPSK, JammerKind.MOD_QPSK,
                        JammerKind.MOD_16QAM)


# Default tone layouts: kind -> (center, bandwidth, tone count).  The grids
# for multi-tone and deterministic broadband span the whole source band; the
# narrowband grid squeezes its tones into 1 percent of it.
DEFAULT_TONE_LAYOUTS = {
    JammerKind.SINGLE_TONE: (0.25, 0.0, 1),
    JammerKind.MULTI_TONE: (0.25, _SOURCE_WIDTH, 5),
    JammerKind.NARROWBAND: (0.25, 0.01 * _SOURCE_WIDTH, 5),
    JammerKind.DET_BROADBAND: (0.25, _SOURCE_WIDTH, 41),
}


@dataclass(frozen=True)
class ToneSet:
    """A fixed set of real cosine tones.

    Attributes
    ----------
    amps : ndarray
        Per-tone amplitudes, all >= 0.
    freqs : ndarray
        Per-tone frequencies in cycles/sample, each in [0, 0.5), distinct.
    phases : ndarray
        Per-tone phases in radians.
    """

    amps: np.ndarray
    freqs: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.float64)
        freqs = np.asarray(self.freqs, dtype=np.float64)
        phases = np.asarray(self.phases, dtype=np.float64)
        if amps.size == 0:
            raise ValueError("tone set must be non-empty")
        if not (amps.shape == freqs.shape == phases.shape):
            raise ValueError("amps, freqs and phases must have equal length")
        if np.any(amps < 0):
            raise ValueError("tone amplitudes must be >= 0")
        if np.any(freqs < 0) or np.any(freqs >= 0.5):
            raise ValueError("tone frequencies must lie in [0, 0.5) cycles/sample")
        if np.unique(freqs).size != freqs.size:
            raise ValueError("tone frequencies must be distinct")
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "phases", phases)

    @property
    def power(self):
        """Nominal average power sum(a_j^2) / 2."""
        return float(np.sum(self.amps ** 2) / 2.0)

    @property
    def span(self):
        """Width of the occupied band, max(f) - min(f)."""
        return float(self.freqs.max() - self.freqs.min())


@dataclass(frozen=True)
class JammerSpec:
    """Parametric description of one jamming waveform.

    Tonal kinds take their tone placement from ``DEFAULT_TONE_LAYOUTS``.
    ``toneset`` is filled in by :func:`prepare_jammer` (phases are drawn
    there, once per experiment) and must satisfy the declared power within
    1e-9 relative.
    """

    kind: JammerKind
    power: float
    toneset: ToneSet | None = field(default=None, compare=False)

    def __post_init__(self):
        if not isinstance(self.kind, JammerKind):
            object.__setattr__(self, "kind", JammerKind.parse(self.kind))
        if not self.power > 0:
            raise ValueError("jammer power must be > 0")
        if self.toneset is not None:
            self._check_toneset(self.toneset)

    def _check_toneset(self, ts):
        if not np.isclose(ts.power, self.power, rtol=_POWER_RTOL, atol=0.0):
            raise ValueError(
                f"tone set power {ts.power!r} does not match declared "
                f"power {self.power!r}")
        if self.kind is JammerKind.SINGLE_TONE and ts.amps.size != 1:
            raise ValueError("single-tone spec requires exactly one tone")
        if self.kind is JammerKind.NARROWBAND and ts.span > 0.01 * _SOURCE_WIDTH * (1 + 1e-12):
            raise ValueError("narrowband tone span exceeds 1 percent of the source band")
        if self.kind is JammerKind.DET_BROADBAND and ts.span < 0.1 * _SOURCE_WIDTH:
            raise ValueError("deterministic broadband span is below 10 percent of the source band")


def gen_cscg(P_J, n, rng):
    """Draw i.i.d. circularly symmetric complex Gaussian samples.

    Parameters
    ----------
    P_J : float
        Variance per complex sample (real and imaginary parts each carry
        half of it).  Must be > 0.
    n : int
        Number of samples, >= 1.
    rng : numpy.random.Generator or seed

    Returns
    -------
    ndarray
        Complex128 block of length ``n``.
    """
    if not P_J > 0:
        raise ValueError("P_J must be > 0")
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(rng)
    scale = np.sqrt(P_J / 2.0)
    z = rng.standard_normal((2, n))
    out = np.empty(n, dtype=np.complex128)
    np.multiply(z[0], scale, out=out.real)
    np.multiply(z[1], scale, out=out.imag)
    return out


def make_toneset(center_freq, bandwidth, J, P_J, rng):
    """Build an equal-amplitude tone set on a uniform inclusive grid.

    ``J`` tones are placed across ``[center_freq - bandwidth/2,
    center_freq + bandwidth/2]`` (a single tone sits at the center),
    amplitudes are all ``sqrt(2 P_J / J)`` so the nominal power is exactly
    ``P_J``, and phases are drawn uniformly from ``[0, 2*pi)``.

    Raises
    ------
    ValueError
        If the band leaves ``[0, 0.5)`` or the arguments are degenerate.
    """
    J = int(J)
    if J < 1:
        raise ValueError("J must be >= 1")
    if not P_J > 0:
        raise ValueError("P_J must be > 0")
    lo = center_freq - bandwidth / 2.0
    hi = center_freq + bandwidth / 2.0
    if lo < 0 or hi >= 0.5:
        raise ValueError(
            f"tone band [{lo}, {hi}] exceeds the representable range [0, 0.5)")
    freqs = np.full(1, center_freq) if J == 1 else np.linspace(lo, hi, J)
    rng = np.random.default_rng(rng)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=J)
    amps = np.full(J, np.sqrt(2.0 * P_J / J))
    ts = ToneSet(amps=amps, freqs=freqs, phases=phases)
    # belt and braces: the equal split must reproduce P_J to near machine
    assert np.isclose(ts.power, P_J, rtol=_POWER_RTOL, atol=0.0)
    return ts


_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
_16QAM_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0])
# mean energy of the 16 points is 10 before normalization
_16QAM = ((_16QAM_LEVELS[:, None] + 1j * _16QAM_LEVELS[None, :]) / np.sqrt(10.0)).ravel()


def gen_modulated(kind, P_J, n, rng):
    """Draw one uniform constellation symbol per sample, power ``P_J``.

    BPSK and QPSK are constant-envelope (|x|^2 = P_J exactly); 16QAM is
    normalized so the constellation average is ``P_J``.
    """
    kind = kind if isinstance(kind, JammerKind) else JammerKind.parse(kind)
    if not P_J > 0:
        raise ValueError("P_J must be > 0")
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(rng)
    root = np.sqrt(P_J)
    if kind is JammerKind.MOD_BPSK:
        return root * rng.choice(np.array([1.0, -1.0]), size=n).astype(np.complex128)
    if kind is JammerKind.MOD_QPSK:
        return root * rng.choice(_QPSK, size=n)
    if kind is JammerKind.MOD_16QAM:
        return root * rng.choice(_16QAM, size=n)
    raise ValueError(f"{kind.value} is not a modulated jamming kind")


def prepare_jammer(spec, rng):
    """Freeze a spec for one experiment.

    Tonal kinds get their tone set built here, drawing phases exactly once;
    the returned spec is then deterministic for the rest of the experiment.
    Other kinds pass through unchanged.
    """
    if spec.toneset is not None or not spec.kind.is_tonal:
        return spec
    center, bw, j = DEFAULT_TONE_LAYOUTS[spec.kind]
    ts = make_toneset(center, bw, j, spec.power, rng)
    return replace(spec, toneset=ts)


def gen_jammer_block(spec, n, sample_offset, rng, bases=None):
    """Generate samples ``[sample_offset, sample_offset + n)`` of a jammer.

    Tonal kinds are the real float64 tone sum
    ``sum_j a_j cos(2 pi f_j m + phi_j)`` at the absolute sample indexes
    ``m``, so consecutive blocks continue the same waveform instead of
    restarting it; ``bases``, a ``kernels.ToneBases`` store, reuses their
    phasors across calls.  Random and modulated kinds draw fresh complex
    samples from ``rng`` (their offset is immaterial by i.i.d.-ness).
    """
    if spec.kind is JammerKind.RANDOM_BROADBAND:
        return gen_cscg(spec.power, n, rng)
    if spec.kind.is_modulated:
        return gen_modulated(spec.kind, spec.power, n, rng)
    if spec.toneset is None:
        raise ValueError("tonal spec is not prepared; call prepare_jammer first")
    ts = spec.toneset
    return kernels.tone_sum(ts.amps, ts.freqs, ts.phases, sample_offset, n,
                            bases)
