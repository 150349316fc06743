"""Hot numeric kernels, vectorized with numpy.

The Monte Carlo inner loop (compose the received block, integrate per-symbol
energy) and tone-sum synthesis dominate runtime.  All random numbers are
drawn by the caller through ``numpy.random.Generator`` before entering a
kernel, so the kernels themselves are deterministic.  ``BACKEND`` names the
implementation and is recorded in sweep metadata.
"""

import numpy as np

__all__ = ["BACKEND", "compose_energies", "tone_sum"]

BACKEND = "numpy"


def compose_energies(jam, jam_delayed, noise, amps, h12, h3, n_per_symbol):
    """Per-symbol average energies of h12*a*jam + h3*jam_delayed + noise.

    ``amps`` holds one amplification factor per symbol; each applies to
    ``n_per_symbol`` consecutive samples.
    """
    amps = np.asarray(amps, dtype=np.float64)
    n_per_symbol = int(n_per_symbol)
    a = np.repeat(amps, n_per_symbol)
    y = complex(h12) * a * jam + complex(h3) * jam_delayed + noise
    e = y.real * y.real + y.imag * y.imag
    return e.reshape(amps.shape[0], n_per_symbol).sum(axis=1) / n_per_symbol


def tone_sum(tone_amps, freqs, phases, start, n):
    """Real cosine sum: sum_j a_j*cos(2*pi*f_j*(start+m) + phi_j), m = 0..n-1."""
    tone_amps = np.asarray(tone_amps, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.float64)
    phases = np.asarray(phases, dtype=np.float64)
    start = int(start)
    m = np.arange(start, start + int(n), dtype=np.float64)
    arg = 2.0 * np.pi * freqs[:, None] * m[None, :] + phases[:, None]
    return (tone_amps[:, None] * np.cos(arg)).sum(axis=0)
