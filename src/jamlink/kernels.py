"""Hot numeric kernels, vectorized with numpy.

The Monte Carlo inner loop (compose the received block, integrate per-symbol
energy) and tone-sum synthesis dominate runtime.  All random numbers are
drawn by the caller through ``numpy.random.Generator`` before entering a
kernel, so the kernels themselves are deterministic.  ``BACKEND`` names the
implementation; perfbench records it on its ``env`` line.

``tone_sum`` never forms the J x n matrix of cosine arguments.  It splits
each sample index as ``m = r*cols + k`` with ``cols`` about sqrt(n), so a
tone's phasor factors into a row phasor times a column phasor and the whole
block is one small matrix product: O(J*sqrt(n)) cosines and sines instead
of J*n.  The phase at the block start and the phase step from one row to
the next are reduced modulo one cycle exactly, in integer arithmetic on each
frequency's binary fraction, so the error does not grow with the absolute
sample offset.
"""

import math

import numpy as np

__all__ = ["BACKEND", "compose_energies", "tone_sum"]

BACKEND = "numpy"


def compose_energies(jam, jam_delayed, noise, amps, h12, h3, n_per_symbol):
    """Per-symbol average energies of h12*a*jam + h3*jam_delayed + noise.

    ``amps`` holds one amplification factor per symbol; each applies to
    ``n_per_symbol`` consecutive samples.  A real ``jam`` and
    ``jam_delayed`` (tone sums) are composed in real arithmetic, part by
    part in the complex path's operation order, so they give the same bits
    as their complex copies with zero imaginary part.
    """
    amps = np.asarray(amps, dtype=np.float64)
    n_per_symbol = int(n_per_symbol)
    a = np.repeat(amps, n_per_symbol)
    h12, h3 = complex(h12), complex(h3)
    if np.iscomplexobj(jam) or np.iscomplexobj(jam_delayed):
        y = h12 * a * jam + h3 * jam_delayed + noise
        y_re, y_im = y.real, y.imag
    else:
        y_re = h12.real * a * jam + h3.real * jam_delayed + noise.real
        y_im = h12.imag * a * jam + h3.imag * jam_delayed + noise.imag
    e = y_re * y_re + y_im * y_im
    return e.reshape(amps.shape[0], n_per_symbol).sum(axis=1) / n_per_symbol


def _turns(freqs, m):
    """frac(f_j * m) for an integer m, exact before the final rounding."""
    out = np.empty(freqs.shape[0])
    for j, f in enumerate(freqs.tolist()):
        num, den = f.as_integer_ratio()
        out[j] = (num * m % den) / den
    return out


def tone_sum(tone_amps, freqs, phases, start, n):
    """Real cosine sum: sum_j a_j*cos(2*pi*f_j*(start+m) + phi_j), m = 0..n-1.

    With ``m = r*cols + k`` the output is ``Re(((L * c) @ T).ravel()[:n])``
    where ``c_j = a_j*exp(i*(2*pi*frac(f_j*start) + phi_j))``,
    ``L[r, j] = exp(2*pi*i*frac(f_j*r*cols))`` and ``T[j, k] =
    exp(2*pi*i*f_j*k)``.  Only the real part is needed, so the product is
    taken as two real ones, ``cos(theta) @ cos(w) - sin(theta) @ sin(w)``
    with ``theta`` the phase of ``L * c`` and ``w`` that of ``T``.
    ``frac(f_j*start)`` and ``frac(f_j*cols)`` come from the exact binary
    fraction of ``f_j``; the error stays near 1e-13 of sum(a) for any
    ``start``.
    """
    tone_amps = np.asarray(tone_amps, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.float64)
    phases = np.asarray(phases, dtype=np.float64)
    start, n = int(start), int(n)
    cols = max(1, math.isqrt(n))
    rows = -(-n // cols)
    row_turns = (np.outer(np.arange(rows), _turns(freqs, cols))
                 + _turns(freqs, start)) % 1.0
    theta = 2.0 * np.pi * row_turns + phases
    w = 2.0 * np.pi * np.outer(freqs, np.arange(cols))
    out = (tone_amps * np.cos(theta)) @ np.cos(w) \
        - (tone_amps * np.sin(theta)) @ np.sin(w)
    return out.ravel()[:n]
