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

The phasors do not depend on the amplitudes, so a caller that synthesizes
the same block of the same tone set at many jamming powers passes a
``ToneBases`` store to ``tone_sum``.  It keeps each block's row phasors,
keyed by the tones' frequencies and phases, the block start and its length,
and each length's column phasors once per frequency set; a later call is
then two scaled products and two small matrix products.  A store holds at
most ``_BASIS_BUDGET`` bytes (32 MiB).  Past that a block builds its
phasors and does not keep them, which gives the same bytes.  A store lives
as long as its caller holds it: ``harness.run_ber_sweep`` makes one per
sweep over JNR, which for the full fig2 preset keeps about 8.4 MB.  A sweep
over N makes none, since no block recurs there.
"""

import math
import threading

import numpy as np

__all__ = ["BACKEND", "ToneBases", "compose_energies", "tone_sum"]

BACKEND = "numpy"

_BASIS_BUDGET = 32 << 20  # bytes of phasors one ToneBases store keeps


def compose_energies(jam, jam_delayed, noise, amps, h12, h3, n_per_symbol):
    """Per-symbol average energies of h12*a*jam + h3*jam_delayed + noise.

    ``amps`` holds one amplification factor per symbol; each applies to
    ``n_per_symbol`` consecutive samples.  A real ``jam`` and
    ``jam_delayed`` (tone sums) are composed in real arithmetic, part by
    part in the complex path's operation order, in one preallocated buffer,
    so they give the same bits as their complex copies with zero imaginary
    part.
    """
    amps = np.asarray(amps, dtype=np.float64)
    nsym, n_per_symbol = amps.shape[0], int(n_per_symbol)
    a = np.repeat(amps, n_per_symbol)
    h12, h3 = complex(h12), complex(h3)
    if np.iscomplexobj(jam) or np.iscomplexobj(jam_delayed):
        y = h12 * a * jam + h3 * jam_delayed + noise
        e = y.real * y.real + y.imag * y.imag
    else:
        y = np.empty((2, a.shape[0]))
        scratch = np.empty(a.shape[0])
        for row, g12, g3, z in ((y[0], h12.real, h3.real, noise.real),
                                (y[1], h12.imag, h3.imag, noise.imag)):
            np.multiply(g12, a, out=row)
            row *= jam
            row += np.multiply(g3, jam_delayed, out=scratch)
            row += z
        np.square(y, out=y)
        e = np.add(y[0], y[1], out=y[0])
    return e.reshape(nsym, n_per_symbol).sum(axis=1) / n_per_symbol


def _turns(freqs, m):
    """frac(f_j * m) for an integer m, exact before the final rounding."""
    out = np.empty(freqs.shape[0])
    for j, f in enumerate(freqs.tolist()):
        num, den = f.as_integer_ratio()
        out[j] = (num * m % den) / den
    return out


def _grid(n):
    """(rows, cols) of the ``m = r*cols + k`` split of n samples."""
    cols = max(1, math.isqrt(n))
    return -(-n // cols), cols


def _column_phasors(freqs, n):
    """(frac(f_j*cols), cos w, sin w) for blocks of n samples."""
    cols = _grid(n)[1]
    w = 2.0 * np.pi * np.outer(freqs, np.arange(cols))
    return _turns(freqs, cols), np.cos(w), np.sin(w)


def _row_phasors(freqs, phases, start, n, col_turns):
    """(cos theta, sin theta) for the block of n samples at ``start``."""
    row_turns = (np.outer(np.arange(_grid(n)[0]), col_turns)
                 + _turns(freqs, start)) % 1.0
    theta = 2.0 * np.pi * row_turns + phases
    return np.cos(theta), np.sin(theta)


class ToneBases:
    """Tone phasors kept across ``tone_sum`` calls, up to a byte budget.

    Safe to share between threads: two threads that miss the same key both
    build it, and the store keeps one copy.
    """

    def __init__(self):
        self._store = {}
        self._free = _BASIS_BUDGET
        self._lock = threading.Lock()

    def _get(self, key, build, *args):
        value = self._store.get(key)
        if value is None:
            value = build(*args)
            size = sum(x.nbytes for x in value)
            with self._lock:
                if key not in self._store and size <= self._free:
                    self._store[key] = value
                    self._free -= size
        return value

    def phasors(self, freqs, phases, start, n):
        """(cos theta, sin theta, cos w, sin w) of one block."""
        tones = freqs.tobytes()
        col_turns, cos_w, sin_w = self._get((tones, n), _column_phasors,
                                            freqs, n)
        cos_t, sin_t = self._get((tones, phases.tobytes(), start, n),
                                 _row_phasors, freqs, phases, start, n,
                                 col_turns)
        return cos_t, sin_t, cos_w, sin_w


def tone_sum(tone_amps, freqs, phases, start, n, bases=None):
    """Real cosine sum: sum_j a_j*cos(2*pi*f_j*(start+m) + phi_j), m = 0..n-1.

    With ``m = r*cols + k`` the output is ``Re(((L * c) @ T).ravel()[:n])``
    where ``c_j = a_j*exp(i*(2*pi*frac(f_j*start) + phi_j))``,
    ``L[r, j] = exp(2*pi*i*frac(f_j*r*cols))`` and ``T[j, k] =
    exp(2*pi*i*f_j*k)``.  Only the real part is needed, so the product is
    taken as two real ones, ``(a*cos(theta)) @ cos(w) - (a*sin(theta)) @
    sin(w)`` with ``theta`` the phase of ``L * c / a`` and ``w`` that of
    ``T``.  ``frac(f_j*start)`` and ``frac(f_j*cols)`` come from the exact
    binary fraction of ``f_j``; the error stays near 1e-13 of sum(a) for any
    ``start``.  ``bases``, a ``ToneBases`` store, reuses the phasors of an
    earlier call on the same block; without one they are built for this
    call alone.  The output bits are the same either way.
    """
    tone_amps = np.asarray(tone_amps, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.float64)
    phases = np.asarray(phases, dtype=np.float64)
    start, n = int(start), int(n)
    bases = ToneBases() if bases is None else bases
    cos_t, sin_t, cos_w, sin_w = bases.phasors(freqs, phases, start, n)
    out = (tone_amps * cos_t) @ cos_w - (tone_amps * sin_t) @ sin_w
    return out.ravel()[:n]
