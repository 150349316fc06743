"""Kernels agree with the formulas they implement, written out by hand.

The references below restate each kernel's defining formula directly on
the same pre-drawn arrays.  ``tone_sum`` factors the sum and reduces each
phase exactly, so the references for long blocks and large offsets reduce
their phases exactly too; a float argument 2*pi*f*m is itself off by about
1e-16*m rad.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from jamlink import kernels


def _draw(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_backend_reported():
    assert kernels.BACKEND == "numpy"


def test_compose_energies_matches_numpy_reference(rng):
    n_per, nsym = 7, 400
    n = n_per * nsym
    jam, jd, nz = _draw(rng, n), _draw(rng, n), _draw(rng, n)
    amps = rng.uniform(0.0, 3.0, nsym)
    h12, h3 = 0.8 - 0.3j, -0.2 + 0.5j
    got = kernels.compose_energies(jam, jd, nz, amps, h12, h3, n_per)
    # each symbol amplitude held over its n_per samples
    y = h12 * np.repeat(amps, n_per) * jam + h3 * jd + nz
    want = (np.abs(y) ** 2).reshape(nsym, n_per).mean(axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_compose_energies_against_hand_formula(rng):
    # constant amplitude, explicit loop over samples
    n_per, nsym = 4, 50
    n = n_per * nsym
    jam, jd, nz = _draw(rng, n), _draw(rng, n), _draw(rng, n)
    amps = np.full(nsym, 1.7)
    h12, h3 = 0.5 + 0.1j, 0.9 - 0.4j
    y = h12 * 1.7 * jam + h3 * jd + nz
    want = (np.abs(y) ** 2).reshape(nsym, n_per).mean(axis=1)
    got = kernels.compose_energies(jam, jd, nz, amps, h12, h3, n_per)
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("n_tau", [0, 3])
def test_compose_energies_real_jam_matches_complex_copy(rng, n_tau):
    # the real path must give the bits of the complex path on the same
    # samples with zero imaginary part
    n_per, nsym = 10, 300
    n = n_per * nsym
    jam = rng.standard_normal(n + n_tau)
    nz = _draw(rng, n)
    amps = rng.choice([0.0, 0.6, 2.5], nsym)
    assert 0.0 in amps
    h12, h3 = 0.8 - 0.3j, -0.2 + 0.5j
    real = kernels.compose_energies(jam[n_tau:], jam[:n], nz, amps, h12, h3,
                                    n_per)
    cj = jam.astype(np.complex128)
    cplx = kernels.compose_energies(cj[n_tau:], cj[:n], nz, amps, h12, h3,
                                    n_per)
    assert np.array_equal(real, cplx)


def test_tone_sum_matches_numpy_reference(rng):
    amps = rng.uniform(0.1, 2.0, 6)
    freqs = rng.uniform(0.01, 0.49, 6)
    phases = rng.uniform(0.0, 2 * np.pi, 6)
    got = kernels.tone_sum(amps, freqs, phases, -13, 257)
    m = np.arange(-13, -13 + 257)
    want = np.zeros(257)
    for a, f, phi in zip(amps, freqs, phases):
        want += a * np.cos(2 * np.pi * f * m + phi)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_tone_sum_single_cosine():
    out = kernels.tone_sum(np.array([2.0]), np.array([0.125]),
                           np.array([np.pi / 2]), 0, 8)
    m = np.arange(8)
    np.testing.assert_allclose(
        out, 2.0 * np.cos(2 * np.pi * 0.125 * m + np.pi / 2), atol=1e-12)


def _exact_phase_tone_sum(amps, freqs, phases, start, n, turns):
    """sum_j a_j*cos(2*pi*f_j*m + phi_j) with ``turns(f_j, m)`` = f_j*m mod 1."""
    out = np.zeros(n)
    for a, f, phi in zip(amps, freqs, phases):
        t = np.array([turns(f, m) for m in range(start, start + n)])
        out += a * np.cos(2 * np.pi * t + phi)
    return out


def _int_turns(f, m):
    num, den = float(f).as_integer_ratio()
    return (num * m % den) / den


def _fraction_turns(f, m):
    return float(Fraction(float(f)) * m % 1)


@pytest.mark.parametrize("n", [1, 2, 3, 257, 10_100])
@pytest.mark.parametrize("start", [0, -4321])
@pytest.mark.parametrize("tones", [1, 5, 41])
def test_tone_sum_edge_shapes(rng, tones, start, n):
    # n = 257 is prime, so the rows x cols factoring overshoots n and the
    # tail is cut.  The reference reduces each phase exactly: at m ~ 1e4 the
    # float product 2*pi*f*m alone is off by several 1e-12 rad.
    amps = rng.uniform(0.1, 2.0, tones)
    freqs = rng.uniform(0.0, 0.5, tones)
    phases = rng.uniform(0.0, 2 * np.pi, tones)
    got = kernels.tone_sum(amps, freqs, phases, start, n)
    want = _exact_phase_tone_sum(amps, freqs, phases, start, n, _int_turns)
    assert got.shape == (n,)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("start", [0, 123_456_789, 2**31 + 1])
@pytest.mark.parametrize("tones", [1, 5, 41])
def test_tone_sum_from_stored_phasors_is_bit_identical(rng, monkeypatch,
                                                       tones, start):
    # a store hit at another power must give a fresh synthesis's bits
    built = []
    build = kernels._row_phasors
    monkeypatch.setattr(kernels, "_row_phasors",
                        lambda *args: built.append(args) or build(*args))
    amps = rng.uniform(0.1, 2.0, tones)
    freqs = rng.uniform(0.0, 0.5, tones)
    phases = rng.uniform(0.0, 2 * np.pi, tones)
    n = 10_100
    bases = kernels.ToneBases()
    for scale in (1.0, 3.7, 0.01):
        stored = kernels.tone_sum(scale * amps, freqs, phases, start, n,
                                  bases)
        fresh = kernels.tone_sum(scale * amps, freqs, phases, start, n)
        assert np.array_equal(stored, fresh)
    assert len(built) == 1 + 3  # one stored build, one per fresh call
    # another start is another block
    assert np.array_equal(
        kernels.tone_sum(amps, freqs, phases, start + 1, n, bases),
        kernels.tone_sum(amps, freqs, phases, start + 1, n))


def test_tone_bases_shared_by_threads(rng, monkeypatch):
    # more threads than cores, switching often, on a budget that keeps only
    # some blocks: every output keeps its bits and no byte of the budget is
    # lost or spent twice
    amps = rng.uniform(0.1, 2.0, 5)
    freqs = rng.uniform(0.0, 0.5, 5)
    phases = rng.uniform(0.0, 2 * np.pi, 5)
    n = 400
    starts = [k * n for k in range(12)]
    want = {s: kernels.tone_sum(amps, freqs, phases, s, n) for s in starts}
    # 400 samples split 20 x 20: one set of column phasors (turns, cos,
    # sin) and room for three blocks' row phasors (cos, sin), not four
    columns, rows = 5 * 8 + 2 * 5 * 20 * 8, 2 * 20 * 5 * 8
    monkeypatch.setattr(kernels, "_BASIS_BUDGET", columns + 3 * rows + 1)
    bases = kernels.ToneBases()
    budget = kernels._BASIS_BUDGET
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(
                lambda s: (s, kernels.tone_sum(amps, freqs, phases, s, n,
                                               bases)),
                starts * 20, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert all(np.array_equal(out, want[s]) for s, out in got)
    kept = sum(x.nbytes for value in bases._store.values() for x in value)
    assert 0 <= bases._free and kept + bases._free == budget
    assert len(bases._store) == 1 + 3


def test_tone_sum_large_offset_keeps_phase(rng):
    amps = rng.uniform(0.1, 1.0, 41)
    freqs = np.linspace(0.05, 0.45, 41)
    phases = rng.uniform(0.0, 2 * np.pi, 41)
    start, n = 120_000_000, 300
    got = kernels.tone_sum(amps, freqs, phases, start, n)
    want = _exact_phase_tone_sum(amps, freqs, phases, start, n,
                                 _fraction_turns)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * amps.sum())


def test_zero_noise_zero_amps_collapse(rng):
    # with amps 0 and h3 0 the energy is pure noise energy
    n_per, nsym = 5, 20
    n = n_per * nsym
    jam, jd = _draw(rng, n), _draw(rng, n)
    nz = np.zeros(n, dtype=complex)
    got = kernels.compose_energies(jam, jd, nz, np.zeros(nsym), 1.0, 0.0, n_per)
    np.testing.assert_allclose(got, 0.0, atol=1e-15)
