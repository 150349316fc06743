"""Kernels agree with the formulas they implement, written out by hand.

The references below restate each kernel's defining formula directly on
the same pre-drawn arrays.  ``tone_sum`` factors the sum and reduces each
phase exactly, so the references for long blocks and large offsets reduce
their phases exactly too; a float argument 2*pi*f*m is itself off by about
1e-16*m rad.
"""

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
