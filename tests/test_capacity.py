"""Binary-input mutual information and its maximization."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from jamlink import capacity as capacity_module
from jamlink import harness
from jamlink.capacity import (CapacityResult, capacity, dt_capacity,
                              mi_derivative, mutual_information)
from jamlink.errors import NumericalFailureError
from jamlink.theory import ConditionalVariances

V12 = ConditionalVariances(1.0, 2.0)


class TestMutualInformation:
    def test_endpoints_vanish(self):
        assert abs(mutual_information(0.0, V12)) < 1e-8
        assert abs(mutual_information(1.0, V12)) < 1e-8

    def test_frozen_high_ratio_value(self):
        # independently computed once with mpmath quadrature
        got = mutual_information(0.5, ConditionalVariances(1.0, 1e6))
        assert np.isclose(got, 0.9876199, atol=1e-4)

    def test_extreme_ratio_approaches_one_bit(self):
        got = mutual_information(0.5, ConditionalVariances(1.0, 1e12))
        assert got > 0.998

    def test_near_equal_variances_give_no_information(self):
        got = mutual_information(0.5, ConditionalVariances(1.0, 1.0 + 1e-12))
        assert abs(got) < 1e-8

    def test_bounded_by_one_bit(self):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            mi = mutual_information(p, ConditionalVariances(1.0, 25.0))
            assert 0.0 <= mi <= 1.0

    def test_concavity_in_p(self, rng):
        # I(lam p + (1-lam) q) >= lam I(p) + (1-lam) I(q)
        for _ in range(25):
            p, q = np.sort(rng.uniform(0.05, 0.95, 2))
            lam = rng.uniform(0.0, 1.0)
            mid = mutual_information(lam * p + (1 - lam) * q, V12)
            chord = (lam * mutual_information(p, V12)
                     + (1 - lam) * mutual_information(q, V12))
            assert mid >= chord - 1e-9

    def test_quadrature_doubling_stable(self):
        v = ConditionalVariances(1.0, 50.0)
        a = mutual_information(0.3, v)
        b = _fresh_quadrature(0.3, v, "real", False, points=8001)
        assert abs(a - b) < 1e-7

    def test_complex_model_endpoints(self):
        assert abs(mutual_information(0.0, V12, model="complex")) < 1e-8
        assert abs(mutual_information(1.0, V12, model="complex")) < 1e-8

    def test_complex_exceeds_real_at_midpoint(self):
        # the circularly symmetric observation carries both quadratures
        v = ConditionalVariances(1.0, 20.0)
        assert mutual_information(0.5, v, model="complex") \
            > mutual_information(0.5, v, model="real")


class TestMiDerivative:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("model", ["real", "complex"])
    def test_matches_finite_difference(self, p, model):
        h = 1e-5
        fd = (mutual_information(p + h, V12, model=model)
              - mutual_information(p - h, V12, model=model)) / (2 * h)
        an = mi_derivative(p, V12, model=model)
        assert np.isclose(an, fd, atol=5e-6)

    def test_decreasing_in_p(self):
        ps = np.linspace(0.1, 0.9, 9)
        ds = [mi_derivative(p, V12) for p in ps]
        assert all(a > b for a, b in zip(ds, ds[1:]))


def _fresh_quadrature(p, v, model, derivative, half_width_sigmas=12.0,
                      points=4001):
    # composite Simpson on two uniform panels, [0, 12 sigma_1] and
    # [12 sigma_1, 12 sigma_2], with the densities written out
    w = half_width_sigmas * math.sqrt(v.delta2_1)
    W = half_width_sigmas * math.sqrt(v.delta2_2)
    total = 0.0
    for y in (np.linspace(0.0, w, points), np.linspace(w, W, points)):
        if model == "real":
            a = stats.norm.pdf(y, scale=math.sqrt(v.delta2_1))
            b = stats.norm.pdf(y, scale=math.sqrt(v.delta2_2))
        else:
            a = np.exp(-y * y / v.delta2_1) / (math.pi * v.delta2_1)
            b = np.exp(-y * y / v.delta2_2) / (math.pi * v.delta2_2)
        f = p * a + (1.0 - p) * b
        log2f = np.where(f > 0, np.log2(np.where(f > 0, f, 1.0)), 0.0)
        weight = a - b if derivative else p * a + (1.0 - p) * b
        if model == "complex":
            weight = 2.0 * math.pi * y * weight
        total += integrate.simpson(weight * log2f, x=y)
    total = -2.0 * total if model == "real" else -total
    if derivative:
        c = 0.5 if model == "real" else 1.0
        return total - c * math.log2(v.delta2_1 / v.delta2_2)
    if model == "real":
        h1, h2 = (0.5 * math.log2(2.0 * math.pi * math.e * d)
                  for d in (v.delta2_1, v.delta2_2))
    else:
        h1, h2 = (math.log2(math.pi * math.e * d)
                  for d in (v.delta2_1, v.delta2_2))
    return total - p * h1 - (1.0 - p) * h2


class TestQuadrature:
    # the split Gauss-Legendre rule against Simpson on 2 x 8001 nodes
    @pytest.mark.parametrize("model", ["real", "complex"])
    @pytest.mark.parametrize("ratio", [1 + 1e-12, 1.25, 2.5, 900.0, 1e6, 1e12])
    def test_agrees_with_fine_simpson(self, ratio, model):
        for d1 in (0.3, 1.0, 200.0):
            v = ConditionalVariances(d1, d1 * ratio)
            for p in (0.0, 1e-9, 0.2, 0.5, 0.9, 1 - 1e-9, 1.0):
                ref = _fresh_quadrature(p, v, model, False, points=8001)
                assert abs(mutual_information(p, v, model) - ref) < 1e-9
                if 0.0 < p < 1.0:
                    ref = _fresh_quadrature(p, v, model, True, points=8001)
                    assert abs(mi_derivative(p, v, model) - ref) < 1e-9

    @pytest.mark.parametrize("model", ["real", "complex"])
    def test_crossover_near_origin(self, model):
        # p phi1(0) = (1 - p) phi2(0) puts y* at 0, where the transition
        # width is set by the curvature of the log-ratio, not its slope
        c = 0.5 if model == "real" else 1.0
        for ratio in (2.5, 30.0, 1e6):
            v = ConditionalVariances(1.0, ratio)
            odds = ratio ** -c
            for scale in (0.99, 1.0 - 1e-6, 1.0 + 1e-6, 1.01):
                p = scale * odds / (1.0 + odds)
                ref = _fresh_quadrature(p, v, model, True, points=8001)
                assert abs(mi_derivative(p, v, model) - ref) < 1e-9

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            mutual_information(0.5, V12, model="quaternion")


class TestBatch:
    # a row of a batch is computed as the one-row call, bit for bit
    PS = (0.0, 1e-9, 0.5, 1 - 1e-9, 1.0)
    RATIOS = (1 + 1e-12, 1.25, 2.5, 900.0, 1e6, 1e12)

    @pytest.mark.parametrize("model", ["real", "complex"])
    def test_array_p_equals_scalar_calls(self, model):
        for ratio in self.RATIOS:
            v = ConditionalVariances(0.3, 0.3 * ratio)
            ps = np.array(self.PS)
            mi = mutual_information(ps, v, model)
            slope = mi_derivative(ps, v, model)
            for i, p in enumerate(self.PS):
                assert mi[i] == mutual_information(p, v, model)
                assert slope[i] == mi_derivative(p, v, model)

    @pytest.mark.parametrize("model", ["real", "complex"])
    def test_mixed_channel_rows_equal_one_row_calls(self, model):
        # 90 rows of different channels: three passes of at most 32 rows
        rows = [(p, d1, d1 * ratio) for p in self.PS for ratio in self.RATIOS
                for d1 in (0.3, 1.0, 200.0)]
        p, d1, d2 = (np.array(col) for col in zip(*rows))
        assert p.size > 2 * capacity_module._PASS_ROWS
        mi = capacity_module._information(p, d1, d2, model)
        slope = capacity_module._derivative(p, d1, d2, model)
        for i, (pi, lo, hi) in enumerate(rows):
            v = ConditionalVariances(lo, hi)
            assert mi[i] == mutual_information(pi, v, model)
            assert slope[i] == mi_derivative(pi, v, model)

    def test_array_shape_and_scalar_type(self):
        ps = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        assert mutual_information(ps, V12).shape == (3, 4)
        assert mi_derivative(ps, V12).shape == (3, 4)
        assert type(mutual_information(0.5, V12)) is float
        assert type(mi_derivative(0.5, V12)) is float

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError, match="p must lie"):
            mutual_information(np.array([0.5, 1.5]), V12)
        with pytest.raises(ValueError, match="p must lie"):
            mutual_information(math.nan, V12)


class TestCapacity:
    def test_matches_grid_argmax(self):
        v = ConditionalVariances(1.0, 4.0)
        res = capacity(v)
        grid = np.linspace(1e-4, 1 - 1e-4, 10_001)
        mis = mutual_information(grid, v)
        i = mis.argmax()
        assert abs(res.p_star - grid[i]) < 2e-4
        assert res.capacity_bits >= mis[i] - 1e-9

    def test_frozen_example(self):
        res = capacity(V12)
        assert np.isclose(res.p_star, 0.54573, atol=2e-4)
        assert np.isclose(res.capacity_bits, 0.0400, atol=2e-4)

    def test_p_star_above_half(self):
        # the wider '1' level is costlier, so mass shifts toward '0'
        assert capacity(ConditionalVariances(1.0, 10.0)).p_star > 0.5

    def test_matches_tight_root_on_preset_channels(self, monkeypatch):
        # every channel fig7 and fig8 solve, each preset in one batched
        # solve, against a root to 1e-12
        derivative = capacity_module._derivative
        for name, count in (("fig7", 4), ("fig8", 121)):
            cfg = harness.preset_config(name)
            pjs = [10.0 ** (cfg.jnr_db_fixed / 10.0)] if name == "fig7" \
                else [10.0 ** (j / 10.0) for j in cfg.axis_values]
            vs = [harness._capacity_variances(cfg, s, pj)[0]
                  for s in cfg.snr_curves_db for pj in pjs]
            assert len(vs) == count
            rounds = []

            def counted(p, d1, d2, model):
                rounds.append(p.size)
                return derivative(p, d1, d2, model)

            with monkeypatch.context() as m:
                m.setattr(capacity_module, "_derivative", counted)
                results = capacity(vs, cfg.capacity_model)
            # one batched evaluation per lockstep round: both bracket ends
            # of every channel, then the channels still unsolved
            assert len(rounds) <= 11
            assert rounds[0] == 2 * count
            assert all(a >= b for a, b in zip(rounds, rounds[1:]))
            for v, res in zip(vs, results):
                def slope(p):
                    return mi_derivative(p, v, cfg.capacity_model)
                p_tight = optimize.brentq(slope, 1e-9, 1 - 1e-9, xtol=1e-12)
                # the lockstep solve is scipy's brentq, bit for bit
                assert res.p_star == optimize.brentq(slope, 1e-9, 1 - 1e-9,
                                                     xtol=1e-6)
                assert abs(res.p_star - p_tight) < 2e-6
                assert abs(res.capacity_bits - mutual_information(
                    p_tight, v, cfg.capacity_model)) < 1e-9

    def test_sequence_equals_single_channel_solves(self):
        vs = [ConditionalVariances(1.0, r) for r in (1.5, 4.0, 30.0, 1e6)]
        for model in ("real", "complex"):
            assert capacity(vs, model) == [capacity(v, model) for v in vs]
        assert capacity([]) == []

    def test_no_sign_change_is_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(capacity_module, "_derivative",
                            lambda p, d1, d2, model: np.ones_like(p))
        with pytest.raises(NumericalFailureError, match="change sign"):
            capacity(V12)

    def test_one_failing_channel_fails_the_batch(self, monkeypatch):
        derivative = capacity_module._derivative

        def flat_on_v12(p, d1, d2, model):
            return np.where(d2 == 2.0, 1.0, derivative(p, d1, d2, model))

        monkeypatch.setattr(capacity_module, "_derivative", flat_on_v12)
        batch = [ConditionalVariances(1.0, 4.0), V12]
        with pytest.raises(NumericalFailureError, match="change sign"):
            capacity(batch)

    def test_result_validation(self):
        with pytest.raises(ValueError):
            CapacityResult(p_star=1.5, capacity_bits=0.2)
        with pytest.raises(ValueError):
            CapacityResult(p_star=0.5, capacity_bits=1.2)


class TestDtCapacity:
    def test_jamming_free_hand_value(self):
        # log2(1 + 3/1) = 2
        assert np.isclose(dt_capacity(3.0, 0.0, 1.0), 2.0, rtol=1e-12)

    def test_jammed_hand_value(self):
        assert np.isclose(dt_capacity(30.0, 10.0, 1.0),
                          np.log2(1.0 + 30.0 / 11.0), rtol=1e-12)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            dt_capacity(-1.0, 0.0, 1.0)
