import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fran_d2d.model import SystemParams
from fran_d2d.ndt_formulas import (
    Regime,
    _branch_both_small,
    _branch_d2d_dominant,
    _branch_fronthaul_dominant,
    _ratio,
    classify_regime,
    delta_nd,
    delta_x,
    det_ndt,
    lower_bound,
    minimum_ndt,
    zf_compress_forward_ndt,
)


def params(mu, rf, rd):
    return SystemParams(mu=mu, r_f=rf, r_d=rd)


MU_GRID = [round(0.05 * k, 10) for k in range(21)]
RATE_GRID = [round(0.25 * k, 10) for k in range(13)]

# Zero is a meaningful rate; positive rates below 1e-6 only probe float
# overflow corners of algebraically equal expressions, not the model.
rates = st.one_of(
    st.just(0.0), st.floats(1e-6, 5.0, allow_nan=False, allow_infinity=False)
)
mus = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


class TestClassifyRegime:
    def test_examples(self):
        assert classify_regime(params(0.5, 0.5, 0.5)) is Regime.BOTH_SMALL
        assert classify_regime(params(0.5, 2.0, 1.0)) is Regime.FRONTHAUL_DOMINANT
        assert classify_regime(params(0.5, 0.0, 2.0)) is Regime.D2D_DOMINANT

    @given(rf=rates, rd=rates)
    def test_every_point_classifies(self, rf, rd):
        regime = classify_regime(params(0.5, rf, rd))
        if regime is Regime.FRONTHAUL_DOMINANT:
            assert rf >= max(1.0, rd)
        elif regime is Regime.D2D_DOMINANT:
            assert rd > max(1.0, rf)
        else:
            assert rf <= 1.0 and rd <= 1.0


class TestMinimumNdt:
    def test_full_cache_is_one_everywhere(self):
        for rf in RATE_GRID:
            for rd in RATE_GRID:
                assert minimum_ndt(params(1.0, rf, rd)) == pytest.approx(1.0)

    def test_half_cache_d2d(self):
        assert minimum_ndt(params(0.5, 0.0, 2.0)) == pytest.approx(1.25)
        assert minimum_ndt(params(0.5, 0.0, 2.0)) == pytest.approx(delta_x(2.0))

    def test_both_small_example(self):
        assert minimum_ndt(params(0.25, 0.5, 0.5)) == pytest.approx(2.25)

    def test_fronthaul_dominant_example(self):
        assert minimum_ndt(params(0.5, 2.0, 1.0)) == pytest.approx(1.25)

    def test_uncached_without_fronthaul_is_infeasible(self):
        assert minimum_ndt(params(0.25, 0.0, 0.5)) == math.inf
        assert minimum_ndt(params(0.0, 0.0, 3.0)) == math.inf

    @given(mu=mus, rf=rates, rd=rates)
    def test_floor(self, mu, rf, rd):
        assert minimum_ndt(params(mu, rf, rd)) >= 1.0 - 1e-12


class TestDeltaX:
    def test_values(self):
        assert delta_x(2.0) == pytest.approx(1.25)
        assert delta_x(1.0) == pytest.approx(1.5)
        assert delta_x(0.0) == math.inf

    def test_limit_is_one(self):
        assert delta_x(1e12) == pytest.approx(1.0, abs=1e-9)


class TestDeltaNd:
    def test_example(self):
        assert delta_nd(3, 2.0) == pytest.approx(2.25)

    def test_limit_in_layers(self):
        for rd in (0.5, 1.0, 2.0):
            prev = math.inf
            for nd in (3, 5, 11, 41, 401, 4001):
                v = delta_nd(nd, rd)
                assert v <= prev + 1e-12
                prev = v
            assert abs(prev - delta_x(rd)) < 1e-3

    def test_gap_bound(self):
        for rd in (0.25, 0.5, 1.0, 2.0, 3.0):
            for nd in (3, 5, 11, 21, 41):
                assert abs(delta_nd(nd, rd) - delta_x(rd)) <= 4.0 / (nd - 1)

    def test_infinite_d2d_limit(self):
        assert delta_nd(3, 1e15) == pytest.approx(2.0)

    @pytest.mark.parametrize("nd", [1, 2, 4, 10])
    def test_bad_layer_count_rejected(self, nd):
        with pytest.raises(ValueError):
            delta_nd(nd, 1.0)


class TestDetNdt:
    def test_example(self):
        assert det_ndt(5, 1.0) == pytest.approx(1.75)

    def test_limit_matches_delta_x(self):
        for rd in (0.5, 2.0):
            assert abs(det_ndt(4001, rd) - delta_x(rd)) < 1e-3

    def test_gap_bound(self):
        for rd in (0.25, 1.0, 3.0):
            for nd in (3, 5, 11, 21, 41):
                assert abs(det_ndt(nd, rd) - delta_x(rd)) <= 2.0 / nd

    def test_infinite_d2d_limit(self):
        assert det_ndt(3, 1e15) == pytest.approx(1.5)

    def test_bad_layer_count_rejected(self):
        with pytest.raises(ValueError):
            det_ndt(4, 1.0)


class TestZfCompressForward:
    def test_value(self):
        assert zf_compress_forward_ndt(2.0) == pytest.approx(1.5)
        assert zf_compress_forward_ndt(0.0) == math.inf

    def test_strictly_above_delta_x(self):
        for rd in RATE_GRID:
            if rd > 0:
                assert zf_compress_forward_ndt(rd) > delta_x(rd)

    def test_limit_is_one(self):
        assert zf_compress_forward_ndt(1e12) == pytest.approx(1.0, abs=1e-9)


class TestLowerBound:
    def test_no_d2d_half_cache(self):
        assert lower_bound(params(0.5, 0.0, 0.5)) == pytest.approx(1.5)

    def test_uncached_no_fronthaul(self):
        assert lower_bound(params(0.0, 0.0, 1.0)) == math.inf

    @given(mu=mus, rf=rates, rd=rates)
    def test_is_the_value_of_a_dual_certificate(self, mu, rf, rd):
        # (l1, l2, l3) = (1/rho, (1 - rf/rho) [i2 > 0], 1 - 1/rho) weighs
        # the cuts I1, I2, I3.  It is dual feasible: no duration's weighted
        # coefficients exceed its cost of 1.  So its dual objective bounds
        # every feasible schedule, and the converse is that objective.
        rho = max(1.0, rf, rd)
        i2 = float(_ratio(1.0 - 2.0 * mu, rf))
        l1, l2, l3 = 1.0 / rho, (1.0 - rf / rho) * (i2 > 0.0), 1.0 - 1.0 / rho
        assert min(l1, l2, l3) >= 0.0
        assert max(rf * l1 + l2, l1 + l3, rd * l1) <= 1.0 + 1e-15  # up to rounding
        bound = lower_bound(params(mu, rf, rd))
        if i2 == math.inf:
            assert bound == math.inf
        else:
            dual = (2.0 - mu) * l1 + (i2 * l2 if l2 else 0.0) + l3  # no -inf * 0
            assert bound == pytest.approx(max(1.0, dual), rel=1e-12)

    @given(mu=mus, rf=rates, rd=rates)
    def test_matches_minimum_everywhere(self, mu, rf, rd):
        a = minimum_ndt(params(mu, rf, rd))
        b = lower_bound(params(mu, rf, rd))
        if math.isinf(a) or math.isinf(b):
            assert a == b
        else:
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


class TestGridProperties:
    def test_monotone_in_each_argument(self):
        for rf in RATE_GRID[::3]:
            for rd in RATE_GRID[::3]:
                vals = [minimum_ndt(params(m, rf, rd)) for m in MU_GRID]
                assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        for mu in MU_GRID[::4]:
            for rd in RATE_GRID[::3]:
                vals = [minimum_ndt(params(mu, rf, rd)) for rf in RATE_GRID]
                assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            for rf in RATE_GRID[::3]:
                vals = [minimum_ndt(params(mu, rf, rd)) for rd in RATE_GRID]
                assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_d2d_irrelevant_below_threshold(self):
        for mu in MU_GRID:
            for rf in RATE_GRID:
                base = minimum_ndt(params(mu, rf, 0.0))
                for rd in RATE_GRID:
                    if rd <= max(1.0, rf):
                        val = minimum_ndt(params(mu, rf, rd))
                        assert val == base or (math.isinf(val) and math.isinf(base))

    def test_d2d_strictly_helps_above_threshold(self):
        for mu in MU_GRID:
            if not 0.0 < mu < 1.0:
                continue
            for rf in RATE_GRID:
                base = minimum_ndt(params(mu, rf, 0.0))
                for rd in RATE_GRID:
                    if rd > max(1.0, rf) and math.isfinite(base):
                        assert minimum_ndt(params(mu, rf, rd)) < base - 1e-12

    def test_fronthaul_free_above_half_cache(self):
        for mu in (0.55, 0.7, 0.9, 1.0):
            for rd in (1.25, 2.0, 3.0):
                vals = {
                    minimum_ndt(params(mu, rf, rd))
                    for rf in RATE_GRID
                    if rd > max(1.0, rf)
                }
                assert len(vals) == 1

    def test_branch_agreement_on_boundaries(self):
        for mu in MU_GRID:
            assert _branch_both_small(mu, 1.0) == pytest.approx(
                _branch_fronthaul_dominant(mu, 1.0)
            )
            for rf in (0.0, 0.25, 0.75, 1.0):
                a = _branch_both_small(mu, rf)
                b = _branch_d2d_dominant(mu, rf, 1.0)
                assert a == b or a == pytest.approx(b)
            for r in (1.0, 2.0, 3.0):
                assert _branch_fronthaul_dominant(mu, r) == pytest.approx(
                    _branch_d2d_dominant(mu, r, r)
                )

    def test_midpoint_convexity_in_mu(self):
        mus = [round(0.01 * k, 10) for k in range(101)]
        for rf in (0.25, 0.5, 1.0, 2.0):
            for rd in (0.0, 0.5, 2.0):
                vals = [minimum_ndt(params(m, rf, rd)) for m in mus]
                for i in range(1, len(vals) - 1):
                    assert vals[i - 1] + vals[i + 1] >= 2 * vals[i] - 1e-9


def _delta_nd_reference(n_d, r_d):
    lead = (n_d + 1.0) / (n_d - 1.0)
    return float(lead * (1.0 + _ratio(n_d - 1.0, 2.0 * r_d * (n_d + 1.0))))


def _det_ndt_reference(n_d, r_d):
    lead = n_d / (n_d - 1.0)
    return float(lead * (1.0 + _ratio(n_d - 1.0, 2.0 * r_d * n_d)))


def test_finite_layer_times_match_their_formulas_bit_for_bit():
    # 2^53 + 1 rounds to 2^53 as a float, so n_d + 1.0 and n_d + 1 differ there.
    layer_counts = [*range(3, 200, 2), 10**6 + 1, 2**53 + 1]
    rng = np.random.default_rng(16)
    rates = [0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 1e300, 1.7e308]
    rates += [*rng.uniform(0.0, 10.0, 10), *10.0 ** rng.uniform(-300.0, 300.0, 10)]
    for n_d in layer_counts:
        for r_d in rates:
            for got, want in (
                (delta_nd(n_d, r_d), _delta_nd_reference(n_d, r_d)),
                (det_ndt(n_d, r_d), _det_ndt_reference(n_d, r_d)),
            ):
                assert type(got) is float and got.hex() == want.hex(), (n_d, r_d)
