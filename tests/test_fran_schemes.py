import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fran_d2d import det_xchannel, fran_schemes, real_ia
from fran_d2d.model import DemandVector, SystemParams
from fran_d2d.ndt_formulas import det_ndt, lower_bound_grid, minimum_ndt, minimum_ndt_grid
from fran_d2d.fran_schemes import (
    CORNER_MUS,
    RUNNERS,
    SCHEMES,
    _bits_to_int,
    _half_cache_files,
    _half_cache_layers,
    _int_to_bits,
    _qam_points,
    _qam_spacing,
    _quantize_uniform,
    _slice_pam,
    _zf_block,
    best_achievable,
    best_achievable_grid,
    cache_placement,
    run_end_to_end,
)

MU_GRID = [round(0.05 * k, 10) for k in range(21)]
RATE_GRID = [round(0.25 * k, 10) for k in range(13)]
# The runners of the scheme table and their cache corners.
FOUR_CORNERS = tuple((runner, row.mu_corner) for runner, row in RUNNERS.items())
ZF_CORNERS = {r: mu for r, mu in FOUR_CORNERS if r in ("cache_zf", "soft_transfer")}


def _qam_axis(bits_per_dim):
    """Every point of the PAM axis, which the runners never build."""
    return _qam_points(bits_per_dim, np.arange(2**bits_per_dim))


class TestCachePlacement:
    def test_full_cache_holds_everything(self):
        p = cache_placement(1.0, n_files=3, file_bits=100)
        assert p.cached_bits(0) == 300 == p.cached_bits(1)
        assert p.cached_bits(0) == p.capacity_bits

    def test_half_cache_meets_capacity_exactly(self):
        p = cache_placement(0.5, n_files=2, file_bits=1000)
        assert p.cached_bits(0) == 1000 == p.cached_bits(1)
        assert p.ranges[0][0] == (0, 500)
        assert p.ranges[1][1] == (500, 1000)
        assert p.cached_bits(0) == p.capacity_bits

    def test_empty_cache(self):
        p = cache_placement(0.0, n_files=2, file_bits=64)
        assert p.cached_bits(0) == 0 == p.cached_bits(1)

    def test_interior_mu_rejected(self):
        with pytest.raises(ValueError):
            cache_placement(0.3, 2, 100)

    def test_odd_file_size_rejected_at_half(self):
        with pytest.raises(ValueError):
            cache_placement(0.5, 2, 101)


def _half_cache_choice(r_f, r_d):
    """The one scheme and the delivery time that ``best_achievable`` picks at mu = 1/2."""
    mix, ndt = best_achievable(SystemParams(mu=0.5, r_f=r_f, r_d=r_d))
    (component,) = mix.components
    assert component.mu_corner == 0.5 and component.fraction == 1.0
    return component.scheme, ndt


class TestHalfCacheSelection:
    def test_alignment_alone_without_links(self):
        assert _half_cache_choice(0.0, 0.0) == ("ia_no_d2d", 1.5)

    def test_d2d_wins_with_strong_link(self):
        assert _half_cache_choice(0.0, 2.0) == ("d2d_x", 1.25)

    def test_fronthaul_wins_when_d2d_absent(self):
        assert _half_cache_choice(2.0, 0.0) == ("fronthaul_zf_mix", 1.25)

    def test_alignment_wins_when_both_weak(self):
        assert _half_cache_choice(0.5, 0.5) == ("ia_no_d2d", 1.5)

    def test_a_three_way_tie_keeps_alignment(self):
        # 3/2 = 1 + 1/(2 r_f) = 1 + 1/(2 r_d): the first row of the corner stays.
        assert _half_cache_choice(1.0, 1.0) == ("ia_no_d2d", 1.5)

    def test_a_fronthaul_d2d_tie_keeps_the_fronthaul_mix(self):
        assert _half_cache_choice(2.0, 2.0) == ("fronthaul_zf_mix", 1.25)


class TestBestAchievable:
    def test_interior_mix_example(self):
        mix, ndt = best_achievable(SystemParams(mu=0.75, r_f=0.0, r_d=0.0))
        assert ndt == pytest.approx(1.25)
        schemes = {c.scheme: c.fraction for c in mix.components}
        assert schemes == {"ia_no_d2d": 0.5, "cache_zf": 0.5}

    def test_low_cache_mix_example(self):
        mix, ndt = best_achievable(SystemParams(mu=0.25, r_f=0.5, r_d=0.5))
        assert ndt == pytest.approx(2.25)
        assert ndt == pytest.approx(minimum_ndt(SystemParams(mu=0.25, r_f=0.5, r_d=0.5)))

    def test_full_cache_pure_zf(self):
        for rf in (0.0, 1.0, 3.0):
            mix, ndt = best_achievable(SystemParams(mu=1.0, r_f=rf, r_d=2.0))
            assert ndt == 1.0
            assert [c.scheme for c in mix.components] == ["cache_zf"]

    def test_infeasible_point_empty_mix(self):
        mix, ndt = best_achievable(SystemParams(mu=0.25, r_f=0.0, r_d=0.5))
        assert ndt == math.inf and mix.components == ()

    def test_matches_closed_form_on_grid(self):
        mu, rf, rd = np.meshgrid(MU_GRID, RATE_GRID, RATE_GRID, indexing="ij")
        ach = best_achievable_grid(mu, rf, rd).ndt
        for want in (minimum_ndt_grid(mu, rf, rd), lower_bound_grid(mu, rf, rd)):
            inf = np.isinf(want)
            assert np.isinf(ach[inf]).all()
            np.testing.assert_allclose(ach[~inf], want[~inf], rtol=0.0, atol=1e-9)

    def test_mix_weights_average_to_mu(self):
        for mu in (0.1, 0.35, 0.6, 0.85):
            mix, _ = best_achievable(SystemParams(mu=mu, r_f=1.0, r_d=2.0))
            avg = sum(c.fraction * c.mu_corner for c in mix.components)
            assert avg == pytest.approx(mu)
            assert sum(c.fraction for c in mix.components) == pytest.approx(1.0)

    def test_no_fronthaul_schemes_in_d2d_regime(self):
        for mu in (0.5, 0.65, 0.9, 1.0):
            for rf in (0.0, 0.5, 1.0):
                for rd in (1.25, 2.0, 3.0):
                    if rd <= max(1.0, rf):
                        continue
                    mix, _ = best_achievable(SystemParams(mu=mu, r_f=rf, r_d=rd))
                    assert not mix.uses_fronthaul()


def _x_channel_estimate(file_bits, n_d, r_d, width, log2p, element_bits):
    """``ndt_estimate`` of the X-channel runners, from their docstrings."""
    uses = math.ceil(math.ceil((file_bits / 2) / width) / ((n_d - 1) / 2))
    return uses * (log2p + element_bits * (n_d - 1) / (2 * r_d)) / file_bits


# The finite-P ``ndt_estimate`` that a runner's docstring states, from the
# run's file size, power, r_d and report details.  Soft transfer has none.
FINITE_P_ESTIMATES = {
    "cache_zf": lambda file_bits, power, r_d, details: (  # 2 floor(log2 P / 2) bits per use
        math.ceil(file_bits / (2 * math.floor(math.log2(power) / 2)))
        * math.log2(power) / file_bits
    ),
    "d2d_det": lambda file_bits, power, r_d, details: _x_channel_estimate(
        file_bits, details["n_d"], r_d, 1, details["n_d"], 1
    ),
    "d2d_ia": lambda file_bits, power, r_d, details: _x_channel_estimate(
        file_bits, details["n_d"], r_d, math.log2(details["q"]), math.log2(power),
        math.log2(2 * details["q"]),
    ),
}


class TestSchemeTable:
    """Every row of ``SCHEMES`` against the closed forms and its runners."""

    def test_names_and_runners_are_unique_and_the_corners_sorted(self):
        names = [row.name for row in SCHEMES]
        assert len(set(names)) == len(names)
        assert list(RUNNERS) == [runner for row in SCHEMES for runner in row.runners]
        assert CORNER_MUS == (0.0, 0.5, 1.0)

    def test_each_corner_is_its_best_row_in_closed_form(self):
        # ``minimum_ndt`` reads no table: at each corner it equals the least
        # of that corner's rows, so no row is missing or too slow.
        rates = np.array(RATE_GRID)
        rf, rd = (a.ravel() for a in np.meshgrid(rates, rates, indexing="ij"))
        for mu in CORNER_MUS:
            with np.errstate(divide="ignore"):
                values = [
                    np.broadcast_to(row.ndt(rf, rd), rf.shape)
                    for row in SCHEMES
                    if row.mu_corner == mu
                ]
            want = minimum_ndt_grid(np.full(rf.shape, mu), rf, rd)
            np.testing.assert_allclose(np.min(values, axis=0), want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("runner", list(RUNNERS))
    def test_each_runner_runs_only_at_its_rows_corner(self, runner):
        row = RUNNERS[runner]
        at = SystemParams(mu=row.mu_corner, r_f=1.0, r_d=2.0, file_bits=400, power=2.0**16)
        assert run_end_to_end(at, 0, runner).exact
        for mu in sorted({*CORNER_MUS, 0.25} - {row.mu_corner}):
            message = f"scheme {runner} runs at mu = {row.mu_corner}, got {mu}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run_end_to_end(dataclasses.replace(at, mu=mu), 0, runner)

    @pytest.mark.parametrize(
        "name", ["carrier_pigeon", *(row.name for row in SCHEMES if row.name not in RUNNERS)]
    )
    def test_a_name_that_no_row_runs_is_unknown(self, name):
        p = SystemParams(mu=0.5, r_f=1.0, r_d=1.0)
        with pytest.raises(ValueError, match=f"^unknown scheme {re.escape(repr(name))}$"):
            run_end_to_end(p, 0, name)

    @pytest.mark.parametrize("runner", list(RUNNERS))
    def test_each_runner_meets_its_row_and_its_finite_power_formula(self, runner):
        row = RUNNERS[runner]
        formula = FINITE_P_ESTIMATES.get(runner)
        assert formula is not None or runner == "soft_transfer"
        for r_f, r_d in ((0.5, 0.5), (0.5, 2.0), (2.0, 0.5), (2.0, 2.0)):
            value = float(row.ndt(np.float64(r_f), np.float64(r_d)))
            for power in (2.0**16, 2.0**24):
                for file_bits in (1000, 14):
                    params = SystemParams(
                        mu=row.mu_corner, r_f=r_f, r_d=r_d, file_bits=file_bits, power=power
                    )
                    for seed in (0, 1):
                        report = run_end_to_end(params, seed, runner)
                        case = (r_f, r_d, power, file_bits, seed)
                        assert report.exact and report.ndt_estimate >= value, case
                        if formula is not None:
                            want = formula(file_bits, power, r_d, report.details)
                            assert report.ndt_estimate == pytest.approx(want, rel=1e-12), case


class TestRunEndToEnd:
    def test_cache_zf_exact_and_near_unit_ndt(self):
        p = SystemParams(mu=1.0, r_f=0.0, r_d=0.0, file_bits=500, power=2.0**20)
        for seed in range(5):
            r = run_end_to_end(p, seed, "cache_zf")
            assert r.exact
            assert abs(r.ndt_estimate - 1.0) < 0.25

    @pytest.mark.parametrize("power", (1.5, 2.0, 3.0, 3.99))
    def test_cache_zf_rejects_power_below_four(self, power):
        # Below P = 4 even one bit per real dimension (2 bits per use) exceeds
        # log2(P), which would report an NDT below the converse.  P = 4 itself
        # delivers: see the gap formula test below.
        p = SystemParams(mu=1.0, r_f=1.0, r_d=0.0, file_bits=1000, power=power)
        with pytest.raises(ValueError, match="power too small"):
            run_end_to_end(p, 0, "cache_zf")

    @pytest.mark.parametrize(
        "power", (4.0, 6.5, 2.0**4, 2.0**5, 2.0**16, 2.0**24, 2.0**32, 2.0**40)
    )
    def test_cache_zf_finite_power_gap_formula(self, power):
        # b = 2 floor(log2(P) / 2) bits per use, so the estimate is
        # ceil(L / b) log2(P) / L: the rounding of the bit load plus the
        # padding of the last use.
        log2p = math.log2(power)
        b = 2 * math.floor(log2p / 2.0)
        for file_bits in (1000, 4000, 14, 1):
            p = SystemParams(mu=1.0, r_f=0.0, r_d=0.0, file_bits=file_bits, power=power)
            for seed in range(3):
                r = run_end_to_end(p, seed, "cache_zf")
                assert r.exact and r.details["bits_per_use"] == b
                assert r.ndt_estimate == math.ceil(file_bits / b) * log2p / file_bits

    def test_soft_transfer_exact(self):
        p = SystemParams(mu=0.0, r_f=0.5, r_d=0.0, file_bits=500, power=2.0**20)
        for seed in range(5):
            r = run_end_to_end(p, seed, "soft_transfer")
            assert r.exact
            assert r.latency.t_f == pytest.approx(r.latency.t_e / 0.5)

    @pytest.mark.parametrize("exponent", (15, 16, 17))
    def test_soft_transfer_charges_the_bits_it_sends(self, monkeypatch, exponent):
        # Each EN ships a level index per real dimension of every precoded
        # sample: 2 ceil(log2 P / 2) bits per use, one more than log2 P
        # when log2 P is odd.  The fronthaul carries r_f log2 P bits per
        # unit of time.
        sent = []
        quantize = fran_schemes._quantize_uniform

        def counting(x, half_range, n_levels):
            sent.append(x.size // 2 * math.log2(n_levels))  # per EN
            return quantize(x, half_range, n_levels)

        monkeypatch.setattr(fran_schemes, "_quantize_uniform", counting)
        p = SystemParams(mu=0.0, r_f=1.0, r_d=0.0, file_bits=4096, power=2.0**exponent)
        r = run_end_to_end(p, 0, "soft_transfer")
        assert r.exact and len(sent) == 1
        assert sent[0] == {15: 8192, 16: 8192, 17: 7380}[exponent]
        assert r.latency.t_f * p.r_f * exponent == pytest.approx(sent[0], rel=1e-12)
        if exponent % 2 == 0:
            assert r.latency.t_f == r.latency.t_e / p.r_f

    def test_d2d_det_exact_with_matching_ndt(self):
        p = SystemParams(mu=0.5, r_f=0.0, r_d=1.0, file_bits=500, power=2.0**5)
        r = run_end_to_end(p, 0, "d2d_det")
        assert r.exact
        assert r.ndt_estimate == pytest.approx(det_ndt(5, 1.0))

    def test_d2d_ia_exact(self):
        p = SystemParams(mu=0.5, r_f=0.0, r_d=2.0, file_bits=400, power=2.0**16)
        for seed in range(3):
            r = run_end_to_end(p, seed, "d2d_ia")
            assert r.exact

    @pytest.mark.parametrize("power", [2.0**32, 2.0**40])
    def test_d2d_ia_exact_at_high_power(self, power):
        # Seed 0 takes q = 64 at 2^32 and 256 at 2^40, so its whole aligned
        # set, q^2 (2q-1)^2, is above the search cap; the solver's q^2 outer
        # sums are not.
        p = SystemParams(mu=0.5, r_f=0.0, r_d=2.0, file_bits=400, power=power)
        for seed in range(3):
            r = run_end_to_end(p, seed, "d2d_ia")
            assert r.exact and r.mismatched_bits == 0
            if seed == 0:
                q = r.details["q"]
                assert q * q * (2 * q - 1) ** 2 > 10**7

    def test_same_file_demand_no_worse(self):
        p = SystemParams(mu=0.5, r_f=0.0, r_d=2.0, file_bits=400, power=2.0**16)
        worst = run_end_to_end(p, 1, "d2d_ia", demand=DemandVector(0, 1))
        same = run_end_to_end(p, 1, "d2d_ia", demand=DemandVector(1, 1))
        assert same.exact
        assert same.latency.total <= worst.latency.total + 1e-12

    def test_same_file_demand_det_path(self):
        p = SystemParams(mu=0.5, r_f=0.0, r_d=1.0, file_bits=480, power=2.0**5)
        worst = run_end_to_end(p, 2, "d2d_det", demand=DemandVector(0, 1))
        same = run_end_to_end(p, 2, "d2d_det", demand=DemandVector(0, 0))
        assert worst.exact and same.exact
        assert same.latency.total == worst.latency.total

    @pytest.mark.parametrize("scheme", ["d2d_det", "d2d_ia"])
    def test_d2d_runners_send_only_cached_bits(self, monkeypatch, scheme):
        # EN 2's placement loses the last bit of file 1, UE 2's demand.
        # run_end_to_end draws seed 0's library from [0, 0xF11E5]; there
        # that bit is a 1, so a runner that reads the placement misses it.
        library = np.random.default_rng([0, 0xF11E5]).integers(
            0, 2, size=(2, 400), dtype=np.uint8
        )
        assert library[1, -1] == 1
        placement = fran_schemes.cache_placement

        def dropping(*args):
            held = placement(*args)
            en2 = list(held.ranges[1])
            en2[1] = (en2[1][0], en2[1][1] - 1)
            return dataclasses.replace(held, ranges=(held.ranges[0], tuple(en2)))

        monkeypatch.setattr(fran_schemes, "cache_placement", dropping)
        p = SystemParams(mu=0.5, r_f=0.0, r_d=2.0, file_bits=400, power=2.0**16)
        r = run_end_to_end(p, 0, scheme)
        assert not r.exact and r.mismatched_bits == 1

    def test_d2d_ia_is_not_exact_when_sic_leaves_the_range(self, monkeypatch):
        # Every file bit matches, but the block flags an out-of-range symbol.
        transmit = real_ia.transmit

        def flagged(*args):
            x, resolved, in_range = transmit(*args)
            return x, resolved, np.zeros_like(in_range)

        monkeypatch.setattr(real_ia, "transmit", flagged)
        p = SystemParams(mu=0.5, r_f=0.0, r_d=2.0, file_bits=400, power=2.0**16)
        r = run_end_to_end(p, 0, "d2d_ia")
        assert r.mismatched_bits == 0 and not r.exact and r.details["sic_in_range"] is False

    @pytest.mark.parametrize("scheme", ["d2d_det", "d2d_ia"])
    def test_d2d_runners_reject_an_odd_length(self, scheme):
        p = SystemParams(mu=0.5, r_f=0.0, r_d=2.0, file_bits=401, power=2.0**16)
        with pytest.raises(ValueError, match="^half caching needs an even file size$"):
            run_end_to_end(p, 0, scheme)

    @pytest.mark.parametrize(
        "scheme, block",
        [("d2d_det", (det_xchannel, "det_channel")), ("d2d_ia", (real_ia, "transmit"))],
    )
    def test_d2d_runners_reject_a_zero_rate_before_the_block(self, monkeypatch, scheme, block):
        def unreached(*args, **kwargs):
            raise AssertionError("the block ran")

        monkeypatch.setattr(*block, unreached)
        p = SystemParams(mu=0.5, r_f=0.0, r_d=0.0, file_bits=400, power=2.0**16)
        with pytest.raises(ValueError, match="^r_d must be finite and > 0 for a D2D phase, got 0.0$"):
            run_end_to_end(p, 0, scheme)
        with pytest.raises(AssertionError, match="^the block ran$"):
            run_end_to_end(dataclasses.replace(p, r_d=2.0), 0, scheme)

    def test_demand_out_of_range_rejected(self):
        p = SystemParams(mu=1.0, r_f=0.0, r_d=0.0, n_files=2)
        with pytest.raises(ValueError):
            run_end_to_end(p, 0, "cache_zf", demand=DemandVector(0, 3))

    @pytest.mark.parametrize("scheme", sorted(ZF_CORNERS))
    def test_zf_runners_reject_a_layer_count(self, scheme):
        p = SystemParams(mu=ZF_CORNERS[scheme], r_f=1.0, r_d=0.0, file_bits=64, power=2.0**16)
        with pytest.raises(
            ValueError, match=f"^n_d applies only to d2d_det and d2d_ia, not {scheme}$"
        ):
            run_end_to_end(p, 0, scheme, n_d=5)

    @pytest.mark.parametrize("scheme", sorted(ZF_CORNERS))
    @pytest.mark.parametrize("exponent", (126, 200))
    def test_zf_runners_reject_more_than_62_bits_per_dimension(self, scheme, exponent):
        p = SystemParams(
            mu=ZF_CORNERS[scheme], r_f=1.0, r_d=0.0, file_bits=64, power=2.0**exponent
        )
        with pytest.raises(ValueError, match="^power too large: log2 P = .* 62 bits"):
            run_end_to_end(p, 0, scheme)
        # Just below, the load search stops at 43 bits, where the float-error
        # bound of channel 0 would take more than its 1/6 of the slicer's margin.
        below = dataclasses.replace(p, power=2.0**125)
        assert run_end_to_end(below, 0, scheme).details["bits_per_use"] == 2 * 43


@pytest.fixture
def draws(monkeypatch):
    """Cold library and channel caches, and a list of the seeds ``draw_csi`` is called with."""
    seeds = []
    draw = fran_schemes.draw_csi

    def spy(seed):
        seeds.append(seed)
        return draw(seed)

    monkeypatch.setattr(fran_schemes, "draw_csi", spy)
    for cache in (fran_schemes._library, fran_schemes._channel):
        cache.cache_clear()
    yield seeds
    for cache in (fran_schemes._library, fran_schemes._channel):
        cache.cache_clear()


class TestOneDrawPerSeed:
    def test_four_corners_on_one_seed_draw_library_and_channel_once(self, draws):
        for scheme, mu in FOUR_CORNERS:
            p = SystemParams(mu=mu, r_f=1.0, r_d=2.0, file_bits=4096, power=2.0**16)
            assert run_end_to_end(p, 0, scheme).exact
        assert draws == [0]
        assert fran_schemes._library.cache_info().misses == 1

    def test_d2d_det_alone_draws_no_channel(self, draws):
        p = SystemParams(mu=0.5, r_f=0.0, r_d=2.0, file_bits=400, power=2.0**16)
        assert run_end_to_end(p, 3, "d2d_det").exact
        assert draws == []
        assert fran_schemes._library.cache_info().misses == 1

    def test_a_new_seed_or_size_draws_again(self, draws):
        for seed, file_bits in ((0, 64), (1, 64), (0, 64), (0, 66), (0, 66)):
            p = SystemParams(mu=1.0, r_f=0.0, r_d=0.0, file_bits=file_bits, power=2.0**16)
            run_end_to_end(p, seed, "cache_zf")
        assert draws == [0, 1, 0]
        assert fran_schemes._library.cache_info().misses == 4

    def test_the_cached_library_is_read_only(self, draws):
        p = SystemParams(mu=1.0, r_f=0.0, r_d=0.0, file_bits=64, power=2.0**16)
        run_end_to_end(p, 0, "cache_zf")
        library = fran_schemes._library(0, p.n_files, 64)
        with pytest.raises(ValueError, match="read-only"):
            library[0, 0] ^= 1
        assert fran_schemes._library.cache_info().misses == 1


def _per_use_oracle(symbols, bits_per_dim, inv, h, beta, quantizer):
    """Reference for ``_zf_block``: one matvec, quantize and argmin over the axis per use."""
    axis = _qam_axis(bits_per_dim)
    decided = np.empty((len(symbols), 2, 2), dtype=np.int64)
    for t in range(len(symbols)):
        x = beta * inv @ symbols[t]
        if quantizer is not None:
            half_range, n_levels = quantizer
            x = _quantize_uniform(x.real, half_range, n_levels) + 1j * _quantize_uniform(
                x.imag, half_range, n_levels
            )
        y = h @ x
        for k in (0, 1):
            est = y[k] / beta
            decided[t, k, 0] = np.argmin(np.abs(axis - est.real))
            decided[t, k, 1] = np.argmin(np.abs(axis - est.imag))
    return decided


def _zf_run(monkeypatch, block, scheme, file_bits, power, seed):
    """Report (or ValueError text) and decided blocks of a run that uses ``block``."""
    decided = []

    def recording(*args):
        decided.append(block(*args))
        return decided[-1]

    monkeypatch.setattr(fran_schemes, "_zf_block", recording)
    params = SystemParams(
        mu=ZF_CORNERS[scheme], r_f=1.0, r_d=0.0, file_bits=file_bits, power=power
    )
    try:
        report = run_end_to_end(params, seed, scheme)
    except ValueError as exc:
        report = str(exc)
    return report, decided


def _assert_same_as_oracle(monkeypatch, scheme, file_bits, power, seed):
    got, got_decided = _zf_run(monkeypatch, _zf_block, scheme, file_bits, power, seed)
    want, want_decided = _zf_run(monkeypatch, _per_use_oracle, scheme, file_bits, power, seed)
    assert got == want
    assert len(got_decided) == len(want_decided)
    for a, b in zip(got_decided, want_decided):
        assert np.array_equal(a, b)
    return got


class TestZfBlockPipeline:
    @pytest.mark.parametrize("scheme", sorted(ZF_CORNERS))
    @pytest.mark.parametrize("power", (2.0**12, 2.0**16, 2.0**20, 2.0**24))
    def test_matches_per_use_oracle(self, monkeypatch, scheme, power):
        for file_bits in (4096, 1000, 998, 250, 66, 14):
            for seed in range(12):
                report = _assert_same_as_oracle(monkeypatch, scheme, file_bits, power, seed)
                assert report.exact

    @pytest.mark.parametrize("scheme", sorted(ZF_CORNERS))
    def test_matches_per_use_oracle_at_2_to_40(self, monkeypatch, scheme):
        # 20 bits per real dimension: the oracle's argmin scans 2^20 points,
        # so this power runs on short files only.
        for file_bits in (66, 14):
            for seed in range(12):
                report = _assert_same_as_oracle(monkeypatch, scheme, file_bits, 2.0**40, seed)
                assert report.exact

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_use_oracle_at_the_power_edge(self, monkeypatch, seed):
        # The smallest 2^k at which soft transfer still delivers exactly.
        def report(k):
            return _zf_run(monkeypatch, _zf_block, "soft_transfer", 66, 2.0**k, seed)[0]

        k = next(k for k in range(2, 41) if not isinstance(report(k), str))
        below = _assert_same_as_oracle(monkeypatch, "soft_transfer", 66, 2.0 ** (k - 1), seed)
        assert "power too small" in below
        assert _assert_same_as_oracle(monkeypatch, "soft_transfer", 66, 2.0**k, seed).exact

    @pytest.mark.parametrize("scheme", sorted(ZF_CORNERS))
    def test_transmit_block_within_peak_power(self, monkeypatch, scheme):
        # Each EN's sample, precoded and (soft transfer) quantized, keeps
        # |x|^2 <= P: rounding to the nearest level can push a sample up to
        # step / sqrt(2) beyond the precoder's sqrt(P) bound, so soft transfer
        # must back off by that much.
        sent = []

        def recording(symbols, bits_per_dim, inv, h, beta, quantizer):
            x = beta * symbols @ inv.T
            if quantizer is not None:
                x = _quantize_uniform(x.real, *quantizer) + 1j * _quantize_uniform(
                    x.imag, *quantizer
                )
            sent.append(x)
            return _zf_block(symbols, bits_per_dim, inv, h, beta, quantizer)

        delivered = 0
        for k in range(4, 33):
            for seed in range(200):
                sent.clear()
                report, _ = _zf_run(monkeypatch, recording, scheme, 1000, 2.0**k, seed)
                if isinstance(report, str):
                    assert "power too small" in report
                    continue
                delivered += 1
                assert report.exact
                assert (np.abs(sent[0]) ** 2).max() <= 2.0**k * (1.0 + 1e-12), (k, seed)
        assert delivered >= 4000


# ``bits_per_use`` of a delivery at P = 2^k for channel seeds 0..11; None
# where the power is too small for exact quantized delivery.
ZF_BIT_LOADS = {
    "cache_zf": {
        4: [4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4],
        5: [4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4],
        6: [6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6],
        8: [8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8],
        12: [12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12],
        16: [16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16],
        20: [20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20],
        24: [24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24],
        32: [32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32],
        40: [40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40],
    },
    "soft_transfer": {
        4: [None, None, None, None, None, None, None, None, None, None, None, None],
        5: [None, None, None, None, None, None, None, None, None, None, None, 2],
        6: [None, None, None, None, None, None, None, None, None, None, None, 2],
        8: [2, 2, 2, 2, None, None, 2, None, None, None, None, 2],
        12: [4, 4, 6, 4, 4, 2, 4, 2, 2, 2, 2, 6],
        16: [8, 8, 10, 8, 6, 4, 8, 6, 6, 6, 6, 10],
        20: [12, 12, 14, 12, 10, 8, 12, 10, 10, 8, 10, 14],
        24: [16, 16, 18, 16, 14, 12, 16, 14, 14, 12, 14, 18],
        32: [24, 24, 26, 24, 22, 20, 24, 22, 22, 20, 22, 26],
        40: [32, 32, 34, 32, 30, 28, 32, 30, 30, 28, 30, 34],
    },
}


@pytest.mark.parametrize("scheme", sorted(ZF_CORNERS))
def test_zf_bit_load_is_pinned(scheme):
    for k, loads in ZF_BIT_LOADS[scheme].items():
        params = SystemParams(
            mu=ZF_CORNERS[scheme], r_f=1.0, r_d=0.0, file_bits=64, power=2.0**k
        )
        for seed, want in enumerate(loads):
            if want is None:
                with pytest.raises(ValueError, match="power too small"):
                    run_end_to_end(params, seed, scheme)
            else:
                assert run_end_to_end(params, seed, scheme).details["bits_per_use"] == want


@pytest.mark.parametrize("scheme", sorted(ZF_CORNERS))
def test_zf_runners_are_exact_at_every_power_they_accept(scheme):
    # Even log2 P from 4 up to the 62-bit cap: the load search leaves float
    # error inside the slicer's margin, so every accepted run is exact.
    loads = []
    for k in range(4, 126, 2):
        params = SystemParams(mu=ZF_CORNERS[scheme], r_f=1.0, r_d=0.0, file_bits=256, power=2.0**k)
        for seed in range(12):
            try:
                report = run_end_to_end(params, seed, scheme)
            except ValueError as exc:
                assert "power too small" in str(exc) and k <= 10
                continue
            assert report.exact, (k, seed)
            if k == 124:
                loads.append(report.details["bits_per_use"])
    # Where float error stops the load, channel by channel.
    assert loads == [86, 86, 88, 86, 84, 82, 86, 84, 84, 82, 84, 88]


def test_qam_spacing_is_the_axis_spacing():
    for bits_per_dim in range(1, 21):
        axis = _qam_axis(bits_per_dim)
        assert _qam_spacing(bits_per_dim) == axis[1] - axis[0]
        assert _qam_points(bits_per_dim, 0) == axis[0]


class TestPamSlicer:
    @given(
        bits_per_dim=st.integers(1, 8),
        v=st.one_of(st.floats(-1.0, 1.0), st.floats(-1e12, 1e12)),
    )
    def test_matches_argmin_off_the_decision_boundaries(self, bits_per_dim, v):
        axis = _qam_axis(bits_per_dim)
        u = (v - axis[0]) / (axis[1] - axis[0])
        assume(np.abs(u - (np.arange(axis.size - 1) + 0.5)).min() > 1e-9)
        assert _slice_pam(np.array([u]), axis.size)[0] == np.argmin(np.abs(axis - v))

    @pytest.mark.parametrize("bits_per_dim", range(1, 9))
    def test_midpoints_go_to_the_lower_index(self, bits_per_dim):
        levels = 2**bits_per_dim
        midpoints = np.arange(levels - 1) + 0.5
        lower = np.arange(levels - 1)
        assert np.array_equal(_slice_pam(midpoints, levels), lower)
        assert [np.argmin(np.abs(np.arange(levels) - m)) for m in midpoints] == list(lower)


def _bits_to_int_reference(bits, width):
    """The ``np.pad``-based packer that ``_bits_to_int`` replaced."""
    padded = np.pad(bits, (0, -bits.size % width)).astype(np.int64)
    return padded.reshape(-1, width) @ (1 << np.arange(width))


def _int_to_bits_reference(values, width):
    """The unpacker that ``_int_to_bits`` replaced."""
    return ((values.reshape(-1, 1) >> np.arange(width)) & 1).astype(np.uint8).ravel()


class TestBitPacking:
    @given(
        width=st.integers(1, 64),
        bits=st.lists(st.integers(0, 1), max_size=300),
        extra_groups=st.integers(0, 3),
    )
    def test_equal_to_the_pad_based_packers(self, width, bits, extra_groups):
        bits = np.array(bits, dtype=np.uint8)
        groups = -(-bits.size // width)
        n_bits = (groups + extra_groups) * width
        tail = np.pad(bits, (0, n_bits - bits.size))
        want = _bits_to_int_reference(bits, width)
        got = _bits_to_int(tail[: groups * width], width)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # Extra zero groups pack to zeros, as padding the bits first did.
        padded = _bits_to_int(tail, width)
        assert np.array_equal(padded, _bits_to_int_reference(tail, width))
        back = _int_to_bits(padded, width)
        assert back.dtype == np.uint8
        assert np.array_equal(back, _int_to_bits_reference(padded, width))
        assert np.array_equal(back[: bits.size], bits) and not back[bits.size :].any()

    @given(
        width=st.integers(1, 64),
        values=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40),
    )
    def test_unpacking_any_values_equals_the_reference(self, width, values):
        values = np.array(values, dtype=np.int64)
        got = _int_to_bits(values, width)
        assert got.dtype == np.uint8 and np.array_equal(got, _int_to_bits_reference(values, width))

    @given(width=st.integers(1, 64), groups=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_a_stack_packs_and_unpacks_row_by_row(self, width, groups, seed):
        rng = np.random.default_rng(seed)
        stack = rng.integers(0, 2, (2, 3, groups * width), dtype=np.uint8)
        packed = _bits_to_int(stack, width)
        assert packed.shape == (2, 3, groups) and packed.dtype == np.int64
        for row in np.ndindex(2, 3):
            assert np.array_equal(packed[row], _bits_to_int(stack[row], width))
            assert np.array_equal(packed[row], _bits_to_int_reference(stack[row], width))
        assert np.array_equal(_int_to_bits(packed, width), stack.ravel())
        # A transposed stack unpacks in its logical order, row after row.
        flipped = packed.swapaxes(0, 1)
        want = np.concatenate([_int_to_bits(flipped[row], width) for row in np.ndindex(3, 2)])
        assert np.array_equal(_int_to_bits(flipped, width), want)


def _half_cache_layers_reference(placement, files, demand, width, n_d):
    """The layout that ``_half_cache_layers`` replaced: one pack per cache segment."""
    wanted = (demand.d1, demand.d2)
    longest = max(en[w][1] - en[w][0] for en in placement.ranges for w in wanted)
    uses = math.ceil(math.ceil(longest / width) / ((n_d - 1) // 2))
    layers = np.zeros((2, uses, n_d), np.int64)
    for en in (0, 1):
        for first in (0, 1):
            file = wanted[en ^ first]
            start, stop = placement.ranges[en][file]
            per_use = (n_d + 1) // 2 - first
            segment = np.pad(files[file, start:stop], (0, uses * per_use * width - (stop - start)))
            layers[en, :, first::2] = _bits_to_int_reference(segment, width).reshape(uses, per_use)
    return layers


def _half_cache_files_reference(placement, resolved, demand, width):
    """The inverse that ``_half_cache_files`` replaced: one unpack per cache segment."""
    wanted = (demand.d1, demand.d2)
    out = np.zeros((2, placement.file_bits), np.uint8)
    for ue in (0, 1):
        for first in (0, 1):
            start, stop = placement.ranges[ue ^ first][wanted[ue]]
            symbols = resolved[ue, :, first::2].ravel()[: math.ceil((stop - start) / width)]
            out[ue, start:stop] = _int_to_bits_reference(symbols, width)[: stop - start]
    return out


class TestBlockLayout:
    @settings(max_examples=200, deadline=None)
    @given(
        width=st.integers(1, 64),
        n_d=st.sampled_from(range(3, 18, 2)),
        swap=st.booleans(),
        symbols=st.integers(1, 40),
        short=st.integers(0, 63),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_half_cache_layout_equals_the_per_segment_reference(
        self, width, n_d, swap, symbols, short, seed
    ):
        # Each segment holds ``symbols`` symbols, the last one short of
        # ``short % width`` bits.
        half = symbols * width - short % width
        rng = np.random.default_rng(seed)
        files = rng.integers(0, 2, (3, 2 * half), dtype=np.uint8)
        placement = cache_placement(0.5, 3, 2 * half)
        demand = DemandVector(1, 0) if swap else DemandVector(0, 1)
        layers = _half_cache_layers(placement, files, demand, width, n_d)
        assert layers.dtype == (np.uint8 if width == 1 else np.int64)
        want = _half_cache_layers_reference(placement, files, demand, width, n_d)
        assert np.array_equal(layers, want)
        # Any resolved symbols, laid out as the X-channel blocks return them,
        # unpack as the reference unpacks them.
        shape = (n_d, 2, layers.shape[1])
        resolved = rng.integers(-(2**63), 2**63 - 1, shape, endpoint=True).transpose(1, 2, 0)
        assert np.array_equal(
            _half_cache_files(placement, resolved, demand, width),
            _half_cache_files_reference(placement, resolved, demand, width),
        )
        # UE k decodes EN k's odd layers and the other EN's even ones.
        own = np.arange(n_d) % 2 == 0
        truth = np.stack([np.where(own, layers[k], layers[1 - k]) for k in (0, 1)])
        decoded = _half_cache_files(placement, truth, demand, width)
        assert np.array_equal(decoded, files[[demand.d1, demand.d2]])


@pytest.mark.parametrize("n_d", (3, 5))
def test_half_cache_layers_pack_only_the_bits_sent(monkeypatch, n_d):
    # Each EN sends its two cached halves of L / 2 = 2048 bits, packed at
    # log2 q bits per symbol; the odd layers' extra symbols are not packed.
    packed = []
    pack = fran_schemes._bits_to_int

    def counting(bits, width):
        packed.append((bits.size, width))
        return pack(bits, width)

    monkeypatch.setattr(fran_schemes, "_bits_to_int", counting)
    p = SystemParams(mu=0.5, r_f=0.0, r_d=2.0, file_bits=4096, power=2.0**16)
    r = run_end_to_end(p, 0, "d2d_ia", n_d=n_d)
    width = int(math.log2(r.details["q"]))
    assert r.exact and width > 1
    uses = math.ceil(math.ceil(2048 / width) / ((n_d - 1) // 2))
    assert packed == [(2 * 2 * uses * ((n_d - 1) // 2) * width, width)]


def _zf_symbols_reference(payloads, bits_per_dim, uses):
    """The ZF packing that ``_run_zf_like`` replaced: one pack per UE, re + 1j * im."""
    n_bits = uses * 2 * bits_per_dim
    sent = np.stack(
        [
            _bits_to_int_reference(np.pad(p, (0, n_bits - p.size)), bits_per_dim).reshape(uses, 2)
            for p in payloads
        ],
        axis=1,
    )
    points = _qam_points(bits_per_dim, sent)
    return points[..., 0] + 1j * points[..., 1]


def _zf_mismatch_reference(decided, bits_per_dim, payloads):
    """The mismatch count that ``_run_zf_like`` replaced: one unpack per UE."""
    return sum(
        int(np.sum(_int_to_bits_reference(decided[:, k], bits_per_dim)[: p.size] != p))
        for k, p in enumerate(payloads)
    )


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from(sorted(ZF_CORNERS)),
    exponent=st.integers(12, 124),
    seed=st.integers(0, 11),
    file_bits=st.integers(1, 300),
    swap=st.booleans(),
    flip_seed=st.integers(0, 2**32 - 1),
)
def test_zf_packing_equals_the_per_payload_reference(
    scheme, exponent, seed, file_bits, swap, flip_seed
):
    # Every width the ZF runners use, from 1 to 45 bits per real dimension;
    # decisions with random wrong bits check the one unpack and compare.
    rng = np.random.default_rng(flip_seed)
    seen = {}

    def flipping(symbols, bits_per_dim, *args):
        decided = _zf_block(symbols, bits_per_dim, *args)
        wrong = rng.integers(0, 2 ** min(bits_per_dim, 62), decided.shape)
        decided ^= wrong * (rng.random(decided.shape) < 0.2)
        seen.update(symbols=symbols, decided=decided, bits_per_dim=bits_per_dim)
        return decided

    params = SystemParams(
        mu=ZF_CORNERS[scheme], r_f=1.0, r_d=0.0, file_bits=file_bits, power=2.0**exponent
    )
    demand = DemandVector(1, 0) if swap else DemandVector(0, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fran_schemes, "_zf_block", flipping)
        report = run_end_to_end(params, seed, scheme, demand=demand)
    symbols, bits_per_dim = seen["symbols"], seen["bits_per_dim"]
    payloads = fran_schemes._library(seed, 2, file_bits)[[demand.d1, demand.d2]]
    want = _zf_symbols_reference(payloads, bits_per_dim, len(symbols))
    assert symbols.shape == want.shape and symbols.flags.c_contiguous
    assert np.array_equal(symbols.view(np.uint64), want.view(np.uint64))
    assert report.mismatched_bits == _zf_mismatch_reference(seen["decided"], bits_per_dim, payloads)


def _no_negative_zero(x):
    return not (np.signbit(x) & (x == 0)).any()


class TestViewIdentities:
    """The complex128 views that replace re + 1j * im in the ZF block are bit-exact."""

    @staticmethod
    def _assert_view_quantizes_per_part(parts, half_range, n_levels):
        x = np.ascontiguousarray(parts, dtype=np.float64).reshape(-1, 2).view(np.complex128)[:, 0]
        got = _quantize_uniform(x.view(np.float64), half_range, n_levels).view(np.complex128)
        want = _quantize_uniform(x.real, half_range, n_levels) + 1j * _quantize_uniform(
            x.imag, half_range, n_levels
        )
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert _no_negative_zero(got.view(np.float64))

    @pytest.mark.parametrize("n_levels", [2, 3, 4, 5, 16, 17, 2**12, 2**31 + 1, 2**62])
    @pytest.mark.parametrize("half_range", [1.0, math.sqrt(2.0**16), math.sqrt(2.0**124), 0.3])
    def test_at_the_range_ends_midpoints_and_zero(self, n_levels, half_range):
        step = 2.0 * half_range / (n_levels - 1)
        middle = (n_levels - 1) // 2
        special = [
            -half_range, half_range, -2.0 * half_range, 2.0 * half_range,  # ends and beyond
            0.0, -0.0, 1e-300, -1e-300, step / 2.0, -step / 2.0,  # around the middle
            -half_range + middle * step, -half_range + (middle + 0.5) * step,  # mid level, tie
            -half_range + 0.5 * step, half_range - 0.5 * step,  # ties at both ends
        ]
        pairs = np.array(np.meshgrid(special, special)).reshape(2, -1).T
        self._assert_view_quantizes_per_part(pairs, half_range, n_levels)

    @given(
        parts=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40).filter(
            lambda p: len(p) % 2 == 0
        ),
        half_range=st.floats(1e-3, 1e3),
        log2_levels=st.integers(1, 62),
    )
    def test_on_any_samples(self, parts, half_range, log2_levels):
        self._assert_view_quantizes_per_part(parts, half_range, 2**log2_levels)

    @pytest.mark.parametrize("bits_per_dim", range(1, 63))
    def test_no_qam_point_is_negative_zero(self, bits_per_dim):
        n = 2**bits_per_dim
        rng = np.random.default_rng(bits_per_dim)
        edges = np.array([0, 1, n // 2 - 1, n // 2, n - 2, n - 1], dtype=np.int64) % n
        index = np.concatenate([edges, rng.integers(0, n, 26, dtype=np.int64)])
        points = _qam_points(bits_per_dim, index.reshape(-1, 2))
        assert _no_negative_zero(points)
        view = points.view(np.complex128)[:, 0]
        summed = points[:, 0] + 1j * points[:, 1]
        assert np.array_equal(view.view(np.uint64), summed.view(np.uint64))


@pytest.mark.parametrize("seed, q", [(3, 4), (6, 4), (7, 8), (8, 4)])
def test_ia_delivery_and_the_d2d_ia_runner_share_one_block(seed, q):
    # At P = 2^16, n_d = 3 these seeds' constellations are already powers of
    # two, so the runner's rounding leaves q as run_ia_delivery picks it.
    rep = real_ia.run_ia_delivery(seed, 3, 0.5, 2.0**16, 2.0, n_uses=64, noiseless=True)
    params = SystemParams(mu=0.5, r_f=0.0, r_d=2.0, file_bits=4096, power=2.0**16)
    e2e = run_end_to_end(params, seed, "d2d_ia")
    assert rep.config.q == e2e.details["q"] == q
    assert rep.exact_demod and rep.symbol_error_rate == 0.0 and e2e.exact
    assert rep.latency.t_d / rep.latency.t_e == e2e.latency.t_d / e2e.latency.t_e
