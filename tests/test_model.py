import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fran_d2d import det_xchannel, fran_schemes, ndt_formulas, real_ia
from fran_d2d.model import (
    Csi,
    DemandVector,
    LatencyBreakdown,
    SystemParams,
    d2d_sic,
    draw_csi,
    ndt_from_latency,
    x_channel_latency,
)


class TestSystemParams:
    def test_valid_params_accepted(self):
        p = SystemParams(mu=0.5, r_f=1.0, r_d=2.0, n_files=3, file_bits=100, power=64.0)
        assert p.mu == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": -0.1, "r_f": 0.0, "r_d": 0.0},
            {"mu": 1.1, "r_f": 0.0, "r_d": 0.0},
            {"mu": 0.5, "r_f": -1.0, "r_d": 0.0},
            {"mu": 0.5, "r_f": 0.0, "r_d": -0.5},
            {"mu": 0.5, "r_f": 0.0, "r_d": 0.0, "n_files": 1},
            {"mu": 0.5, "r_f": 0.0, "r_d": 0.0, "file_bits": 0},
            {"mu": 0.5, "r_f": 0.0, "r_d": 0.0, "power": 0.0},
            {"mu": 0.5, "r_f": 0.0, "r_d": 0.0, "power": math.inf},
            {"mu": 0.5, "r_f": 0.0, "r_d": 0.0, "file_bits": 2.5},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)


class TestCsi:
    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            Csi(0.0, 1.0, 1.0, 1.0)

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            Csi(1.0, 1.0, 1.0, 1.0)

    def test_matrix_layout(self):
        c = Csi(1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j)
        m = c.matrix()
        assert m[0, 1] == 2 + 0j and m[1, 0] == 3 + 0j


class TestDrawCsi:
    def test_same_seed_same_channel(self):
        assert draw_csi(7) == draw_csi(7)

    def test_different_seed_different_channel(self):
        a, b = draw_csi(7), draw_csi(8)
        assert any(
            getattr(a, k) != getattr(b, k) for k in ("h11", "h12", "h21", "h22")
        )

    def test_determinant_nonzero_across_seeds(self):
        for seed in range(200):
            assert abs(draw_csi(seed).determinant) > 0

    def test_unit_variance_entries(self):
        import numpy as np

        samples = np.array(
            [[draw_csi(s).h11, draw_csi(s).h22] for s in range(2000)]
        ).ravel()
        assert abs(np.mean(np.abs(samples) ** 2) - 1.0) < 0.1


class TestLatencyBreakdown:
    def test_total(self):
        assert LatencyBreakdown(1.0, 2.0, 3.0).total == 6.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyBreakdown(-1.0, 0.0, 0.0)

    def test_infinite_rejected(self):
        with pytest.raises(ValueError):
            LatencyBreakdown(math.inf, 0.0, 0.0)


class TestNdtFromLatency:
    def test_interference_free_baseline_is_one(self):
        power = 2.0**20
        lat = LatencyBreakdown(0.0, 1000 / math.log2(power), 0.0)
        assert ndt_from_latency(lat, 1000, power) == pytest.approx(1.0)

    def test_zero_latency_gives_zero(self):
        assert ndt_from_latency(LatencyBreakdown(0.0, 0.0, 0.0), 10, 4.0) == 0.0

    def test_hand_computed_example(self):
        lat = LatencyBreakdown(10.0, 50.0, 15.0)
        assert ndt_from_latency(lat, 1000, 2.0**20) == pytest.approx(1.5)

    def test_power_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            ndt_from_latency(LatencyBreakdown(0.0, 1.0, 0.0), 10, 1.0)

    def test_overflowing_estimate_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            ndt_from_latency(LatencyBreakdown(0.0, 1.0, 1e308), 1, 2.0**4)

    @given(
        t=st.tuples(
            st.floats(0, 1e6), st.floats(0, 1e6), st.floats(0, 1e6)
        ),
        scale=st.floats(0.1, 10.0),
    )
    def test_linear_in_each_component(self, t, scale):
        lat = LatencyBreakdown(*t)
        scaled = LatencyBreakdown(t[0] * scale, t[1] * scale, t[2] * scale)
        v = ndt_from_latency(lat, 100, 16.0)
        assert ndt_from_latency(scaled, 100, 16.0) == pytest.approx(scale * v, abs=1e-9)

    @given(bits=st.integers(1, 10**6), factor=st.integers(2, 50))
    def test_inverse_homogeneous_in_file_size(self, bits, factor):
        lat = LatencyBreakdown(3.0, 5.0, 7.0)
        v1 = ndt_from_latency(lat, bits, 16.0)
        v2 = ndt_from_latency(lat, bits * factor, 16.0)
        assert v2 == pytest.approx(v1 / factor, rel=1e-12)


class TestDemandVector:
    def test_worst_case_flag(self):
        assert DemandVector(0, 1).is_worst_case
        assert not DemandVector(2, 2).is_worst_case

    def test_range_check(self):
        with pytest.raises(ValueError):
            DemandVector(0, 5).check_against(2)


@pytest.mark.parametrize(
    "build",
    [
        lambda n_d: real_ia.IaConfig(n_d=n_d, q=4, eps_prime=0.5, power=2.0**16),
        lambda n_d: real_ia.precoder_gains(draw_csi(0), n_d),
        det_xchannel.DetConfig,
        lambda n_d: ndt_formulas.delta_nd(n_d, 2.0),
        lambda n_d: ndt_formulas.det_ndt(n_d, 2.0),
    ],
    ids=["IaConfig", "precoder_gains", "DetConfig", "delta_nd", "det_ndt"],
)
@pytest.mark.parametrize("n_d", [1, 2, 4])
def test_every_layer_count_check_says_the_same(build, n_d):
    with pytest.raises(ValueError, match=rf"^n_d must be odd and >= 3, got {n_d}$"):
        build(n_d)


def test_x_channel_latency_charges_the_forwarded_elements():
    # d2d_ia at n_d = 3, r_d = 2, P = 2^16: one log2(2q)-bit element per use.
    assert x_channel_latency(1024, 3, math.log2(8), 2.0, 16.0) == LatencyBreakdown(0, 1024, 96)
    assert x_channel_latency(683, 3, math.log2(16), 2.0, 16.0) == LatencyBreakdown(0, 683, 85.375)
    # d2d_det at n_d = 5, r_d = 1: two 1-bit elements per use, log2 P = n_d.
    assert x_channel_latency(10, 5, 1, 1.0, 5) == LatencyBreakdown(0, 10, 4)


@pytest.mark.parametrize("r_d", [0.0, -1.0, math.inf, math.nan])
def test_x_channel_latency_needs_a_finite_positive_d2d_rate(r_d):
    # The one division by r_d: a bad rate is named, never divided by.
    with pytest.raises(ValueError, match=rf"^r_d must be finite and > 0 for a D2D phase, got {r_d}$"):
        x_channel_latency(4, 3, 1.0, r_d, 10.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda power: real_ia.IaConfig(n_d=3, q=4, eps_prime=0.5, power=power),
        lambda power: real_ia.select_constellation(draw_csi(0), 3, power, 0.5),
        lambda power: fran_schemes._zf_scale(draw_csi(0), power),
        lambda power: ndt_from_latency(LatencyBreakdown(0.0, 1.0, 0.0), 10, power),
    ],
    ids=["IaConfig", "select_constellation", "_zf_scale", "ndt_from_latency"],
)
@pytest.mark.parametrize("power", [1.0, 0.5, -4.0, math.inf, math.nan])
def test_every_power_check_says_the_same(build, power):
    with pytest.raises(ValueError, match=rf"^power must be finite and exceed 1, got {power}$"):
        build(power)


ODD_LAYER_COUNTS = range(3, 42, 2)


def _slots_first(c1, c2):
    """Both UEs' (..., uses, slots) observations as one (slots, 2, ..., uses) block."""
    both = np.stack([c1, c2])
    return np.ascontiguousarray(np.moveaxis(both, -1, 0))


def _resolve_by_cumsum(c_own, c_peer, q):
    """One UE's resolved symbols as an alternating cumulative sum along the last axis."""
    n_d = c_own.shape[-1] - 1
    t = c_own.copy()
    t[..., 1 : n_d - 1 : 2] = c_peer[..., 1 : n_d - 1 : 2]
    sign = 1 - 2 * (np.arange(n_d) % 2)
    t[..., :n_d] = sign * np.cumsum(sign * t[..., :n_d], axis=-1)
    return t, ((t >= 0) & (t < q)).all(axis=-1)


def _peer_slots_read(t, n_d):
    """Slots of UE 2 whose value changes what ``d2d_sic`` resolves at UE 1."""
    base = t.copy()
    d2d_sic(base, n_d)
    read = []
    for j in range(len(t)):
        bumped = t.copy()
        bumped[j, 1] += 1
        d2d_sic(bumped, n_d)
        if not np.array_equal(bumped[:, 0], base[:, 0]):
            read.append(j)
    return read


class TestD2dSic:
    @pytest.mark.parametrize("n_d", ODD_LAYER_COUNTS)
    @pytest.mark.parametrize("extra_slots", [0, 1])
    def test_reads_the_peer_slots_1_3_to_n_d_minus_2(self, n_d, extra_slots):
        # (n_d - 1)/2 elements per use, what x_channel_latency charges.
        t = np.random.default_rng(n_d).integers(0, 9, (n_d + extra_slots, 2, 3))
        read = _peer_slots_read(t, n_d)
        assert read == list(range(1, n_d - 1, 2)) and len(read) == (n_d - 1) // 2
        assert _peer_slots_read(t[:, ::-1].copy(), n_d) == read  # and the mirror image

    @pytest.mark.parametrize("n_d", ODD_LAYER_COUNTS)
    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
    def test_matches_the_cumsum_form_over_the_integers(self, n_d, lead):
        rng = np.random.default_rng(n_d * 10 + len(lead))
        q = 5
        for uses in (1, 7, 1024):
            shape = lead + (uses, n_d + 1)
            # Observations of in-range symbols (t_p = s_p + s_{p-1}), the peer's
            # copy of them, and then about one entry in twelve shifted by +-1.
            symbols = rng.integers(0, q, shape)
            c_own = symbols.copy()
            c_own[..., 1:n_d] += symbols[..., : n_d - 1]
            c_peer = c_own.copy()
            for c in (c_own, c_peer):
                c += rng.choice([-1, 0, 1], shape, p=[1 / 24, 11 / 12, 1 / 24])
            t = _slots_first(c_own, c_peer)
            d2d_sic(t, n_d)
            got, ok = np.moveaxis(t, 0, -1), ((t >= 0) & (t < q)).all(axis=0)
            want, want_ok = zip(
                _resolve_by_cumsum(c_own, c_peer, q), _resolve_by_cumsum(c_peer, c_own, q)
            )
            want, want_ok = np.stack(want), np.stack(want_ok)
            assert got.shape == want.shape and ok.shape == want_ok.shape
            assert got.dtype == want.dtype
            assert np.array_equal(got, want) and np.array_equal(ok, want_ok)
            if uses == 1024:
                assert 0 < want_ok.sum() < want_ok.size

    @pytest.mark.parametrize("n_d", ODD_LAYER_COUNTS)
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_mod_2_is_the_running_xor(self, n_d, lead):
        y = np.random.default_rng(n_d).integers(0, 2, (2, *lead, 50, n_d), dtype=np.uint8)
        t = _slots_first(y[0], y[1])
        d2d_sic(t, n_d)
        t &= 1
        want = y.copy()
        want[..., 1 : n_d - 1 : 2] = y[::-1, ..., 1 : n_d - 1 : 2]
        assert np.array_equal(np.moveaxis(t, 0, -1), np.bitwise_xor.accumulate(want, axis=-1))

    def test_hand_traced_chain_over_gf2(self):
        # UE 1 sees [1, 0, 0] and UE 2 [0, 0, 1]: UE 2 forwards its slot 1, a 0,
        # and UE 1 peels a_1 = 1, b_2 = 0 - 1 and a_3 = 0 - b_2, all 1 mod 2.
        t = _slots_first(np.array([[1, 0, 0]], np.uint8), np.array([[0, 0, 1]], np.uint8))
        d2d_sic(t, 3)
        t &= 1
        assert t[:, 0, 0].tolist() == [1, 1, 1]

    @pytest.mark.parametrize("n_d, slots", [(5, 5), (7, 7), (5, 6)])
    def test_zero_in_zero_out(self, n_d, slots):
        t = np.zeros((slots, 2, 4), np.int64)
        d2d_sic(t, n_d)
        assert not t.any()
