import numpy as np
import pytest
from hypothesis import given, strategies as st

from fran_d2d.det_xchannel import DetConfig, build_d2d_messages, det_channel, sic_decode
from fran_d2d.fran_schemes import run_end_to_end
from fran_d2d.model import SystemParams
from fran_d2d.ndt_formulas import delta_x, det_ndt


def bits(*vals):
    return np.array(vals, dtype=np.uint8)


class TestDetConfig:
    @pytest.mark.parametrize("nd", [1, 2, 4, 1025])
    def test_rejects_bad_level_counts(self, nd):
        with pytest.raises(ValueError, match=f"n_d.*{nd}"):
            DetConfig(nd)


class TestDetChannel:
    def test_zero_cross_input_passthrough(self):
        cfg = DetConfig(3)
        x1 = bits(1, 1, 0)
        y1, y2 = det_channel(x1, bits(0, 0, 0), cfg)
        assert np.array_equal(y1, x1)
        assert np.array_equal(y2, bits(0, 1, 1))  # shifted copy of x1

    def test_hand_traced_example(self):
        cfg = DetConfig(3)
        y1, y2 = det_channel(bits(1, 0, 1), bits(0, 1, 1), cfg)
        assert np.array_equal(y1, bits(1, 0, 0))
        assert np.array_equal(y2, bits(0, 0, 1))

    def test_swap_symmetry(self):
        cfg = DetConfig(5)
        rng = np.random.default_rng(3)
        x1 = rng.integers(0, 2, 5, dtype=np.uint8)
        x2 = rng.integers(0, 2, 5, dtype=np.uint8)
        y1, y2 = det_channel(x1, x2, cfg)
        y1s, y2s = det_channel(x2, x1, cfg)
        assert np.array_equal(y1, y2s)
        assert np.array_equal(y2, y1s)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            det_channel(bits(1, 0), bits(0, 1, 1), DetConfig(3))


class TestD2dMessages:
    def test_hand_example(self):
        cfg = DetConfig(3)
        y1, y2 = det_channel(bits(1, 0, 1), bits(0, 1, 1), cfg)
        _, v2 = build_d2d_messages(y1, y2, cfg)
        assert np.array_equal(v2, bits(0))

    def test_message_length(self):
        cfg = DetConfig(5)
        y = np.zeros(5, dtype=np.uint8)
        v1, v2 = build_d2d_messages(y, y, cfg)
        assert v1.shape[-1] == 2 and v2.shape[-1] == 2

    def test_zero_in_zero_out(self):
        cfg = DetConfig(7)
        y = np.zeros(7, dtype=np.uint8)
        v1, v2 = build_d2d_messages(y, y, cfg)
        assert not v1.any() and not v2.any()


class TestSicDecode:
    def test_hand_traced_chain(self):
        cfg = DetConfig(3)
        decoded = sic_decode(bits(1, 0, 0), bits(0), cfg)
        assert np.array_equal(decoded, bits(1, 1, 1))

    def test_all_zero(self):
        cfg = DetConfig(5)
        decoded = sic_decode(np.zeros(5, np.uint8), np.zeros(2, np.uint8), cfg)
        assert not decoded.any()

    def test_exhaustive_three_levels(self):
        cfg = DetConfig(3)
        for c1 in range(8):
            for c2 in range(8):
                x1 = bits(*((c1 >> k) & 1 for k in range(3)))
                x2 = bits(*((c2 >> k) & 1 for k in range(3)))
                y1, y2 = det_channel(x1, x2, cfg)
                v1, v2 = build_d2d_messages(y1, y2, cfg)
                d1 = sic_decode(y1, v2, cfg)
                d2 = sic_decode(y2, v1, cfg)
                assert np.array_equal(d1, bits(x1[0], x2[1], x1[2]))
                assert np.array_equal(d2, bits(x2[0], x1[1], x2[2]))

    @given(
        nd=st.sampled_from([3, 5, 7, 9, 11]),
        seed=st.integers(0, 2**31),
    )
    def test_roundtrip_property(self, nd, seed):
        cfg = DetConfig(nd)
        rng = np.random.default_rng(seed)
        x1 = rng.integers(0, 2, nd, dtype=np.uint8)
        x2 = rng.integers(0, 2, nd, dtype=np.uint8)
        y1, y2 = det_channel(x1, x2, cfg)
        v1, v2 = build_d2d_messages(y1, y2, cfg)
        d1 = sic_decode(y1, v2, cfg)
        d2 = sic_decode(y2, v1, cfg)
        want1 = np.where(np.arange(nd) % 2 == 0, x1, x2)
        want2 = np.where(np.arange(nd) % 2 == 0, x2, x1)
        assert np.array_equal(d1, want1)
        assert np.array_equal(d2, want2)


def _det_run(nd, length, r_d, seed=0):
    """``d2d_det`` through ``run_end_to_end`` with log2 P equal to the level count."""
    params = SystemParams(mu=0.5, r_f=0.0, r_d=r_d, file_bits=length, power=2.0**nd)
    return run_end_to_end(params, seed, "d2d_det", n_d=nd)


class TestRunDetDelivery:
    """The half-cached deterministic delivery, run by ``run_end_to_end``."""

    def test_accounting_example(self):
        res = _det_run(5, 400, r_d=1.0)
        assert res.latency.t_e == 100.0
        assert res.latency.t_d == pytest.approx(40.0)
        assert res.latency.t_f == 0.0
        assert res.ndt_estimate == pytest.approx(1.75)
        assert res.ndt_estimate == pytest.approx(det_ndt(5, 1.0), abs=1e-12)

    @pytest.mark.parametrize("nd", [3, 5, 11, 21, 41])
    def test_exact_recovery(self, nd):
        for seed in range(25):
            res = _det_run(nd, 20 * (nd - 1), r_d=2.0, seed=seed)
            assert res.exact and res.mismatched_bits == 0

    def test_minimal_payload_single_use(self):
        nd = 5
        res = _det_run(nd, nd - 1, r_d=1.0)
        assert res.exact
        assert res.latency.t_e == 1.0

    def test_d2d_budget_is_exact(self):
        # (n_d-1)/2 message bits per use never exceed the r_d * n_d level budget.
        for nd in (3, 5, 9):
            for rd in (0.5, 1.0, 2.0):
                res = _det_run(nd, 4 * (nd - 1), rd)
                total_bits = (nd - 1) // 2 * res.latency.t_e
                assert total_bits <= res.latency.t_d * rd * nd + 1e-9

    def test_per_ue_yield(self):
        # n_d fresh bits decoded per use, n_d - 1 amortized fresh payload bits.
        nd = 7
        length = 12 * (nd - 1)
        res = _det_run(nd, length, 1.0)
        assert res.latency.t_e * (nd - 1) == length

    def test_ndt_matches_closed_form(self):
        for nd in (3, 9, 21, 41):
            for rd in (0.5, 1.5, 3.0):
                res = _det_run(nd, 2 * (nd - 1), rd)
                assert res.ndt_estimate == pytest.approx(det_ndt(nd, rd), abs=1e-12)

    def test_limit_gap_to_delta_x(self):
        for nd in (11, 21, 41):
            for rd in (0.5, 2.0):
                assert abs(det_ndt(nd, rd) - delta_x(rd)) <= 2.0 / nd

    def test_length_off_block_is_padded(self):
        # L = 14 at P = 2^16 (17 levels) fills one use of 16 bits; the
        # estimate normalizes by the 14 bits delivered: (1 + 4/17) * 17/14.
        params = SystemParams(mu=0.5, r_f=0.0, r_d=2.0, file_bits=14, power=2.0**16)
        res = run_end_to_end(params, 0, "d2d_det")
        assert res.exact and res.details == {"n_d": 17}
        assert res.latency.t_e == 1.0
        assert res.ndt_estimate == 1.5

    def test_zero_d2d_rate_rejected(self):
        with pytest.raises(ValueError):
            _det_run(5, 4, 0.0)
