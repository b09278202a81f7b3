import numpy as np
import pytest
from hypothesis import given, strategies as st

from fran_d2d.det_xchannel import DetConfig, det_channel, transmit
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


class TestTransmit:
    """The channel, the one D2D/SIC step of ``model`` and the reduction mod 2."""

    def test_hand_traced_block(self):
        # y1 = [1, 0, 0], y2 = [0, 0, 1]; UE 2 forwards its level 2, a 0.
        d1, d2 = transmit(np.array([[1, 0, 1]]), np.array([[0, 1, 1]]), DetConfig(3))
        assert np.array_equal(d1, [bits(1, 1, 1)])
        assert np.array_equal(d2, [bits(0, 0, 1)])

    def test_all_zero(self):
        resolved = transmit(np.zeros((3, 5), np.uint8), np.zeros((3, 5), np.uint8), DetConfig(5))
        assert resolved.shape == (2, 3, 5) and not resolved.any()

    def test_exhaustive_three_levels_as_one_block(self):
        codes = (np.arange(64)[:, None] >> np.arange(6)) & 1
        x1, x2 = codes[:, :3], codes[:, 3:]
        d1, d2 = transmit(x1, x2, DetConfig(3))
        assert d1.dtype == np.uint8
        for c in range(64):
            assert np.array_equal(d1[c], bits(x1[c, 0], x2[c, 1], x1[c, 2]))
            assert np.array_equal(d2[c], bits(x2[c, 0], x1[c, 1], x2[c, 2]))

    @given(
        nd=st.sampled_from([3, 5, 7, 9, 11]),
        uses=st.integers(1, 5),
        seed=st.integers(0, 2**31),
    )
    def test_roundtrip_property(self, nd, uses, seed):
        rng = np.random.default_rng(seed)
        x1 = rng.integers(0, 2, (uses, nd), dtype=np.uint8)
        x2 = rng.integers(0, 2, (uses, nd), dtype=np.uint8)
        d1, d2 = transmit(x1, x2, DetConfig(nd))
        own = np.arange(nd) % 2 == 0
        assert np.array_equal(d1, np.where(own, x1, x2))
        assert np.array_equal(d2, np.where(own, x2, x1))

    def test_non_bits_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            transmit(np.full((1, 3), 2), np.zeros((1, 3)), DetConfig(3))


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
