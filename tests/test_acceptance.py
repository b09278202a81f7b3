"""Acceptance suite: one test per top-level criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.

Criterion 2 is known-red: its pinned tolerances (0.02 / 0.03 at 41 layers)
are tighter than the exact closed-form gaps, which are identically
1/(n_d - 1) = 0.025 for the deterministic-model curve and
2/(n_d - 1) = 0.05 for the alignment curve.  The assertions are kept as
stated rather than loosened; see the convergence sub-checks that do hold.
"""

import math
import time

import numpy as np
import pytest

from fran_d2d import det_xchannel, fran_schemes, real_ia
from fran_d2d.cli import render_sweep, SweepSpec
from fran_d2d.model import SystemParams, d2d_sic, draw_csi
from fran_d2d.ndt_formulas import (
    delta_nd,
    delta_x,
    det_ndt,
    lower_bound,
    minimum_ndt,
    zf_compress_forward_ndt,
)

MU_GRID = [round(0.05 * k, 10) for k in range(21)]
RATE_GRID = [round(0.25 * k, 10) for k in range(13)]


def _grid_params():
    for mu in MU_GRID:
        for rf in RATE_GRID:
            for rd in RATE_GRID:
                yield SystemParams(mu=mu, r_f=rf, r_d=rd)


def _equal_ndt(a: float, b: float, tol: float = 1e-9) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def test_criterion_1_theorem_tightness():
    start = time.perf_counter()
    checked = 0
    for params in _grid_params():
        optimum = minimum_ndt(params)
        bound = lower_bound(params)
        _, achievable = fran_schemes.best_achievable(params)
        assert _equal_ndt(optimum, bound), params
        assert _equal_ndt(optimum, achievable), params
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 3549
    assert elapsed < 5.0, f"tightness sweep took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: optimum == bound == achievable on {checked} "
          f"grid points ({elapsed:.2f}s)")


def test_criterion_2_layer_count_convergence():
    # Convergence toward 1 + 1/(2 r_d) holds and is monotone.
    target = delta_x(2.0)
    seq_det = [det_ndt(nd, 2.0) for nd in (3, 5, 11, 21, 41)]
    seq_ia = [delta_nd(nd, 2.0) for nd in (3, 5, 11, 21, 41)]
    assert all(a > b for a, b in zip(seq_det, seq_det[1:]))
    assert all(a > b for a, b in zip(seq_ia, seq_ia[1:]))
    assert seq_det[-1] - target == pytest.approx(1.0 / 40.0)
    assert seq_ia[-1] - target == pytest.approx(2.0 / 40.0)

    gap_det = abs(det_ndt(41, 2.0) - 1.25)
    gap_ia = abs(delta_nd(41, 2.0) - 1.25)
    print(f"\ncriterion 2: |det_ndt(41,2) - 1.25| = {gap_det:.4f} (required <= 0.02), "
          f"|delta_nd(41,2) - 1.25| = {gap_ia:.4f} (required <= 0.03)")
    print("criterion 2: the exact gaps are 1/(n_d-1) = 0.025 and 2/(n_d-1) = 0.05, "
          "so the pinned tolerances cannot hold at n_d = 41; kept as stated.")
    assert gap_det <= 0.02, "exact gap 1/(n_d-1) = 0.025 exceeds the pinned 0.02"
    assert gap_ia <= 0.03, "exact gap 2/(n_d-1) = 0.05 exceeds the pinned 0.03"
    print("PASS criterion 2")


def test_criterion_3_deterministic_exactness():
    start = time.perf_counter()
    # All 64 pairs of 3-level inputs, one channel use each, as one block.
    codes = (np.arange(64)[:, None] >> np.arange(6)) & 1
    x1, x2 = codes[:, :3], codes[:, 3:]
    d1, d2 = det_xchannel.transmit(x1, x2, det_xchannel.DetConfig(3))
    assert np.array_equal(d1, np.stack([x1[:, 0], x2[:, 1], x1[:, 2]], axis=1))
    assert np.array_equal(d2, np.stack([x2[:, 0], x1[:, 1], x2[:, 2]], axis=1))

    rng = np.random.default_rng(1234)
    for nd in (5, 11, 21, 41):
        cfg = det_xchannel.DetConfig(nd)
        x1 = rng.integers(0, 2, size=(1000, nd), dtype=np.uint8)
        x2 = rng.integers(0, 2, size=(1000, nd), dtype=np.uint8)
        # D2D payload per channel use: the levels of UE 2 that UE 1's decoding reads.
        y1, y2 = det_xchannel.det_channel(x1, x2, cfg)
        observed = np.stack([y1.T, y2.T], axis=1)

        def ue1_decodes(t):
            t = t.copy()
            d2d_sic(t, nd)
            return t[:, 0] & 1

        read = 0
        for level in range(nd):
            flipped = observed.copy()
            flipped[level, 1] ^= 1
            read += not np.array_equal(ue1_decodes(flipped), ue1_decodes(observed))
        assert read == (nd - 1) // 2
        d1, d2 = det_xchannel.transmit(x1, x2, cfg)
        odd = np.arange(nd) % 2 == 0
        want1 = np.where(odd, x1, x2)
        want2 = np.where(odd, x2, x1)
        assert np.array_equal(d1, want1), f"decode errors at n_d={nd}"
        assert np.array_equal(d2, want2), f"decode errors at n_d={nd}"

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"deterministic suite took {elapsed:.1f}s"
    print(f"\nPASS criterion 3: exhaustive n_d=3 and 4x1000 random trials exact "
          f"({elapsed:.2f}s)")


def test_criterion_4_real_ia_zero_noise():
    start = time.perf_counter()
    rng = np.random.default_rng(4321)
    runs = 0
    for nd in (3, 5):
        for q in (2, 4):
            for seed in range(100):
                csi = draw_csi(seed)
                gains = real_ia.precoder_gains(csi, nd)
                assert real_ia.alignment_residual(gains, csi) <= 1e-10
                cfg = real_ia.config_from_q(csi, nd, q, eps_prime=0.5)
                a_idx, b_idx = rng.integers(0, q, size=(2, 1, nd))
                _, resolved, in_range = real_ia.transmit(csi, cfg, a_idx, b_idx)
                assert in_range.all()
                assert np.array_equal(resolved, real_ia._resolved_truth(a_idx, b_idx))
                runs += 1
    elapsed = time.perf_counter() - start
    assert runs == 400
    assert elapsed < 30.0, f"zero-noise suite took {elapsed:.1f}s"
    print(f"\nPASS criterion 4: 400 zero-noise pipelines exact, alignment "
          f"residuals <= 1e-10 ({elapsed:.2f}s)")


def test_criterion_5_real_ia_snr_trend():
    # Exhaustive demodulation is out of reach at these constellation sizes
    # (up to ~3e10 candidates at P = 2^36), so the trend is checked on the
    # minimum-distance margin error event, which shares the noise draws
    # across the ladder; the finite-power delivery-time estimate is checked
    # against the 2.25 closed form.  Average-power scaling is used, matching
    # the power constraint the constellation scaling argument relies on.
    start = time.perf_counter()
    seeds = range(200)
    rates = []
    for power in (2.0**24, 2.0**30, 2.0**36):
        vals = [
            real_ia.run_ia_delivery(
                seed, 3, 0.05, power, 2.0, n_uses=25,
                demod="margin", power_mode="average",
            ).symbol_error_rate
            for seed in seeds
        ]
        rates.append(float(np.mean(vals)))
    assert rates[0] >= rates[1] >= rates[2], f"error trend not monotone: {rates}"

    estimates = [
        real_ia.run_ia_delivery(
            seed, 3, 0.05, 2.0**36, 2.0, n_uses=1,
            demod="margin", power_mode="average",
        ).ndt_estimate
        for seed in seeds
    ]
    mean_est = float(np.mean(estimates))
    reference = delta_nd(3, 2.0)
    assert reference == pytest.approx(2.25)
    rel_dev = abs(mean_est - reference) / reference
    assert rel_dev <= 0.10, f"estimate {mean_est:.3f} deviates {rel_dev:.1%}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"SNR trend suite took {elapsed:.1f}s"
    print(f"\nPASS criterion 5: margin error rates {[round(r, 4) for r in rates]} "
          f"nonincreasing; mean estimate {mean_est:.3f} within "
          f"{rel_dev:.1%} of 2.25 ({elapsed:.2f}s)")


def test_criterion_6_regime_properties():
    start = time.perf_counter()
    for params in _grid_params():
        base = minimum_ndt(SystemParams(mu=params.mu, r_f=params.r_f, r_d=0.0))
        val = minimum_ndt(params)
        if params.r_d <= max(1.0, params.r_f):
            assert _equal_ndt(val, base), f"D2D should be irrelevant at {params}"
        elif 0.0 < params.mu < 1.0 and math.isfinite(base):
            assert val < base - 1e-12, f"D2D should strictly help at {params}"

    for mu in (0.55, 0.75, 0.95):
        for rd in (1.25, 2.0, 3.0):
            vals = {
                minimum_ndt(SystemParams(mu=mu, r_f=rf, r_d=rd))
                for rf in RATE_GRID
                if rd > max(1.0, rf)
            }
            assert len(vals) == 1, f"rf-dependence at mu={mu}, rd={rd}"

    for rf in RATE_GRID:
        for rd in RATE_GRID:
            vals = [minimum_ndt(SystemParams(mu=m, r_f=rf, r_d=rd)) for m in MU_GRID]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            for i in range(1, len(vals) - 1):
                assert vals[i - 1] + vals[i + 1] >= 2 * vals[i] - 1e-9

    elapsed = time.perf_counter() - start
    print(f"\nPASS criterion 6: irrelevance/benefit thresholds, rf-independence, "
          f"monotonicity and convexity in mu ({elapsed:.2f}s)")


def test_criterion_7_sweep_reproduces_figure_structure():
    spec = SweepSpec(
        mu_grid=tuple(MU_GRID),
        rf_grid=(0.5,),
        rd_grid=(0.0, 0.5, 2.0),
        fmt="csv",
    )
    rows = [
        line.split(",")
        for line in render_sweep(spec).splitlines()[2:]
    ]
    curves: dict[str, dict[str, str]] = {}
    for mu, rf, rd, _regime, ndt_min, *_ in rows:
        curves.setdefault(rd, {})[mu] = ndt_min

    weak, strong, none = curves["0.5"], curves["2"], curves["0"]
    assert weak == none, "weak D2D curve must coincide with the no-D2D curve"
    for mu in weak:
        lo, hi = float(strong[mu]), float(weak[mu])
        if mu in ("0", "1"):
            assert lo == hi, f"curves must meet at mu={mu}"
        else:
            assert hi > lo, f"weak-D2D curve must sit strictly above at mu={mu}"
    print("\nPASS criterion 7: sweep curves ordered, equal exactly at mu in {0, 1}, "
          "weak-D2D curve identical to no-D2D")


def test_criterion_8_baseline_ordering():
    for rd in RATE_GRID:
        if rd <= 0.0:
            continue
        assert zf_compress_forward_ndt(rd) > delta_x(rd)
    print("\nPASS criterion 8: compress-forward baseline strictly above the "
          "D2D X-channel delivery time for every positive rate")
