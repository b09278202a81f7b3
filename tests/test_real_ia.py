import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fran_d2d import real_ia
from fran_d2d.fran_schemes import run_end_to_end
from fran_d2d.model import Csi, SystemParams, draw_csi
from fran_d2d.ndt_formulas import delta_nd
from fran_d2d.real_ia import (
    AlignedDemodulator,
    ConstellationInfeasibleError,
    IaConfig,
    SearchSpaceError,
    _BLOCK_ELEMENTS,
    _resolved_truth,
    alignment_residual,
    config_from_q,
    draw_unit_noise,
    effective_gains,
    encode,
    layer_ranges,
    min_distance,
    precoder_gains,
    receive,
    resolve,
    run_ia_delivery,
    select_constellation,
    transmit,
)


GOLDEN = Path(__file__).resolve().parents[1] / "benchmarks" / "golden.json"


@pytest.fixture
def second_pass(monkeypatch):
    """Counts the candidate sets ``_BoxSolver`` scores in its second pass."""
    count = []
    decide = real_ia._BoxSolver._decide

    def counted(self, *args):
        count.append(1)
        return decide(self, *args)

    monkeypatch.setattr(real_ia._BoxSolver, "_decide", counted)
    return count


@pytest.fixture
def seeded(monkeypatch):
    """Records ``_BoxSolver``'s seeded pass: (samples, decided) per call in
    ``calls`` and the sort tables it built in ``tables``."""
    record = SimpleNamespace(calls=[], tables=0)
    seed, sort = real_ia._BoxSolver._seeded, real_ia._BoxSolver._sorted_fractions

    def counted_seed(self, ys):
        index, rest = seed(self, ys)
        record.calls.append((len(ys), len(ys) - rest.size))
        return index, rest

    def counted_sort(self):
        record.tables += 1
        return sort(self)

    monkeypatch.setattr(real_ia._BoxSolver, "_seeded", counted_seed)
    monkeypatch.setattr(real_ia._BoxSolver, "_sorted_fractions", counted_sort)
    return record


@pytest.fixture
def branches(monkeypatch):
    """Records each ``_BoxSolver._nearest`` call as [samples, outer sums,
    branch], the branch being the first of "first pass" (``_lowest``),
    "one j" (``_decide``) and "scan" (``_scan``) that the call enters."""
    calls = []
    solver = real_ia._BoxSolver
    nearest = solver._nearest

    def counted(self, ys):
        calls.append([len(ys), self._re.size, None])
        return nearest(self, ys)

    def marked(name, method):
        def wrapped(self, *args):
            if calls[-1][2] is None:
                calls[-1][2] = name
            return method(self, *args)

        return wrapped

    monkeypatch.setattr(solver, "_nearest", counted)
    for name, attr in (("first pass", "_lowest"), ("one j", "_decide"), ("scan", "_scan")):
        monkeypatch.setattr(solver, attr, marked(name, getattr(solver, attr)))
    return calls


def _aligned_truth(a_idx, b_idx, ue):
    """The aligned tuple each UE receives for planted symbols, as ``demodulate`` returns it."""
    own, other = (a_idx, b_idx) if ue == 1 else (b_idx, a_idx)
    return np.concatenate([own[:, :1], own[:, 1:] + other[:, :-1], other[:, -1:]], axis=-1)


def exhaustive_points(gains, csi, cfg, ue):
    """The full noiseless received set at one UE, in C order over the alphabets."""
    points = np.zeros(1, dtype=complex)
    for size, gain in zip(layer_ranges(cfg.n_d, cfg.q), effective_gains(gains, csi, ue)):
        points = (points[:, None] + (cfg.a * gain) * np.arange(size)[None, :]).ravel()
    return points


def exhaustive_demodulate(gains, csi, cfg, ue, ys):
    """Reference demodulator: argmin over the full received set, per sample."""
    points = exhaustive_points(gains, csi, cfg, ue)
    flat = [np.argmin(np.abs(points - y)) for y in ys]
    return np.stack(np.unravel_index(flat, layer_ranges(cfg.n_d, cfg.q)), axis=-1)


def one_slot_demodulate(gains, csi, cfg, ue, ys):
    """Second oracle: enumerate every aligned slot but the last 2Q-1 one.

    That slot is solved by rounding and clipping in units of its step, half
    down, and ties between partial sums go to the lowest index.  It visits
    Q^2 (2Q-1)^(n_d-2) partial sums per sample, which is still fast where the
    full set is too large for ``exhaustive_demodulate``.
    """
    ranges = layer_ranges(cfg.n_d, cfg.q)
    steps = cfg.a * effective_gains(gains, csi, ue)
    solved = cfg.n_d - 1
    rest = ranges[:solved] + ranges[solved + 1 :]
    partial = np.zeros(1, dtype=complex)
    for size, step in zip(rest, np.delete(steps, solved)):
        partial = (partial[:, None] + step * np.arange(size)[None, :]).ravel()
    unit = 1.0 / steps[solved]
    partial *= unit
    out = []
    for y in ys * unit:
        t = y.real - partial.real
        k = np.clip(np.ceil(t - 0.5), 0, ranges[solved] - 1)
        p = np.argmin((t - k) ** 2 + (y.imag - partial.imag) ** 2)
        out.append(np.insert(np.unravel_index(p, rest), solved, int(k[p])))
    return np.array(out)


def difference_grid_min_distance(gains, csi, cfg, ue):
    """Oracle for ``min_distance``: the minimum over the whole difference grid.

    Every difference of two valid aligned tuples lies on the centered grid
    with per-slot ranges (2Q-1, 4Q-3, ..., 4Q-3, 2Q-1) and vice versa, so the
    minimum over that grid, zero excluded, is the minimum pairwise distance.
    It holds (2Q-1)^2 (4Q-3)^(n_d-1) points, 3.6e6 at n_d = 3, q = 16.
    """
    diff_ranges = (2 * cfg.q - 1,) + (4 * cfg.q - 3,) * (cfg.n_d - 1) + (2 * cfg.q - 1,)
    values = np.zeros(1, dtype=complex)
    for size, gain in zip(diff_ranges, effective_gains(gains, csi, ue)):
        offsets = np.arange(size) - (size - 1) // 2
        values = (values[:, None] + (cfg.a * gain) * offsets[None, :]).ravel()
    center = np.ravel_multi_index(tuple((size - 1) // 2 for size in diff_ranges), diff_ranges)
    dist = np.abs(values)
    dist[center] = np.inf  # exclude the zero difference
    return float(dist.min())


def planted_noisy_and_far(csi, gains, cfg, ue, rng, scales, d_min, n=16):
    """Planted points plus noise at each scale (units of d_min), then far samples.

    The far samples sit 100 constellation spans from the centre in n
    directions, where the clips of both solved slots bind.
    """
    a_idx, b_idx = rng.integers(0, cfg.q, size=(2, n, cfg.n_d))
    clean = plant_and_receive(csi, gains, cfg, a_idx, b_idx)[:, ue - 1]
    noisy = [clean + s * d_min * draw_unit_noise(rng, (n,)) for s in scales]
    steps = cfg.a * effective_gains(gains, csi, ue)
    sizes = np.array(layer_ranges(cfg.n_d, cfg.q)) - 1
    span = max(np.abs(steps) @ sizes, cfg.a)
    angles = rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * np.arange(n) / n
    far = steps @ sizes / 2.0 + 100.0 * span * np.exp(1j * angles)
    return np.concatenate([*noisy, far])


def plant_and_receive(csi, gains, cfg, a_idx, b_idx, noise=None):
    return receive(encode(a_idx, b_idx, gains, cfg.a), csi, noise=noise)


def demodulators(csi, gains, cfg):
    return tuple(AlignedDemodulator(gains, csi, cfg, ue) for ue in (1, 2))


class TestPrecoderGains:
    def test_first_layer_formula(self):
        for seed in range(10):
            csi = draw_csi(seed)
            for nd in (3, 5, 7):
                gains = precoder_gains(csi, nd)
                want = (csi.h11 * csi.h22) ** ((nd - 1) // 2)
                assert gains.g[0, 0] == pytest.approx(want)
                assert gains.g[1, 0] == pytest.approx(want)

    def test_alignment_identities(self):
        for seed in range(30):
            csi = draw_csi(seed)
            for nd in (3, 5, 7):
                gains = precoder_gains(csi, nd)
                assert alignment_residual(gains, csi) <= 1e-10

    def test_single_identity_directly(self):
        csi = draw_csi(11)
        gains = precoder_gains(csi, 5)
        lhs = csi.h11 * gains.g[0, 1]
        rhs = csi.h12 * gains.g[1, 0]
        assert abs(lhs - rhs) / abs(lhs) <= 1e-10

    def test_effective_gains_distinct(self):
        for seed in range(20):
            csi = draw_csi(seed)
            gains = precoder_gains(csi, 3)
            eff = effective_gains(gains, csi, ue=1)
            assert len(eff) == 4
            for i in range(4):
                for j in range(i + 1, 4):
                    assert abs(eff[i] - eff[j]) > 1e-12

    def test_even_layer_count_rejected(self):
        with pytest.raises(ValueError):
            precoder_gains(draw_csi(0), 4)


class TestSelectConstellation:
    def test_power_constraint_exhaustive_peak(self):
        # Every symbol choice must respect the peak budget in peak mode.
        for seed in range(10):
            csi = draw_csi(seed)
            cfg = select_constellation(csi, 3, power=2.0**14, eps_prime=0.5)
            gains = precoder_gains(csi, 3)
            grid = np.stack(
                np.meshgrid(*[np.arange(cfg.q)] * 3, indexing="ij"), axis=-1
            ).reshape(-1, 3)
            worst = (np.abs(encode(grid, grid, gains, cfg.a)) ** 2).max()
            assert worst <= cfg.power * (1.0 + 1e-9)

    def test_average_power_constraint(self):
        # Expected power under uniform symbols stays within budget.
        rng = np.random.default_rng(0)
        for seed in range(10):
            csi = draw_csi(seed)
            cfg = select_constellation(
                csi, 3, power=2.0**14, eps_prime=0.5, power_mode="average"
            )
            gains = precoder_gains(csi, 3)
            trials = 4000
            ab = rng.integers(0, cfg.q, size=(trials, 2, 3))
            x = encode(ab[:, 0], ab[:, 1], gains, cfg.a)
            assert ((np.abs(x) ** 2).mean(axis=0) <= cfg.power * 1.05).all()

    def test_high_snr_size_exponent(self):
        csi = draw_csi(4)
        nd, eps = 3, 0.5
        target = 1.0 / (nd + 1 + 2 * eps)
        devs = []
        for k in (16, 32, 64):
            cfg = select_constellation(csi, nd, 2.0**k, eps)
            devs.append(abs(math.log2(cfg.q) / k - target))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.02

    def test_infeasible_power_raises(self):
        csi = draw_csi(0)
        with pytest.raises(ConstellationInfeasibleError):
            select_constellation(csi, 7, power=4.0, eps_prime=2.0)

    @pytest.mark.parametrize("eps_prime", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_eps_prime_rejected_by_name(self, eps_prime):
        csi = draw_csi(0)
        with pytest.raises(ValueError, match="eps_prime"):
            select_constellation(csi, 3, power=2.0**16, eps_prime=eps_prime)
        with pytest.raises(ValueError, match="eps_prime"):
            config_from_q(csi, 3, 4, eps_prime=eps_prime)

    @pytest.mark.parametrize("n_d, seed", [(1001, 0), (701, 6), (1351, 6)])
    def test_gains_beyond_the_float_range_are_infeasible(self, n_d, seed):
        # Seed 0's gains underflow, so the power margin is 0; seed 6's
        # overflow the margin at n_d=701 and the gains themselves at 1351.
        with pytest.raises(ConstellationInfeasibleError, match=f"n_d={n_d}"):
            select_constellation(draw_csi(seed), n_d, power=2.0**20, eps_prime=0.5)

    def test_step_beyond_the_float_range_is_infeasible(self):
        # q**(2 + 600) * q squared overflows a float.
        with pytest.raises(ConstellationInfeasibleError):
            select_constellation(draw_csi(0), 5, power=2.0**20, eps_prime=600.0)

    def test_rounding_never_below_two(self):
        cfg = select_constellation(draw_csi(1), 3, power=2.0**12, eps_prime=3.0)
        assert cfg.q >= 2


class TestEncodeReceive:
    def test_all_zero_symbols(self):
        csi = draw_csi(2)
        gains = precoder_gains(csi, 3)
        cfg = config_from_q(csi, 3, 4, eps_prime=0.5)
        zeros = np.zeros((1, 3), dtype=int)
        x = encode(zeros, zeros, gains, cfg.a)
        assert x.shape == (1, 2) and (x == 0).all()
        y = receive(x, csi)
        assert y.shape == (1, 2) and (y == 0).all()

    def test_single_layer_linearity(self):
        csi = draw_csi(2)
        gains = precoder_gains(csi, 3)
        cfg = config_from_q(csi, 3, 4, eps_prime=0.5)
        x = encode(np.array([[1, 0, 0]]), np.zeros((1, 3), dtype=int), gains, cfg.a)
        assert x[0, 0] == pytest.approx(gains.g[0, 0] * cfg.a)

    def test_dimension_mismatch_rejected(self):
        csi = draw_csi(2)
        gains = precoder_gains(csi, 5)
        with pytest.raises(ValueError):
            encode(np.zeros((1, 3), dtype=int), np.zeros((1, 5), dtype=int), gains, 1.0)
        with pytest.raises(ValueError):
            encode(np.zeros((1, 3), dtype=int), np.zeros((1, 3), dtype=int), gains, 1.0)

    def test_received_signal_matches_aligned_form(self):
        # Noiseless y equals sum of effective gains times aligned values.
        rng = np.random.default_rng(0)
        for seed in range(20):
            csi = draw_csi(seed)
            gains = precoder_gains(csi, 5)
            cfg = config_from_q(csi, 5, 4, eps_prime=0.5)
            a_idx = rng.integers(0, 4, (3, 5))
            b_idx = rng.integers(0, 4, (3, 5))
            y = plant_and_receive(csi, gains, cfg, a_idx, b_idx)
            for ue in (1, 2):
                eff = effective_gains(gains, csi, ue)
                recon = (cfg.a * _aligned_truth(a_idx, b_idx, ue)) @ eff
                assert (np.abs(y[:, ue - 1] - recon) <= 1e-9 * np.abs(y[:, ue - 1])).all()

    def test_noise_power_calibration(self):
        zs = draw_unit_noise(np.random.default_rng(5), (10**5,))
        assert np.mean(np.abs(zs) ** 2) == pytest.approx(1.0, rel=0.05)


class TestDemodulation:
    def test_zero_noise_exact_recovery(self):
        rng = np.random.default_rng(1)
        for seed in range(25):
            csi = draw_csi(seed)
            gains = precoder_gains(csi, 3)
            cfg = config_from_q(csi, 3, 4, eps_prime=0.5)
            demod = AlignedDemodulator(gains, csi, cfg, ue=1)
            assert demod.candidate_count == 784
            a_idx = rng.integers(0, 4, (4, 3))
            b_idx = rng.integers(0, 4, (4, 3))
            y = plant_and_receive(csi, gains, cfg, a_idx, b_idx)
            got = demod.demodulate(y[:, 0])
            assert np.array_equal(got, _aligned_truth(a_idx, b_idx, 1))

    def test_degenerate_single_point_constellation(self):
        csi = draw_csi(3)
        gains = precoder_gains(csi, 3)
        cfg = IaConfig(n_d=3, q=1, eps_prime=0.5, power=4.0)
        obs = AlignedDemodulator(gains, csi, cfg, ue=1).demodulate(np.array([0j, 1 + 1j]))
        assert np.array_equal(obs, np.zeros((2, 4), dtype=int))

    def test_noise_within_margin_never_errs(self):
        # |z| < d_min/2 is a sufficient condition for correct demodulation.
        rng = np.random.default_rng(42)
        for seed in range(15):
            csi = draw_csi(seed)
            gains = precoder_gains(csi, 3)
            cfg = config_from_q(csi, 3, 4, eps_prime=0.5)
            d_min = min_distance(gains, csi, cfg, ue=1)
            demod = AlignedDemodulator(gains, csi, cfg, ue=1)
            a_idx = rng.integers(0, 4, (10, 3))
            b_idx = rng.integers(0, 4, (10, 3))
            phase = rng.uniform(0.0, 2.0 * math.pi, 10)
            noise = np.zeros((10, 2), dtype=complex)
            noise[:, 0] = 0.49 * d_min * np.exp(1j * phase)
            y = plant_and_receive(csi, gains, cfg, a_idx, b_idx, noise=noise)
            got = demod.demodulate(y[:, 0])
            assert np.array_equal(got, _aligned_truth(a_idx, b_idx, 1))

    def test_error_rate_decreases_with_power(self):
        ladder = (2.0**16, 2.0**20, 2.0**24)
        rates = []
        for power in ladder:
            vals = [
                run_ia_delivery(seed, 3, 1.0, power, 2.0, 8, demod="exact").symbol_error_rate
                for seed in range(25)
            ]
            rates.append(float(np.mean(vals)))
        assert rates[0] >= rates[1] >= rates[2]
        assert rates[2] < rates[0]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        nd_q=st.sampled_from(
            [(3, 1), (3, 2), (3, 3), (3, 5), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]
            + [(3, 8), (3, 13), (5, 4)]
        ),
        ue=st.sampled_from([1, 2]),
        noise=st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0, 30.0]),
    )
    def test_matches_exhaustive_oracle(self, seed, nd_q, ue, noise):
        # Noise is in units of the minimum distance, so from 0.5 up decisions
        # can be wrong; far samples sit 100 constellation spans away from the
        # centre in 16 directions, so the solved slot's clip binds at 0 and
        # at 2Q-2.
        nd, q = nd_q
        csi = draw_csi(seed)
        gains = precoder_gains(csi, nd)
        cfg = IaConfig(n_d=nd, q=q, eps_prime=0.5, power=4.0)
        rng = np.random.default_rng(seed)
        a_idx, b_idx = rng.integers(0, q, size=(2, 16, nd))
        near = plant_and_receive(csi, gains, cfg, a_idx, b_idx)[:, ue - 1]
        d_min = min_distance(gains, csi, cfg, ue) if q > 1 else cfg.a
        near = near + noise * d_min * draw_unit_noise(rng, (16,))
        steps = cfg.a * effective_gains(gains, csi, ue)
        sizes = np.array(layer_ranges(nd, q)) - 1
        span = max(np.abs(steps) @ sizes, cfg.a)
        angles = rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * np.arange(16) / 16
        far = steps @ sizes / 2.0 + 100.0 * span * np.exp(1j * angles)
        ys = np.concatenate([near, far])

        want = exhaustive_demodulate(gains, csi, cfg, ue, ys)
        got = AlignedDemodulator(gains, csi, cfg, ue).demodulate(ys)
        assert np.array_equal(got, want)
        wide = want[16:, 1:nd]
        if q > 1:
            assert (wide == 0).any(axis=0).all() and (wide == 2 * q - 2).any(axis=0).all()

    def test_block_boundaries(self):
        # 1025 uses at q=8 span several demodulation blocks of Q^2 outer
        # sums each and end inside one.
        uses, q = 1025, 8
        block = _BLOCK_ELEMENTS // q**2
        assert 1 < block < uses and uses % block != 0
        csi = draw_csi(0)
        gains = precoder_gains(csi, 3)
        cfg = config_from_q(csi, 3, q, eps_prime=0.5)
        demod = AlignedDemodulator(gains, csi, cfg, ue=1)
        rng = np.random.default_rng(8)
        a_idx, b_idx = rng.integers(0, q, size=(2, uses, 3))
        noise = min_distance(gains, csi, cfg, 1) * draw_unit_noise(rng, (uses, 2))
        y = plant_and_receive(csi, gains, cfg, a_idx, b_idx, noise=noise)[:, 0]
        whole = demod.demodulate(y)
        alone = np.concatenate([demod.demodulate(y[i : i + 1]) for i in range(uses)])
        assert np.array_equal(whole, alone)
        assert not np.array_equal(whole, _aligned_truth(a_idx, b_idx, 1))

    def test_search_cap_enforced(self):
        # n_d=7, q=60 has 60^2 * 119^4 (about 7.2e11) outer sums: the solver
        # refuses them before building any.
        csi = draw_csi(0)
        gains = precoder_gains(csi, 7)
        cfg = config_from_q(csi, 7, 60, eps_prime=0.5)
        tracemalloc.start()
        try:
            with pytest.raises(SearchSpaceError):
                AlignedDemodulator(gains, csi, cfg, ue=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestTwoSlotDemodulator:
    """``demodulate`` against the one-slot oracle, where the window is active."""

    def test_cli_power_channels(self):
        # The ``simulate ia`` defaults at n_d=3, P=2^24: q runs up to 60.
        for seed in range(36):
            csi = draw_csi(seed)
            gains = precoder_gains(csi, 3)
            cfg = select_constellation(csi, 3, 2.0**24, eps_prime=0.5)
            rng = np.random.default_rng(seed)
            a_idx, b_idx = rng.integers(0, cfg.q, size=(2, 16, 3))
            noise = draw_unit_noise(rng, (16, 2))
            y = plant_and_receive(csi, gains, cfg, a_idx, b_idx, noise=noise)
            for ue in (1, 2):
                ys = y[:, ue - 1]
                got = AlignedDemodulator(gains, csi, cfg, ue).demodulate(ys)
                assert np.array_equal(got, one_slot_demodulate(gains, csi, cfg, ue, ys))

    @pytest.mark.parametrize("nd, q", [(3, 8), (3, 13), (5, 4), (7, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_noise_scales_and_far_samples(self, nd, q, seed):
        csi = draw_csi(seed)
        gains = precoder_gains(csi, nd)
        cfg = config_from_q(csi, nd, q, eps_prime=0.5)
        rng = np.random.default_rng(seed)
        for ue in (1, 2):
            d_min = min_distance(gains, csi, cfg, ue)
            ys = planted_noisy_and_far(
                csi, gains, cfg, ue, rng, (0.0, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0, 1000.0), d_min
            )
            got = AlignedDemodulator(gains, csi, cfg, ue).demodulate(ys)
            assert np.array_equal(got, one_slot_demodulate(gains, csi, cfg, ue, ys))

    @pytest.mark.parametrize("im_h22", [0.0, 1e-12, 1e-6])
    @pytest.mark.parametrize("q", [2, 8])
    def test_real_and_nearly_real_window_step(self, im_h22, q):
        # At UE 1 (n_d=3) the window slot's step over the rounded slot's is
        # h22 / h21 = 2Q-1 (+ a tiny imaginary part), with every product
        # exact, so the window's imaginary step is exactly 0 (or tiny) while
        # the other slots' steps are imaginary: the points do not coincide.
        csi = Csi(h11=1 + 1j, h12=1 - 1j, h21=1 + 0j, h22=complex(2 * q - 1, im_h22))
        gains = precoder_gains(csi, 3)
        cfg = config_from_q(csi, 3, q, eps_prime=0.5)
        steps = cfg.a * effective_gains(gains, csi, 1)
        assert ((steps[1] * (1.0 / steps[2])).imag == 0.0) == (im_h22 == 0.0)
        rng = np.random.default_rng(q)
        for ue in (1, 2):
            d_min = min_distance(gains, csi, cfg, ue)
            ys = planted_noisy_and_far(
                csi, gains, cfg, ue, rng, (0.0, 0.1, 0.5, 1.0, 10.0, 1000.0), d_min
            )
            got = AlignedDemodulator(gains, csi, cfg, ue).demodulate(ys)
            assert np.array_equal(got, one_slot_demodulate(gains, csi, cfg, ue, ys))

    def test_far_samples_scan_in_bounded_chunks(self):
        # 100 constellation spans out almost every window value of almost
        # every outer sum is within reach, so the second pass would hold
        # about 50 times the first's elements at once; scanned in chunks of
        # about _BLOCK_ELEMENTS it stays within a few block-sized arrays.
        csi = draw_csi(0)
        gains = precoder_gains(csi, 3)
        cfg = select_constellation(csi, 3, 2.0**24, eps_prime=0.5)
        assert cfg.q == 28
        ys = planted_noisy_and_far(csi, gains, cfg, 1, np.random.default_rng(0), (), None, n=64)
        demod = AlignedDemodulator(gains, csi, cfg, 1)
        tracemalloc.start()
        try:
            got = demod.demodulate(ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert np.array_equal(got, one_slot_demodulate(gains, csi, cfg, 1, ys))

    def test_exact_ties_on_a_real_channel(self):
        # A real integer channel at q=4 (A = 8) puts every aligned point on a
        # line with dyadic coordinates, many of them coinciding, so distances
        # are exact and samples on a fine grid tie between tuples whose
        # outer sums and window values are ordered differently.
        csi = Csi(h11=2 + 0j, h12=-1 + 0j, h21=2 + 0j, h22=1 + 0j)
        gains = precoder_gains(csi, 3)
        cfg = config_from_q(csi, 3, 4, eps_prime=0.5)
        assert cfg.a == 8.0
        ys = 4.0 * np.arange(-40, 200) + 1j * np.repeat([0.0, 2.0, -8.0], 80)
        for ue in (1, 2):
            got = AlignedDemodulator(gains, csi, cfg, ue).demodulate(ys)
            assert np.array_equal(got, one_slot_demodulate(gains, csi, cfg, ue, ys))

    @pytest.mark.parametrize("nd, q", [(3, 4), (3, 8), (5, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_planted_blocks_skip_the_second_pass(self, second_pass, nd, q, seed):
        # Noiseless and low-noise samples leave every window shorter than
        # half a step, so each block is decided from the first pass alone.
        csi = draw_csi(seed)
        gains = precoder_gains(csi, nd)
        cfg = config_from_q(csi, nd, q, eps_prime=0.5)
        rng = np.random.default_rng(seed)
        for ue in (1, 2):
            d_min = min_distance(gains, csi, cfg, ue)
            ys = planted_noisy_and_far(csi, gains, cfg, ue, rng, (0.0, 0.1), d_min)[:-16]
            second_pass.clear()  # min_distance's own queries may take it
            got = AlignedDemodulator(gains, csi, cfg, ue).demodulate(ys)
            assert not second_pass
            assert np.array_equal(got, exhaustive_demodulate(gains, csi, cfg, ue, ys))

    @pytest.mark.parametrize("nd, q", [(3, 8), (5, 3)])
    def test_far_samples_take_the_second_pass(self, second_pass, nd, q):
        csi = draw_csi(1)
        gains = precoder_gains(csi, nd)
        cfg = config_from_q(csi, nd, q, eps_prime=0.5)
        for ue in (1, 2):
            far = planted_noisy_and_far(csi, gains, cfg, ue, np.random.default_rng(ue), (), None)
            got = AlignedDemodulator(gains, csi, cfg, ue).demodulate(far)
            assert np.array_equal(got, one_slot_demodulate(gains, csi, cfg, ue, far))
            assert second_pass
            second_pass.clear()

    def test_exact_ties_on_a_complex_channel(self, second_pass):
        # Gaussian-integer gains at q=4 (A = 8) put every aligned point on
        # the lattice Z + iZ in units of the rounded slot's step, whose
        # inverse is dyadic, and the window step is i: so Im s != 0, many
        # tuples coincide, and distances are exact.  Samples on the lattice
        # points and 1/8 off them tie between tuples ordered differently,
        # and all their windows are short enough for the first pass alone.
        csi = Csi(h11=1 + 1j, h12=1 - 1j, h21=1 + 0j, h22=1j)
        gains = precoder_gains(csi, 3)
        cfg = config_from_q(csi, 3, 4, eps_prime=0.5)
        assert cfg.a == 8.0
        lattice = (np.arange(-3, 7)[:, None] + 1j * np.arange(-3, 7)).ravel()
        units = (lattice[:, None] + np.array([0.0, 0.125, -0.125j, 0.125 + 0.125j])).ravel()
        for ue in (1, 2):
            steps = cfg.a * effective_gains(gains, csi, ue)
            assert steps[1] / steps[2] == 1j
            ys = units * steps[2]
            got = AlignedDemodulator(gains, csi, cfg, ue).demodulate(ys)
            assert np.array_equal(got, one_slot_demodulate(gains, csi, cfg, ue, ys))
        assert not second_pass

    def test_exact_ties_split_over_small_chunks(self, monkeypatch):
        # Blocks and second-pass chunks of 8 elements spread the tied
        # candidates of each use over many chunks.
        monkeypatch.setattr("fran_d2d.real_ia._BLOCK_ELEMENTS", 8)
        self.test_exact_ties_on_a_real_channel()


class TestSeededDecision:
    """Blocks with more samples than outer sums, where each sample's seed may decide it."""

    @pytest.mark.parametrize("nd, q", [(3, 1), (3, 2), (3, 4), (5, 1), (5, 2), (5, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_oracles(self, seeded, nd, q, seed):
        # Noiseless, 0.1 d_min and far samples; q = 1 and 2 leave one and
        # four outer sums, whose sorted neighbours are wrapped entries.
        csi = draw_csi(seed)
        gains = precoder_gains(csi, nd)
        cfg = IaConfig(n_d=nd, q=q, eps_prime=0.5, power=4.0)
        rng = np.random.default_rng(seed)
        outer = q**2 * (2 * q - 1) ** (nd - 3)
        for ue in (1, 2):
            d_min = min_distance(gains, csi, cfg, ue) if q > 1 else cfg.a
            ys = planted_noisy_and_far(
                csi, gains, cfg, ue, rng, (0.0, 0.1), d_min, n=max(16, outer // 2 + 1)
            )
            demod = AlignedDemodulator(gains, csi, cfg, ue)
            seeded.calls.clear()
            got = demod.demodulate(ys)
            (samples, decided), = seeded.calls
            assert samples == len(ys) > outer and decided > 0
            assert np.array_equal(got, exhaustive_demodulate(gains, csi, cfg, ue, ys))
            alone = np.concatenate([demod.demodulate(ys[i : i + 1]) for i in range(len(ys))])
            assert np.array_equal(got, alone)
            assert len(seeded.calls) == 1  # single samples take the two-pass path

    def test_coincident_fractions_fall_back(self, seeded):
        # On the Gaussian-integer channel every outer sum's fraction is 0,
        # so no seed is apart from its neighbours.
        csi = Csi(h11=1 + 1j, h12=1 - 1j, h21=1 + 0j, h22=1j)
        gains = precoder_gains(csi, 3)
        cfg = config_from_q(csi, 3, 4, eps_prime=0.5)
        lattice = (np.arange(-3, 7)[:, None] + 1j * np.arange(-3, 7)).ravel()
        units = (lattice[:, None] + np.array([0.0, 0.125, -0.125j, 0.125 + 0.125j])).ravel()
        for ue in (1, 2):
            ys = units * cfg.a * effective_gains(gains, csi, ue)[2]
            got = AlignedDemodulator(gains, csi, cfg, ue).demodulate(ys)
            assert np.array_equal(got, one_slot_demodulate(gains, csi, cfg, ue, ys))
        assert seeded.calls == [(400, 0), (400, 0)]

    @pytest.mark.parametrize("im_h22", [0.0, 1e-12])
    def test_real_window_step_is_never_seeded(self, seeded, im_h22):
        # At UE 1 the window step is real (or nearly so): no seed there
        # decides anything.
        q = 4
        csi = Csi(h11=1 + 1j, h12=1 - 1j, h21=1 + 0j, h22=complex(2 * q - 1, im_h22))
        gains = precoder_gains(csi, 3)
        cfg = config_from_q(csi, 3, q, eps_prime=0.5)
        d_min = min_distance(gains, csi, cfg, 1)
        rng = np.random.default_rng(q)
        ys = planted_noisy_and_far(csi, gains, cfg, 1, rng, (0.0, 0.1), d_min, n=32)
        seeded.calls.clear()
        got = AlignedDemodulator(gains, csi, cfg, 1).demodulate(ys)
        assert np.array_equal(got, one_slot_demodulate(gains, csi, cfg, 1, ys))
        assert seeded.calls == ([] if im_h22 == 0.0 else [(96, 0)])

    def test_file_delivery_blocks_are_all_decided(self, seeded):
        # The benchmark's file-delivery channels: every d2d_ia sample at
        # L = 4096, P = 2^16 is decided by its seed.
        params = SystemParams(mu=0.5, r_f=1.0, r_d=2.0, file_bits=4096, power=2.0**16)
        for seed in range(12):
            assert run_end_to_end(params, seed, "d2d_ia").exact
        assert len(seeded.calls) == seeded.tables == 24
        assert all(decided == samples for samples, decided in seeded.calls)

    def test_noisy_block_falls_back_in_part(self, seeded, branches):
        # The undecided rest of a 1025-use block (noise in units of d_min)
        # still outnumbers the outer sums, and each input's rest reaches the
        # named branch of the two passes in such a call.
        uses = 1025
        for nd, q, scale, seed, branch in (
            (3, 8, 1.0, 0, "first pass"),
            (3, 4, 1.0, 1, "one j"),
            (3, 4, 1.0, 0, "scan"),
            (5, 2, 0.3, 1, "first pass"),
            (5, 2, 1.0, 1, "one j"),
            (5, 2, 3.0, 2, "scan"),
        ):
            csi = draw_csi(seed)
            gains = precoder_gains(csi, nd)
            cfg = config_from_q(csi, nd, q, eps_prime=0.5)
            rng = np.random.default_rng(8 + seed)
            a_idx, b_idx = rng.integers(0, q, size=(2, uses, nd))
            noise = scale * min_distance(gains, csi, cfg, 1) * draw_unit_noise(rng, (uses, 2))
            y = plant_and_receive(csi, gains, cfg, a_idx, b_idx, noise=noise)[:, 0]
            seeded.calls.clear()
            branches.clear()
            got = AlignedDemodulator(gains, csi, cfg, 1).demodulate(y)
            (samples, decided), = seeded.calls
            assert samples == uses and 0 < decided < uses
            assert branch in {taken for samples, outer, taken in branches if samples > outer}
            assert np.array_equal(got, one_slot_demodulate(gains, csi, cfg, 1, y))

    def test_ia_montecarlo_builds_no_table(self, seeded):
        # 16 uses against at least 13^2 outer sums: the two-pass path only.
        for seed in range(36):
            run_ia_delivery(seed, n_d=3, eps_prime=0.5, power=2**24, r_d=2, n_uses=16)
        assert seeded.calls == [] and seeded.tables == 0

    def test_long_noiseless_block_memory(self):
        # 2^16 uses at q = 4, decided in chunks of _BLOCK_ELEMENTS samples.
        # The result and the unravelled index take 4.5 MiB; one unchunked
        # seeded pass would peak above 6 MiB on its own.
        uses, q = 2**16, 4
        csi = draw_csi(1)
        gains = precoder_gains(csi, 3)
        cfg = config_from_q(csi, 3, q, eps_prime=0.5)
        a_idx, b_idx = np.random.default_rng(1).integers(0, q, size=(2, uses, 3))
        y = plant_and_receive(csi, gains, cfg, a_idx, b_idx)[:, 0]
        demod = AlignedDemodulator(gains, csi, cfg, 1)
        tracemalloc.start()
        try:
            got = demod.demodulate(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, _aligned_truth(a_idx, b_idx, 1))
        assert peak < 5.5 * 2**20


class TestMinDistance:
    def test_singleton_is_infinite(self):
        csi = draw_csi(3)
        gains = precoder_gains(csi, 3)
        cfg = IaConfig(n_d=3, q=1, eps_prime=0.5, power=4.0)
        assert min_distance(gains, csi, cfg, ue=1) == math.inf

    def test_positive_for_generic_channels(self):
        for seed in range(50):
            csi = draw_csi(seed)
            gains = precoder_gains(csi, 3)
            cfg = config_from_q(csi, 3, 2, eps_prime=0.5)
            for ue in (1, 2):
                assert min_distance(gains, csi, cfg, ue) > 0.0

    def test_matches_pairwise_bruteforce(self):
        # The difference-grid oracle equals the literal pairwise minimum.
        for seed in range(5):
            csi = draw_csi(seed)
            gains = precoder_gains(csi, 3)
            cfg = config_from_q(csi, 3, 2, eps_prime=0.5)
            pts = exhaustive_points(gains, csi, cfg, ue=1)
            diffs = np.abs(pts[:, None] - pts[None, :])
            diffs[np.diag_indices_from(diffs)] = np.inf
            want = pytest.approx(float(diffs.min()))
            assert difference_grid_min_distance(gains, csi, cfg, 1) == want
            assert min_distance(gains, csi, cfg, 1) == want

    @pytest.mark.parametrize(
        "nd, q", [(3, q) for q in range(2, 17)] + [(5, 2), (5, 3), (5, 4), (7, 2)]
    )
    def test_matches_difference_grid_oracle(self, nd, q):
        for seed in range(12):
            csi = draw_csi(seed)
            gains = precoder_gains(csi, nd)
            cfg = config_from_q(csi, nd, q, eps_prime=0.5)
            for ue in (1, 2):
                want = difference_grid_min_distance(gains, csi, cfg, ue)
                assert min_distance(gains, csi, cfg, ue) == pytest.approx(want, rel=1e-12)

    def test_exact_at_every_cli_power_channel(self):
        # The ``simulate ia`` defaults at n_d=3, P=2^24 give q = 13..60; the
        # difference grid would hold up to 8e8 points there.
        qs = set()
        for seed in range(36):
            csi = draw_csi(seed)
            gains = precoder_gains(csi, 3)
            cfg = select_constellation(csi, 3, 2.0**24, eps_prime=0.5)
            qs.add(cfg.q)
            for ue in (1, 2):
                assert 0.0 < min_distance(gains, csi, cfg, ue) < math.inf
        assert min(qs) == 13 and max(qs) == 60

    def test_grows_with_power(self):
        for seed in range(10):
            csi = draw_csi(seed)
            gains = precoder_gains(csi, 3)
            prev = 0.0
            for power in (2.0**20, 2.0**30, 2.0**40):
                cfg = select_constellation(csi, 3, power, eps_prime=3.0)
                d = min_distance(gains, csi, cfg, ue=1)
                assert d > prev
                prev = d

    def test_cap_enforced(self, monkeypatch):
        # The cap bounds each half-box's outer sums on its own: at n_d=3,
        # q=32 the largest half-box has 31 * 63 = 1953.
        csi = draw_csi(0)
        gains = precoder_gains(csi, 3)
        cfg = config_from_q(csi, 3, 32, eps_prime=0.5)
        monkeypatch.setattr(real_ia, "DEFAULT_SEARCH_CAP", 1952)
        with pytest.raises(SearchSpaceError):
            min_distance(gains, csi, cfg, ue=1)
        monkeypatch.setattr(real_ia, "DEFAULT_SEARCH_CAP", 1953)
        assert min_distance(gains, csi, cfg, ue=1) > 0.0


def peer_positions_read(c_own, c_peer, q):
    """0-based peer observation columns that change what ``resolve`` returns."""
    base, _ = resolve(c_own, c_peer, q)
    read = []
    for j in range(c_peer.shape[1]):
        bumped = c_peer.copy()
        bumped[:, j] += 1
        if not np.array_equal(resolve(c_own, bumped, q)[0], base):
            read.append(j)
    return read


class TestD2dAndSic:
    def _pipeline(self, seed, nd, q, corrupt=None):
        csi = draw_csi(seed)
        gains = precoder_gains(csi, nd)
        cfg = config_from_q(csi, nd, q, eps_prime=0.5)
        rng = np.random.default_rng(seed)
        a_idx = rng.integers(0, q, (1, nd))
        b_idx = rng.integers(0, q, (1, nd))
        if corrupt == "zero_symbols":
            a_idx = np.zeros((1, nd), dtype=int)
            b_idx = np.zeros((1, nd), dtype=int)
        y = plant_and_receive(csi, gains, cfg, a_idx, b_idx)
        demod1, demod2 = demodulators(csi, gains, cfg)
        return a_idx, b_idx, demod1.demodulate(y[:, 0]), demod2.demodulate(y[:, 1])

    def test_message_lengths_and_alphabet(self):
        # The D2D message is the peer's aligned sums at 1-based positions 2
        # and 4: two elements, each one of 2Q - 1 values.
        _, _, obs1, obs2 = self._pipeline(0, 5, 4)
        assert peer_positions_read(obs1, obs2, 4) == [1, 3]
        assert peer_positions_read(obs2, obs1, 4) == [1, 3]
        for obs in (obs1, obs2):
            assert ((obs[:, [1, 3]] >= 0) & (obs[:, [1, 3]] <= 2 * 4 - 2)).all()

    def test_three_layer_message_is_single_element(self):
        _, _, obs1, obs2 = self._pipeline(1, 3, 4)
        assert peer_positions_read(obs1, obs2, 4) == [1]
        assert peer_positions_read(obs2, obs1, 4) == [1]

    def test_zero_observations_zero_messages(self):
        _, _, obs1, obs2 = self._pipeline(2, 3, 4, corrupt="zero_symbols")
        assert obs1[0, 1] == 0 and obs2[0, 1] == 0

    def test_sic_recovers_planted_symbols(self):
        for seed in range(100):
            a_idx, b_idx, obs1, obs2 = self._pipeline(seed, 3, 4)
            r1, ok1 = resolve(obs1, obs2, 4)
            r2, ok2 = resolve(obs2, obs1, 4)
            assert ok1.all() and ok2.all()
            assert np.array_equal(np.stack([r1, r2]), _resolved_truth(a_idx, b_idx))

    def test_all_zero_resolves_to_zero(self):
        _, _, obs1, obs2 = self._pipeline(5, 5, 2, corrupt="zero_symbols")
        r1, ok1 = resolve(obs1, obs2, 2)
        assert np.array_equal(r1, np.zeros((1, 6), dtype=int)) and ok1.all()

    def test_corrupted_sum_detected(self):
        # With zero planted symbols, bumping a forwarded sum forces a
        # negative intermediate, which the range check flags.
        _, _, obs1, obs2 = self._pipeline(7, 3, 4, corrupt="zero_symbols")
        bad_obs2 = obs2.copy()
        bad_obs2[:, 1] += 1
        _, ok1 = resolve(obs1, bad_obs2, 4)
        assert not ok1.any()

    def test_wrong_message_length_rejected(self):
        _, _, obs1, _ = self._pipeline(3, 5, 2)
        with pytest.raises(ValueError):
            resolve(obs1, np.zeros((1, 4), dtype=int), 2)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        nd_q=st.sampled_from([(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]),
        uses=st.integers(1, 8),
    )
    def test_zero_noise_transmit_resolves_truth(self, seed, nd_q, uses):
        nd, q = nd_q
        csi = draw_csi(seed)
        cfg = config_from_q(csi, nd, q, eps_prime=0.5)
        a_idx, b_idx = np.random.default_rng(seed).integers(0, q, size=(2, uses, nd))
        x, resolved, in_range = transmit(csi, cfg, a_idx, b_idx)
        assert x.shape == (uses, 2) and in_range.all()
        assert np.array_equal(resolved, _resolved_truth(a_idx, b_idx))


class TestRunIaDelivery:
    def test_noiseless_error_free(self):
        for seed in range(10):
            rep = run_ia_delivery(
                seed, 3, 0.5, 2.0**16, 2.0, n_uses=10, noiseless=True
            )
            assert rep.exact_demod
            assert rep.symbol_error_rate == 0.0

    def test_zero_d2d_rate_fails_before_the_block(self, monkeypatch):
        def unreached(*args, **kwargs):
            raise AssertionError("the block ran")

        monkeypatch.setattr(real_ia, "transmit", unreached)
        with pytest.raises(ValueError, match="^r_d must be finite and > 0 for a D2D phase, got 0.0$"):
            run_ia_delivery(0, 3, 0.5, 2.0**16, 0.0, 10)
        with pytest.raises(AssertionError, match="^the block ran$"):
            run_ia_delivery(0, 3, 0.5, 2.0**16, 2.0, 10)

    def test_peak_power_respected(self):
        for seed in range(10):
            rep = run_ia_delivery(seed, 3, 0.5, 2.0**16, 2.0, 10, noiseless=True)
            assert rep.peak_power_ratio <= 1.0 + 1e-9

    def test_latency_identity(self):
        rep = run_ia_delivery(0, 5, 0.5, 2.0**18, 1.5, 4, noiseless=True)
        cfg = rep.config
        eps_hat = (math.log2(cfg.power) / math.log2(cfg.q) - (cfg.n_d + 1)) / 2.0
        expected = ((cfg.n_d + 1 + 2 * eps_hat) / (cfg.n_d - 1)) * (
            1.0
            + (math.log2(2 * cfg.q) / math.log2(cfg.power))
            * (cfg.n_d - 1)
            / (2.0 * 1.5)
        )
        assert rep.ndt_estimate == pytest.approx(expected, rel=1e-9)

    def test_margin_rates_monotone_over_power_ladder(self):
        rates = []
        for power in (2.0**24, 2.0**30, 2.0**36):
            vals = [
                run_ia_delivery(
                    seed, 3, 0.05, power, 2.0, 10, demod="margin", power_mode="average"
                ).symbol_error_rate
                for seed in range(40)
            ]
            rates.append(float(np.mean(vals)))
        assert rates[0] >= rates[1] >= rates[2]

    def test_finite_power_estimate_near_formula(self):
        vals = [
            run_ia_delivery(
                seed, 3, 0.05, 2.0**36, 2.0, 2, demod="margin", power_mode="average"
            ).ndt_estimate
            for seed in range(50)
        ]
        assert abs(np.mean(vals) - delta_nd(3, 2.0)) / delta_nd(3, 2.0) < 0.10

    @pytest.mark.parametrize(
        "seed, n_d, power, q, ser, margin_rate, peak_ratio",
        [
            (0, 3, 2.0**24, 28, 0.9453125, 0.875, 0.10474294812852541),
            (1, 3, 2.0**24, 22, 0.6796875, 0.8125, 0.21384017768753355),
            (2, 3, 2.0**24, 15, 0.046875, 0.875, 0.44805357638719756),
            (0, 5, 2.0**16, 6, 0.9114583333333334, 1.0, 0.07669979958660632),
            (1, 5, 2.0**16, 4, 0.7916666666666666, 1.0, 0.10182937412562675),
            (2, 5, 2.0**16, 2, 0.19791666666666666, 1.0, 0.03985529347078039),
        ],
    )
    def test_pinned_noisy_outcomes(self, seed, n_d, power, q, ser, margin_rate, peak_ratio):
        # Values recorded with a per-use implementation of the chain: the
        # block pipeline must draw the same symbols and noise and make the
        # same decisions.
        rep = run_ia_delivery(seed, n_d, 0.5, power, 2.0, 16)
        assert rep.exact_demod and rep.config.q == q
        assert rep.symbol_error_rate == ser
        assert rep.margin_error_rate == margin_rate
        assert rep.peak_power_ratio == pytest.approx(peak_ratio, rel=1e-12)

    def test_benchmark_golden_outcomes(self):
        # The ia-montecarlo workload's pool, against the outcomes the
        # benchmark checks every op by.
        golden = json.loads(GOLDEN.read_text())["ia-montecarlo"]
        assert sorted(golden, key=int) == [str(seed) for seed in range(36)]
        for seed in range(36):
            rep = run_ia_delivery(seed, n_d=3, eps_prime=0.5, power=2**24, r_d=2, n_uses=16)
            want = golden[str(seed)]
            assert rep.config.q == want["q"] and rep.exact_demod == want["exact_demod"], seed
            for key in ("symbol_error_rate", "margin_error_rate", "ndt_estimate"):
                got = getattr(rep, key)
                assert got == pytest.approx(want[key], rel=1e-12, abs=0.0), (seed, key)
            assert rep.peak_power_ratio <= 1.0

    def test_exact_demod_where_auto_takes_the_margin(self):
        # Seed 29 at P=2^24 gives q=60: its whole aligned set, 60^2 * 119^2,
        # is above the cap, so "auto" estimates by margin, while the
        # solver's 60^2 outer sums fit, so "exact" decodes.
        golden = json.loads(GOLDEN.read_text())["ia-montecarlo"]["29"]
        assert golden["q"] == 60 and not golden["exact_demod"]
        rep = run_ia_delivery(29, 3, 0.5, 2**24, 2, 16, demod="exact")
        assert rep.exact_demod and rep.config.q == 60
        assert rep.margin_error_rate == pytest.approx(golden["margin_error_rate"], rel=1e-12)

    def test_layer_ranges(self):
        assert layer_ranges(3, 4) == (4, 7, 7, 4)

    def test_zero_d2d_rate_rejected(self):
        with pytest.raises(ValueError):
            run_ia_delivery(0, 3, 0.5, 2.0**16, 0.0, 1)


def _resolve_by_cumsum(c_own, c_peer, q):
    """``resolve`` as an alternating cumulative sum along the last axis."""
    n_d = c_own.shape[-1] - 1
    t = c_own.copy()
    t[..., 1 : n_d - 1 : 2] = c_peer[..., 1 : n_d - 1 : 2]
    sign = 1 - 2 * (np.arange(n_d) % 2)
    t[..., :n_d] = sign * np.cumsum(sign * t[..., :n_d], axis=-1)
    return t, ((t >= 0) & (t < q)).all(axis=-1)


@pytest.mark.parametrize("n_d", [3, 5, 7])
@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
def test_resolve_matches_the_cumsum_form(n_d, lead):
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
        got, ok = resolve(c_own, c_peer, q)
        want, want_ok = _resolve_by_cumsum(c_own, c_peer, q)
        assert got.shape == want.shape and ok.shape == want_ok.shape
        assert got.dtype == want.dtype
        assert np.array_equal(got, want) and np.array_equal(ok, want_ok)
        if uses == 1024:
            assert 0 < want_ok.sum() < want_ok.size


def _unit_noise_reference(rng, shape):
    """``draw_unit_noise`` as two scaled real draws summed into one complex array."""
    r = rng.standard_normal((*shape, 2))
    return r[..., 0] / math.sqrt(2.0) + 1j * (r[..., 1] / math.sqrt(2.0))


@pytest.mark.parametrize("shape", [(16, 2), (7,), (3, 4, 2)])
def test_unit_noise_matches_the_reference_bit_for_bit(shape):
    got = draw_unit_noise(np.random.default_rng(11), shape)
    want = _unit_noise_reference(np.random.default_rng(11), shape)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64), want.view(np.uint64))


def _resolved_truth_reference(a_idx, b_idx, ue):
    """The symbols one UE resolves: its own EN's layers with the peer's odd
    ones spliced in, then the peer's top layer."""
    own, other = (a_idx, b_idx) if ue == 1 else (b_idx, a_idx)
    out = own.copy()
    out[:, 1::2] = other[:, 1::2]
    return np.concatenate([out, other[:, -1:]], axis=-1)


@pytest.mark.parametrize("n_d", [3, 5, 7, 9])
def test_resolved_truth_matches_the_splice_form(n_d):
    a_idx, b_idx = np.random.default_rng(n_d).integers(0, 50, size=(2, 11, n_d))
    got = _resolved_truth(a_idx, b_idx)
    assert got.shape == (2, 11, n_d + 1)
    for ue in (1, 2):
        assert np.array_equal(got[ue - 1], _resolved_truth_reference(a_idx, b_idx, ue))
