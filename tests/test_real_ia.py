import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fran_d2d.model import draw_csi
from fran_d2d.ndt_formulas import delta_nd
from fran_d2d.real_ia import (
    AlignedDemodulator,
    ConstellationInfeasibleError,
    IaConfig,
    SearchSpaceError,
    _BLOCK_ELEMENTS,
    _aligned_truth,
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
    unrounded_constellation_size,
)


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

    def test_doubling_power_scales_unrounded_size(self):
        csi = draw_csi(4)
        nd, eps = 3, 0.5
        q1 = unrounded_constellation_size(csi, nd, 2.0**20, eps)
        q2 = unrounded_constellation_size(csi, nd, 2.0**21, eps)
        assert q2 / q1 == pytest.approx(2.0 ** (1.0 / (nd + 1 + 2 * eps)), rel=1e-12)

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
        cfg = IaConfig(n_d=3, q=1, a=1.0, eps_prime=0.5, power=4.0)
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
                run_ia_delivery(
                    seed, 3, 1.0, power, 2.0, 8, demod="exact", search_cap=3 * 10**7
                ).symbol_error_rate
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
        cfg = IaConfig(n_d=nd, q=q, a=q ** ((nd - 1) / 2 + 0.5), eps_prime=0.5, power=4.0)
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
        # 1025 uses at q=8 span many demodulation blocks and end inside one.
        uses, q = 1025, 8
        block = _BLOCK_ELEMENTS // (q**2 * (2 * q - 1))
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
        csi = draw_csi(0)
        gains = precoder_gains(csi, 3)
        cfg = config_from_q(csi, 3, 8, eps_prime=0.5)
        with pytest.raises(SearchSpaceError):
            AlignedDemodulator(gains, csi, cfg, ue=1, cap=100)


class TestMinDistance:
    def test_singleton_is_infinite(self):
        csi = draw_csi(3)
        gains = precoder_gains(csi, 3)
        cfg = IaConfig(n_d=3, q=1, a=1.0, eps_prime=0.5, power=4.0)
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
            assert min_distance(gains, csi, cfg, 1) == pytest.approx(float(diffs.min()))

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

    def test_cap_enforced(self):
        csi = draw_csi(0)
        gains = precoder_gains(csi, 3)
        cfg = config_from_q(csi, 3, 16, eps_prime=0.5)
        with pytest.raises(SearchSpaceError):
            min_distance(gains, csi, cfg, ue=1, cap=1000)


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
            assert np.array_equal(r1, _resolved_truth(a_idx, b_idx, 1))
            assert np.array_equal(r2, _resolved_truth(a_idx, b_idx, 2))

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
        gains = precoder_gains(csi, nd)
        cfg = config_from_q(csi, nd, q, eps_prime=0.5)
        a_idx, b_idx = np.random.default_rng(seed).integers(0, q, size=(2, uses, nd))
        x, resolved, in_range = transmit(
            gains, csi, cfg, demodulators(csi, gains, cfg), a_idx, b_idx
        )
        assert x.shape == (uses, 2) and in_range.all()
        for ue in (1, 2):
            assert np.array_equal(resolved[ue - 1], _resolved_truth(a_idx, b_idx, ue))


class TestRunIaDelivery:
    def test_noiseless_error_free(self):
        for seed in range(10):
            rep = run_ia_delivery(
                seed, 3, 0.5, 2.0**16, 2.0, n_uses=10, noiseless=True
            )
            assert rep.exact_demod
            assert rep.symbol_error_rate == 0.0

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

    def test_layer_ranges(self):
        assert layer_ranges(3, 4) == (4, 7, 7, 4)

    def test_zero_d2d_rate_rejected(self):
        with pytest.raises(ValueError):
            run_ia_delivery(0, 3, 0.5, 2.0**16, 0.0, 1)
