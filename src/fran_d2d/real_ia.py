"""Real interference alignment with receiver cooperation, at signal level.

Each EN stacks ``n_d`` layers of integer constellation symbols (scaled copies
of {0, 1, ..., Q-1}) behind per-layer precoder gains built from products of
the channel coefficients.  The gains satisfy

    h11 * g[1][i] == h12 * g[2][i-1]      and
    h22 * g[2][i] == h21 * g[1][i-1]      for i >= 2,

so at UE 1 layer a_i lands exactly on top of b_{i-1} (and mirrored at UE 2):
the receiver sees n_d + 1 aligned values instead of 2 n_d separate ones.
Nearest-point demodulation over the aligned product set recovers them; the
UEs then swap their even-numbered aligned sums over the D2D link, and an
integer subtraction chain peels out every individual symbol.

``transmit`` runs that chain once for a whole block of channel uses: symbols
are ``(uses, n_d)`` index arrays per EN, and every stage maps arrays to
arrays.

Demodulation is uncoded and exact: ``AlignedDemodulator`` enumerates every
aligned slot but one and solves that one in closed form, so it decides as an
exhaustive search over the aligned set would without building that set.  A
candidate cap on the aligned set's size still applies, and ``run_ia_delivery``
falls back to a margin error estimate above it.  Rate accounting uses
log2(Q) bits per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Csi, LatencyBreakdown, draw_csi, ndt_from_latency

DEFAULT_SEARCH_CAP = 10**7
# Elements (uses x partial sums) per demodulation block.  Each float
# temporary of a block then holds 128 kB, so long blocks of small
# constellations do not raise peak memory.
_BLOCK_ELEMENTS = 2**14


class SearchSpaceError(RuntimeError):
    """Raised when a search space would exceed its candidate cap."""


class ConstellationInfeasibleError(ValueError):
    """Raised when the power budget cannot support a 2-point constellation."""


@dataclass(frozen=True)
class PrecoderGains:
    """Per-EN, per-layer complex gains, shape (2, n_d)."""

    n_d: int
    g: np.ndarray

    def __post_init__(self) -> None:
        if self.g.shape != (2, self.n_d):
            raise ValueError(f"gain array must be (2, {self.n_d})")


@dataclass(frozen=True)
class IaConfig:
    """Constellation and power parameters of one alignment run.

    ``a`` is the constellation step, tied to the size by
    a = q ** ((n_d - 1)/2 + eps_prime).
    """

    n_d: int
    q: int
    a: float
    eps_prime: float
    power: float

    def __post_init__(self) -> None:
        if self.n_d < 3 or self.n_d % 2 == 0:
            raise ValueError(f"n_d must be odd and >= 3, got {self.n_d}")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.eps_prime <= 0.0:
            raise ValueError("eps_prime must be positive")
        if self.power <= 1.0:
            raise ValueError("power must exceed 1")
        expected = float(self.q) ** ((self.n_d - 1) / 2.0 + self.eps_prime)
        if abs(self.a - expected) > 1e-9 * expected:
            raise ValueError("a is inconsistent with q and eps_prime")

    @property
    def d_min_lower_bound(self) -> float:
        """Worst-case guaranteed distance A / (2Q)^((n_d-1)/2 + eps'/2).

        The exponent slack must be strictly below eps_prime for the bound to
        grow with the power budget; half of eps_prime is used throughout.
        """
        if self.q == 1:
            return math.inf
        return self.a / (2.0 * self.q) ** ((self.n_d - 1) / 2.0 + self.eps_prime / 2.0)


def precoder_gains(csi: Csi, n_d: int) -> PrecoderGains:
    """Closed-form alignment gains.

    Odd layers use (h11 h22)^((n_d-i)/2) * (h12 h21)^((i-1)/2) at both ENs;
    even layers use (h11 h22)^((n_d-i-1)/2) * (h12 h21)^((i-2)/2) scaled by
    h_{m'm'} h_{mm'} at EN m.  Layer 1 therefore carries (h11 h22)^((n_d-1)/2)
    at both ENs.
    """
    if n_d < 3 or n_d % 2 == 0:
        raise ValueError(f"n_d must be odd and >= 3, got {n_d}")
    direct = csi.h11 * csi.h22
    cross = csi.h12 * csi.h21
    g = np.empty((2, n_d), dtype=complex)
    for i in range(1, n_d + 1):
        if i % 2 == 1:
            val = direct ** ((n_d - i) // 2) * cross ** ((i - 1) // 2)
            g[0, i - 1] = val
            g[1, i - 1] = val
        else:
            base = direct ** ((n_d - i - 1) // 2) * cross ** ((i - 2) // 2)
            g[0, i - 1] = base * csi.h22 * csi.h12
            g[1, i - 1] = base * csi.h11 * csi.h21
    return PrecoderGains(n_d=n_d, g=g)


def alignment_residual(gains: PrecoderGains, csi: Csi) -> float:
    """Worst relative violation of the two alignment identities."""
    g = gains.g
    worst = 0.0
    for i in range(1, gains.n_d):  # 0-based layer i corresponds to index i+1
        lhs1 = csi.h11 * g[0, i]
        rhs1 = csi.h12 * g[1, i - 1]
        lhs2 = csi.h22 * g[1, i]
        rhs2 = csi.h21 * g[0, i - 1]
        worst = max(
            worst,
            abs(lhs1 - rhs1) / abs(lhs1),
            abs(lhs2 - rhs2) / abs(lhs2),
        )
    return worst


def effective_gains(gains: PrecoderGains, csi: Csi, ue: int) -> np.ndarray:
    """Gains of the n_d + 1 aligned values seen at one UE."""
    if ue == 1:
        own = csi.h11 * gains.g[0]
        tail = csi.h12 * gains.g[1, -1]
    elif ue == 2:
        own = csi.h22 * gains.g[1]
        tail = csi.h21 * gains.g[0, -1]
    else:
        raise ValueError(f"ue must be 1 or 2, got {ue}")
    return np.concatenate([own, [tail]])


def _gain_row_sums(gains: PrecoderGains) -> float:
    return float(max(np.abs(gains.g[0]).sum(), np.abs(gains.g[1]).sum()))


def _power_margin(gains: PrecoderGains, mode: str) -> float:
    """Gain-dependent factor M such that (A Q)^2 <= P / M keeps power legal.

    Peak mode bounds the worst-case amplitude A (Q-1) * sum|g|; average mode
    bounds E|x|^2 = A^2 (sum|g|^2 Var(k) + |sum g|^2 (E k)^2) for symbols
    uniform on {0..Q-1}, using the Q-independent limits Var <= Q^2/12 and
    (E k)^2 <= Q^2/4.
    """
    if mode == "peak":
        return _gain_row_sums(gains) ** 2
    if mode == "average":
        return float(
            max(
                np.abs(gains.g[m]).dot(np.abs(gains.g[m])) / 12.0
                + abs(gains.g[m].sum()) ** 2 / 4.0
                for m in (0, 1)
            )
        )
    raise ValueError(f"unknown power mode {mode!r}")


def unrounded_constellation_size(
    csi: Csi, n_d: int, power: float, eps_prime: float, power_mode: str = "peak"
) -> float:
    """Pre-rounding value rho * P^(1/(n_d+1+2 eps')) of the constellation size."""
    gains = precoder_gains(csi, n_d)
    exponent = 1.0 / (n_d + 1.0 + 2.0 * eps_prime)
    rho = _power_margin(gains, power_mode) ** (-exponent)
    return rho * power**exponent


def select_constellation(
    csi: Csi, n_d: int, power: float, eps_prime: float, power_mode: str = "peak"
) -> IaConfig:
    """Pick (Q, A, rho) for a power budget.

    rho is the largest scale the power constraint allows (peak amplitude in
    "peak" mode, expected power under uniform symbols in "average" mode), Q
    is its floored product with P^(1/(n_d+1+2 eps')) clamped up to 2, and A
    follows from the step/size invariant.  Rounding only shrinks the realized
    power, so the constraint survives it.

    Raises:
        ConstellationInfeasibleError: if even Q = 2 overshoots the budget.
    """
    if not 1.0 < power < math.inf:
        raise ValueError(f"power must be finite and exceed 1, got {power}")
    if eps_prime <= 0.0:
        raise ValueError("eps_prime must be positive")
    gains = precoder_gains(csi, n_d)
    exponent = 1.0 / (n_d + 1.0 + 2.0 * eps_prime)
    margin = _power_margin(gains, power_mode)
    rho = margin ** (-exponent)
    q = max(2, math.floor(rho * power**exponent))
    a = float(q) ** ((n_d - 1) / 2.0 + eps_prime)
    if (a * q) ** 2 * margin > power * (1.0 + 1e-12):
        raise ConstellationInfeasibleError(
            f"power {power:g} cannot support a 2-point constellation at n_d={n_d}"
        )
    return IaConfig(n_d=n_d, q=q, a=a, eps_prime=eps_prime, power=power)


def config_from_q(csi: Csi, n_d: int, q: int, eps_prime: float) -> IaConfig:
    """Build a config with an explicit constellation size.

    The power budget is derived as the peak transmit power of the resulting
    constellation (floored at 4 so the NDT normalization stays defined), so
    the power invariant holds with equality for any non-degenerate channel.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    gains = precoder_gains(csi, n_d)
    a = float(q) ** ((n_d - 1) / 2.0 + eps_prime)
    peak_amp = a * (q - 1) * _gain_row_sums(gains)
    power = max(peak_amp**2, 4.0)
    return IaConfig(n_d=n_d, q=q, a=a, eps_prime=eps_prime, power=power)


def encode(
    a_idx: np.ndarray, b_idx: np.ndarray, gains: PrecoderGains, scale: float
) -> np.ndarray:
    """Superpose the layered symbols of each use: x[:, m] = scale * idx_m @ g[m].

    ``a_idx`` and ``b_idx`` are the (uses, n_d) symbol indices of EN 1 and
    EN 2; the result has shape (uses, 2).
    """
    if a_idx.shape != b_idx.shape or a_idx.shape[-1] != gains.n_d:
        raise ValueError("symbol arrays must both be (uses, n_d) with n_d layers")
    return np.stack([(scale * a_idx) @ gains.g[0], (scale * b_idx) @ gains.g[1]], axis=-1)


def receive(x: np.ndarray, csi: Csi, noise: np.ndarray | None = None) -> np.ndarray:
    """Channel outputs y[:, k] = h_k1 x[:, 0] + h_k2 x[:, 1] + noise[:, k]."""
    h = csi.matrix()
    y = x[:, :1] * h[:, 0] + x[:, 1:] * h[:, 1]
    return y if noise is None else y + noise


def draw_unit_noise(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples with unit variance.

    Real and imaginary parts are scaled separately, so a draw of shape
    (uses, 2) equals the same uses drawn one complex sample at a time.
    """
    r = rng.standard_normal((*shape, 2))
    return r[..., 0] / math.sqrt(2.0) + 1j * (r[..., 1] / math.sqrt(2.0))


def layer_ranges(n_d: int, q: int) -> tuple[int, ...]:
    """Alphabet sizes of the aligned values: (Q, 2Q-1, ..., 2Q-1, Q)."""
    return (q,) + (2 * q - 1,) * (n_d - 1) + (q,)


class AlignedDemodulator:
    """Exact nearest-point demodulator for one UE.

    The noiseless received set is the product of the aligned alphabets
    (Q, 2Q-1, ..., 2Q-1, Q) along the effective gains.  The last 2Q-1 slot
    is solved in closed form.  Measured in units of that slot's step, a
    sample y and a partial sum p of the other slots leave the residual
    r = y - p, and the squared distance |r - k|^2 is a convex parabola in
    the slot's integer k, so rounding Re(r) and clipping it to [0, 2Q-2]
    gives its exact minimum.  ``__init__`` precomputes the
    Q^2 (2Q-1)^(n_d-2) partial sums once, and ``demodulate`` takes the
    argmin over them, a block of uses at a time.  The full received set is
    never built; ``cap`` still bounds its size (``candidate_count``), which
    ``run_ia_delivery`` compares with its search cap to choose between exact
    and margin error rates.
    """

    def __init__(
        self,
        gains: PrecoderGains,
        csi: Csi,
        cfg: IaConfig,
        ue: int,
        cap: int = DEFAULT_SEARCH_CAP,
    ) -> None:
        self.cfg = cfg
        self.ue = ue
        self.ranges = layer_ranges(cfg.n_d, cfg.q)
        count = math.prod(self.ranges)
        if count > cap:
            raise SearchSpaceError(
                f"aligned search space {count} exceeds cap {cap}"
            )
        steps = cfg.a * effective_gains(gains, csi, ue)
        self._solved = cfg.n_d - 1
        self._partial_ranges = self.ranges[: self._solved] + self.ranges[self._solved + 1 :]
        partial = np.zeros(1, dtype=complex)
        for size, step in zip(self._partial_ranges, np.delete(steps, self._solved)):
            partial = (partial[:, None] + step * np.arange(size)[None, :]).ravel()
        # Coordinates in which the solved slot's step is 1 + 0j.
        self._unit = 1.0 / steps[self._solved]
        partial *= self._unit
        self._re, self._im = partial.real.copy(), partial.imag.copy()

    @property
    def candidate_count(self) -> int:
        """Size of the full aligned received set."""
        return math.prod(self.ranges)

    def demodulate(self, ys: np.ndarray) -> np.ndarray:
        """Nearest aligned tuple to each received sample, shape (uses, n_d + 1).

        Column 0 is a clean own symbol (range Q), columns 1..n_d-1 are
        pairwise sums (range 2Q-1), column n_d is the peer's top symbol
        (range Q).
        """
        top = self.ranges[self._solved] - 1
        block = max(1, _BLOCK_ELEMENTS // self._re.size)
        best = np.empty(len(ys), dtype=np.intp)
        solved = np.empty(len(ys), dtype=np.intp)
        for start in range(0, len(ys), block):
            y = ys[start : start + block, None] * self._unit
            t = y.real - self._re
            # Rounding half down keeps the exhaustive search's tie-break
            # (lowest index first) within the solved slot.
            k = np.ceil(t - 0.5)
            np.clip(k, 0, top, out=k)
            t -= k
            t *= t
            d = y.imag - self._im
            d *= d
            t += d
            pick = np.argmin(t, axis=1)
            best[start : start + block] = pick
            solved[start : start + block] = k[np.arange(len(pick)), pick]
        others = np.stack(np.unravel_index(best, self._partial_ranges), axis=-1)
        return np.insert(others, self._solved, solved, axis=1)


def min_distance(
    gains: PrecoderGains,
    csi: Csi,
    cfg: IaConfig,
    ue: int,
    cap: int = DEFAULT_SEARCH_CAP,
) -> float:
    """Exact minimum pairwise distance of the noiseless received set.

    Computed over candidate differences: every difference of two valid
    aligned tuples lies on the centered grid with per-slot ranges
    (2Q-1, 4Q-3, ..., 4Q-3, 2Q-1) and vice versa, so the minimum over that
    grid (zero excluded) equals the minimum pairwise distance.  A singleton
    set (Q = 1) has infinite distance by convention.
    """
    if cfg.q == 1:
        return math.inf
    diff_ranges = (
        (2 * cfg.q - 1,)
        + (4 * cfg.q - 3,) * (cfg.n_d - 1)
        + (2 * cfg.q - 1,)
    )
    count = math.prod(diff_ranges)
    if count > cap:
        raise SearchSpaceError(f"difference grid {count} exceeds cap {cap}")
    eff = effective_gains(gains, csi, ue)
    values = np.zeros(1, dtype=complex)
    for size, gain in zip(diff_ranges, eff):
        offsets = np.arange(size) - (size - 1) // 2
        values = (values[:, None] + (cfg.a * gain) * offsets[None, :]).ravel()
    center = np.ravel_multi_index(
        tuple((size - 1) // 2 for size in diff_ranges), diff_ranges
    )
    dist = np.abs(values)
    dist[center] = np.inf  # exclude the zero difference
    return float(dist.min())


def resolve(c_own: np.ndarray, c_peer: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """D2D exchange and subtraction chain at one UE, for a block of uses.

    The peer forwards its aligned sums at positions 2, 4, ..., n_d - 1
    (1-based): (n_d - 1)/2 elements per use, each one of 2Q - 1 values;
    accounting charges log2(2Q) bits per element.  With those spliced into
    the own observation t, symbol p is t_p - t_{p-1} + t_{p-2} - ... + t_1 at
    UE 1 (a_1, then b_2 = (b_2 + a_1) - a_1, then a_3, ...), i.e. an
    alternating running difference; the final slot contributes the peer's
    top symbol for free.  All arithmetic is on integer indices, so a correct
    demodulation propagates no error at all.

    Returns the (uses, n_d + 1) resolved symbols and a per-use flag that is
    False when some symbol fell outside {0..Q-1}, which can only happen
    after an upstream demodulation error.
    """
    if c_peer.shape != c_own.shape:
        raise ValueError("peer observation must have the own observation's shape")
    n_d = c_own.shape[-1] - 1
    t = c_own.copy()
    t[:, 1 : n_d - 1 : 2] = c_peer[:, 1 : n_d - 1 : 2]
    sign = 1 - 2 * (np.arange(n_d) % 2)
    t[:, :n_d] = sign * np.cumsum(sign * t[:, :n_d], axis=-1)
    return t, ((t >= 0) & (t < q)).all(axis=-1)


def transmit(
    gains: PrecoderGains,
    csi: Csi,
    cfg: IaConfig,
    demods: tuple[AlignedDemodulator, AlignedDemodulator],
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    noise: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run a block of channel uses through the whole alignment chain.

    Encodes the (uses, n_d) symbol indices, passes them through the channel
    (plus ``noise`` of shape (uses, 2) if given), demodulates at both UEs
    with ``demods`` (UE 1's, then UE 2's), swaps the even aligned sums over
    D2D and resolves.  Returns the transmit signals (uses, 2), the resolved
    symbols of UE 1 and UE 2 stacked as (2, uses, n_d + 1), and a per-use
    flag that is True when every resolved symbol at both UEs is in range.
    """
    x = encode(a_idx, b_idx, gains, cfg.a)
    y = receive(x, csi, noise)
    c1 = demods[0].demodulate(y[:, 0])
    c2 = demods[1].demodulate(y[:, 1])
    s1, ok1 = resolve(c1, c2, cfg.q)
    s2, ok2 = resolve(c2, c1, cfg.q)
    return x, np.stack([s1, s2]), ok1 & ok2


@dataclass(frozen=True)
class IaDeliveryReport:
    """Monte-Carlo outcome of the alignment pipeline.

    ``symbol_error_rate`` comes from exact nearest-point demodulation when
    ``exact_demod`` is True; otherwise it is the margin error rate, the
    fraction of (use, UE) events where the noise magnitude reached half the
    guaranteed minimum distance (a sufficient condition for demodulation
    errors, usable at constellation sizes above the search cap).
    """

    config: IaConfig
    symbol_error_rate: float
    margin_error_rate: float
    exact_demod: bool
    latency: LatencyBreakdown
    ndt_estimate: float
    n_uses: int
    peak_power_ratio: float


def _aligned_truth(a_idx: np.ndarray, b_idx: np.ndarray, ue: int) -> np.ndarray:
    own, other = (a_idx, b_idx) if ue == 1 else (b_idx, a_idx)
    return np.concatenate([own[:, :1], own[:, 1:] + other[:, :-1], other[:, -1:]], axis=-1)


def _resolved_truth(a_idx: np.ndarray, b_idx: np.ndarray, ue: int) -> np.ndarray:
    own, other = (a_idx, b_idx) if ue == 1 else (b_idx, a_idx)
    out = own.copy()
    out[:, 1::2] = other[:, 1::2]
    return np.concatenate([out, other[:, -1:]], axis=-1)


def run_ia_delivery(
    seed: int,
    n_d: int,
    eps_prime: float,
    power: float,
    r_d: float,
    n_uses: int,
    noiseless: bool = False,
    demod: str = "auto",
    power_mode: str = "peak",
    search_cap: int = DEFAULT_SEARCH_CAP,
) -> IaDeliveryReport:
    """Run the full pipeline over fresh symbols and account its latency.

    Per channel use each UE gains n_d - 1 fresh layers of log2(Q) bits, so a
    run of ``n_uses`` uses delivers L = n_uses (n_d - 1) log2(Q) bits per UE
    with t_e = n_uses and t_d = t_e * log2(2Q) (n_d-1) / (2 r_d log2(P)).

    ``demod`` selects the error estimator: "exact" demands nearest-point
    demodulation (raising if the candidate set exceeds ``search_cap``),
    "margin" uses the minimum-distance margin event only, and "auto" picks
    exact when it fits the cap.  Noise draws depend on the seed but not on
    the power budget, so margin error rates are monotone over a power ladder
    by construction.
    """
    if r_d <= 0.0:
        raise ValueError("the alignment scheme needs r_d > 0")
    if n_uses < 1:
        raise ValueError("n_uses must be >= 1")
    if demod not in ("auto", "exact", "margin"):
        raise ValueError(f"unknown demod mode {demod!r}")

    csi = draw_csi(seed)
    gains = precoder_gains(csi, n_d)
    cfg = select_constellation(csi, n_d, power, eps_prime, power_mode=power_mode)
    count = math.prod(layer_ranges(n_d, cfg.q))
    exact = demod == "exact" or (demod == "auto" and count <= search_cap)
    draws = np.random.default_rng([seed, 0x5EED]).integers(0, cfg.q, size=(n_uses, 2, n_d))
    a_idx, b_idx = draws[:, 0], draws[:, 1]
    noise = None
    margin_events = 0
    if not noiseless:
        noise = draw_unit_noise(np.random.default_rng([seed, 0x401E]), (n_uses, 2))
        margin_events = int(np.count_nonzero(np.abs(noise) >= cfg.d_min_lower_bound / 2.0))
    margin_rate = margin_events / (2.0 * n_uses)

    if exact:
        demods = tuple(
            AlignedDemodulator(gains, csi, cfg, ue, cap=search_cap) for ue in (1, 2)
        )
        x, resolved, _ = transmit(gains, csi, cfg, demods, a_idx, b_idx, noise)
        truth = np.stack([_resolved_truth(a_idx, b_idx, ue) for ue in (1, 2)])
        ser = int(np.count_nonzero(resolved != truth)) / (2.0 * n_uses * (n_d + 1))
    else:
        x = encode(a_idx, b_idx, gains, cfg.a)
        ser = margin_rate
    peak_ratio = float((np.abs(x) ** 2).max() / power)

    bits_per_ue = n_uses * (n_d - 1) * math.log2(cfg.q)
    t_e = float(n_uses)
    t_d = t_e * (math.log2(2 * cfg.q) * (n_d - 1) / 2.0) / (r_d * math.log2(power))
    lat = LatencyBreakdown(t_f=0.0, t_e=t_e, t_d=t_d)
    estimate = ndt_from_latency(lat, bits_per_ue, power)
    return IaDeliveryReport(
        config=cfg,
        symbol_error_rate=ser,
        margin_error_rate=margin_rate,
        exact_demod=exact,
        latency=lat,
        ndt_estimate=estimate,
        n_uses=n_uses,
        peak_power_ratio=peak_ratio,
    )
