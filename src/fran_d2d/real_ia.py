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
integer subtraction chain peels out every individual symbol.  That step is
``model.d2d_sic``, which the deterministic model runs mod 2.

``transmit`` runs the whole chain on a block of channel uses at once, on
``(uses, n_d)`` symbol index arrays per EN.

Every search of the aligned box goes through one solver, ``_BoxSolver``: it
enumerates every slot but two and solves those two in closed form, exact
without building the box.  It splits the enumerated slots in two halves and
seeds each sample from a table of one half's partial sums sorted by their
fractional position across the window slot, then scores only the partial
sums within the seeds' reach; ``DEFAULT_SEARCH_CAP`` bounds the two halves'
partial sums, not the box.  ``AlignedDemodulator`` (uncoded, exact) asks it
for the nearest aligned tuple per sample; ``min_distance`` asks it for the
nearest nonzero difference in each of n_d + 1 half-boxes.
``run_ia_delivery`` falls back to a margin error estimate when the whole
aligned set is above the cap.  Rate accounting uses log2(Q) bits per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    Csi, LatencyBreakdown, _check_layer_count, _check_power, d2d_sic, draw_csi,
    ndt_from_latency, x_channel_latency,
)

DEFAULT_SEARCH_CAP = 10**7
# Elements per search block (samples x seeds) and per chunk of rescored
# candidates (up to 2Q-1 window values per cell far outside the
# constellation): 128 kB per float temporary.
_BLOCK_ELEMENTS = 2**14
_NO_INDEX = np.iinfo(np.intp).max


class SearchSpaceError(RuntimeError):
    """Raised when a box search would hold more partial sums than the cap."""


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


def _check_eps_prime(eps_prime: float) -> None:
    if not 0.0 < eps_prime < math.inf:
        raise ValueError(f"eps_prime must be finite and positive, got {eps_prime}")


@dataclass(frozen=True)
class IaConfig:
    """Constellation and power parameters of one alignment run."""

    n_d: int
    q: int
    eps_prime: float
    power: float

    def __post_init__(self) -> None:
        _check_layer_count(self.n_d)
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        _check_eps_prime(self.eps_prime)
        _check_power(self.power)

    @property
    def a(self) -> float:
        """The constellation step, q ** ((n_d - 1)/2 + eps_prime)."""
        return float(self.q) ** ((self.n_d - 1) / 2.0 + self.eps_prime)

    @property
    def d_min_lower_bound(self) -> float:
        """Heuristic distance threshold A / (2Q)^((n_d-1)/2 + eps'/2).

        This is not a lower bound on the minimum distance: the
        Khintchine-Groshev constant of the channel, which a true bound
        needs, is missing, and on some channels the exact ``min_distance``
        falls well below it.  The exponent slack is kept strictly below
        eps_prime so the threshold grows with the power budget; half of
        eps_prime is used throughout.
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
    _check_layer_count(n_d)
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
    lhs = np.array([[csi.h11], [csi.h22]]) * gains.g[:, 1:]
    rhs = np.array([[csi.h12], [csi.h21]]) * gains.g[::-1, :-1]
    return float(np.max(np.abs(lhs - rhs) / np.abs(lhs), initial=0.0))


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
        ValueError: if the power is not finite above 1 or ``eps_prime`` is
            not finite and positive.
        ConstellationInfeasibleError: if even Q = 2 overshoots the budget,
            or the precoder gains leave the float range.
    """
    _check_power(power)
    _check_eps_prime(eps_prime)
    exponent = 1.0 / (n_d + 1.0 + 2.0 * eps_prime)
    try:
        margin = _power_margin(precoder_gains(csi, n_d), power_mode)
        feasible = 0.0 < margin < math.inf
        if feasible:
            q = max(2, math.floor(margin ** (-exponent) * power**exponent))
            cfg = IaConfig(n_d=n_d, q=q, eps_prime=eps_prime, power=power)
            feasible = (cfg.a * q) ** 2 * margin <= power * (1.0 + 1e-12)
    except OverflowError:  # beyond the float range
        feasible = False
    if not feasible:
        raise ConstellationInfeasibleError(
            f"power {power:g} cannot support a 2-point constellation at n_d={n_d}"
        )
    return cfg


def config_from_q(csi: Csi, n_d: int, q: int, eps_prime: float) -> IaConfig:
    """Build a config with an explicit constellation size.

    The power budget is derived as the peak transmit power of the resulting
    constellation (floored at 4 so the NDT normalization stays defined), so
    the power invariant holds with equality for any non-degenerate channel.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    cfg = IaConfig(n_d=n_d, q=q, eps_prime=eps_prime, power=4.0)
    peak_amp = cfg.a * (q - 1) * _gain_row_sums(precoder_gains(csi, n_d))
    return replace(cfg, power=max(peak_amp**2, 4.0))


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
    r /= math.sqrt(2.0)
    return r.view(complex)[..., 0]


def layer_ranges(n_d: int, q: int) -> tuple[int, ...]:
    """Alphabet sizes of the aligned values: (Q, 2Q-1, ..., 2Q-1, Q)."""
    return (q,) + (2 * q - 1,) * (n_d - 1) + (q,)


class _BoxSolver:
    """Nearest point of an integer box placed along complex steps.

    Slot s takes the values 0 .. sizes[s] - 1 along ``steps[s]``.  Slots j
    and k, the third- and second-to-last, are solved; the others, the outer
    slots, sum to outer sums.  In units of slot k's step (1 + 0j), slot j
    has step s, and a sample y and an outer sum o leave the residual
    r = y - o.  For each j, Re(r - j s) rounded and clipped to k's range is
    the nearest k, and the distance is at least (Im r - j Im s)^2.  Ties go
    to the lowest index over (slots before j, j, last slot, k).

    The outer slots split in two (meet in the middle): A, the first m, and
    B, the rest, so an outer sum is a pair (a, b), formed as A's running sum
    plus each B slot in turn, then scaled to slot k's units: every distance
    is computed in one order, whatever the split.  With v = Im / Im s,
    (Im r - j Im s)^2 = (Im s)^2 (v_y - v_a - v_b - j)^2.  B's partial sums
    sorted by frac(v_b) form a table, continued by a whole period on each
    side.  Per sample and a, the entry nearest frac(v_y - v_a), scored at
    its nearest j, is a seed; the least seed bounds the distance by D.
    Every candidate within D has |v_y - v_a - v_b - j| <= W = reach / |Im s|,
    where ``_reach`` adds to sqrt D a slack of 1e-9 times |y|, sqrt D and
    the span of the outer sums and j's steps, far above the rounding of the
    v and the outer sums.  Where W < 1/2 that j is unique and the entries
    within W of frac(v_y - v_a) are every such b: a seed whose table
    neighbours lie beyond W decides its (sample, a), and two
    ``searchsorted`` calls give the range of any other.  Where W >= 1/2,
    or on a flat step, every b is in range.  The cells in range are scored
    at every j with |Im r - j Im s| <= reach, in chunks of
    ``_BLOCK_ELEMENTS``, and each sample takes the least distance, lowest
    index first, of its seeds and cells.

    Two choices follow the block and box sizes and change only the cost.
    A block with no more samples than outer sums, whose product fits
    ``_BLOCK_ELEMENTS``, takes every outer sum as a seed, with A empty and
    no table.  The split is chosen when the table is first built: of those
    whose |A| + |B| fits ``DEFAULT_SEARCH_CAP``, the one with the least
    |B| + samples |A|.  The constructor raises ``SearchSpaceError``, before
    allocating, when no split fits or an int64 cannot index the box.
    """

    def __init__(self, sizes: tuple[int, ...], steps: np.ndarray) -> None:
        *prefix, n_j, n_k, n_last = sizes
        self._sizes = (*prefix, n_last)
        # |A| and |B| of each split, A being the first m outer slots.
        self._splits = [
            (math.prod(self._sizes[:m]), math.prod(self._sizes[m:]))
            for m in range(len(self._sizes))
        ]
        count = min(map(sum, self._splits))
        if count > DEFAULT_SEARCH_CAP:
            raise SearchSpaceError(
                f"box search needs {count} partial sums, above cap {DEFAULT_SEARCH_CAP}"
            )
        if math.prod(sizes) > _NO_INDEX:
            raise SearchSpaceError(f"a box of {math.prod(sizes)} points has no int64 index")
        outer_steps = steps[[*range(len(prefix)), -1]]
        self._terms = [step * np.arange(size) for size, step in zip(self._sizes, outer_steps)]
        # Coordinates in which slot k's step is 1 + 0j.
        self._unit = 1.0 / steps[-2]
        self._top_j, self._top_k = float(n_j - 1), float(n_k - 1)
        # Index of (prefix, j, last slot, k): ``_key(outer)`` + j stride + k.
        self._shape = (*prefix, n_j, n_last, n_k)
        self._stride = n_last * n_k
        self._step = complex(steps[-3] * self._unit)
        inv_im = 1.0 / self._step.imag if self._step.imag != 0.0 else math.inf
        # A step too flat to invert has no fractions: every cell is scanned.
        self._flat = not math.isfinite(inv_im)
        self._inv_im = 0.0 if self._flat else inv_im
        # With |y|, bounds every term the search adds: the float slack's scale.
        self._span = float(np.abs(outer_steps * self._unit) @ (np.array(self._sizes) - 1.0))
        self._span += max(self._top_j, 1.0) * abs(self._step)
        self._table = self._all = None

    def nearest(self, ys: np.ndarray) -> np.ndarray:
        """Slot values of the nearest point to each sample, shape (slots, samples)."""
        n_outer = self._splits[0][1]
        with np.errstate(over="ignore"):  # 1/Im s is huge for a nearly real step
            if len(ys) <= n_outer and len(ys) * n_outer <= _BLOCK_ELEMENTS:
                index = self._nearest(ys, table=False)
            else:
                self._build_table(len(ys))
                block = max(1, _BLOCK_ELEMENTS // self._a.size)
                index = np.concatenate(
                    [self._nearest(ys[i : i + block], True) for i in range(0, len(ys), block)]
                )
        *prefix, j, last, k = np.unravel_index(index, self._shape)
        return np.array((*prefix, j, k, last))

    def _sums(self):
        """Every outer sum in slot k's units, built on first use."""
        if self._all is None:
            self._all = _running_sum(self._terms) * self._unit
        return self._all

    def _build_table(self, uses):
        """Split the outer slots for ``uses`` samples and build B's table,
        once: of the splits within the cap, the one with the least
        |B| + uses |A|, the table's entries plus the seeds."""
        if self._table is not None:
            return
        fits = [m for m, split in enumerate(self._splits) if sum(split) <= DEFAULT_SEARCH_CAP]
        self._m = m = min(fits, key=lambda m: self._splits[m][1] + uses * self._splits[m][0])
        self._a = _running_sum(self._terms[:m])
        self._v_a = (self._a * self._unit).imag * self._inv_im
        b = self._sums() if m == 0 else _running_sum(self._terms[m:]) * self._unit
        v_b = b.imag * self._inv_im
        v_b -= np.floor(v_b)
        self._order = np.argsort(v_b)
        v_b = v_b[self._order]
        self._table = np.concatenate([v_b - 1.0, v_b, v_b + 1.0])
        self._mids = (self._table[1:] + self._table[:-1]) / 2.0

    def _nearest(self, ys: np.ndarray, table: bool) -> np.ndarray:
        """Index of the nearest point to each sample of one block, seeded by
        B's table or by every outer sum."""
        uses = len(ys)
        y = ys * self._unit
        if table:  # per a, the entry nearest frac(v_y - v_a)
            m, order, n_a = self._m, self._order, self._a.size
            t = (y.imag * self._inv_im)[:, None] - self._v_a
            t -= np.floor(t)
            at = np.searchsorted(self._mids, t)
            seeds = order.take(at, mode="wrap")
            o = self._outer(m, np.arange(n_a), seeds)
        else:  # every outer sum, A being empty
            m, order, n_a = 0, np.arange(self._splits[0][1]), 1
            o = self._sums()
        n_b = order.size
        # Each seed at its nearest j: per sample its least distance D and
        # the lowest index at D.
        im = y.imag[:, None] - o.imag
        j = im * self._inv_im
        np.rint(j, out=j)
        j.clip(0.0, self._top_j, out=j)
        dist, k = self._distance(y.real[:, None], o.real, im, j)
        size = dist.shape[1]
        cell = dist.argmin(axis=1) if size > 1 else np.zeros(uses, np.intp)  # a slow argmin
        flat = cell + np.arange(0, dist.size, size)
        best = dist.take(flat)
        tied = size > 1 and np.count_nonzero(dist == best[:, None]) > uses
        if tied:  # a sample with two seeds at D
            flat = np.flatnonzero(dist == best[:, None])
            rows, cell = np.divmod(flat, size)
        index = self._key(cell * n_b + seeds.take(flat) if table else cell)
        index += self._pack(j.take(flat), k.take(flat))
        lowest = self._lowest(uses, rows, index) if tied else index
        # Where W < 1/2, a (sample, a) seed holds every entry within W unless
        # a table neighbour lies within W too.  The other pairs score the
        # entries within W, or every b where W >= 1/2.
        reach = self._reach(best, y)
        w = reach * abs(self._inv_im)
        held = near = (w < 0.5) & (not self._flat)
        if table:
            w = w[:, None]
            held = near[:, None] & (self._table.take(at - 1, mode="clip") < t - w)
            held &= self._table.take(at + 1, mode="clip") > t + w
        if held.all():
            return lowest
        rest = np.flatnonzero(~held)
        use, a = np.divmod(rest, n_a)
        lo = np.full(rest.size, n_b)
        hi = lo + n_b
        if table:
            ranged = near[use]
            lo[ranged] = np.searchsorted(self._table, (t - w).take(rest[ranged]))
            hi[ranged] = np.searchsorted(self._table, (t + w).take(rest[ranged]), side="right")
        if self._flat:  # j = 0 may be up to top |Im s| off the nearest j
            reach += self._top_j * abs(self._step.imag)
        parts = [(best, lowest)]
        for run, entry in _ranges(lo, hi):
            u, b = use[run], order.take(entry, mode="wrap")
            o, key = self._outer(m, a[run], b), self._key(a[run] * n_b + b)
            im = y.imag[u] - o.imag
            for cell, j in _ranges(*self._window(im, reach[u])):
                dist, k = self._distance(y.real[u[cell]], o.real[cell], im[cell], j)
                parts.append(self._decide(uses, u[cell], dist, key[cell] + self._pack(j, k)))
        best, lowest = (np.array(x) for x in zip(*parts))
        lowest[best != best.min(axis=0)] = _NO_INDEX
        return lowest.min(axis=0)

    def _key(self, outer):
        """The index of outer sum ``outer`` (row-major over the outer slots)
        at j = k = 0."""
        n_j, n_last, n_k = self._shape[-3:]
        prefix, last = np.divmod(outer, n_last)
        return prefix * (n_j * self._stride) + last * n_k

    def _outer(self, m, a, b):
        """Outer sums (a, b) of the split after m slots, in slot k's units:
        A's running sum plus each B slot in turn, as ``_running_sum`` adds
        them."""
        if m == 0:  # b is the outer sum
            return self._sums()[b]
        o = self._a[a]
        for term, digit in zip(self._terms[m:], np.unravel_index(b, self._sizes[m:])):
            o = o + term[digit]
        o *= self._unit
        return o

    def _window(self, im, reach):
        """The j with |Im r - j Im s| <= reach, for Im r = im, as ranges
        lo .. hi - 1 within j's range (every j on a flat step where
        |Im r| <= reach)."""
        if self._flat:
            return np.zeros(im.size, np.intp), (np.abs(im) <= reach) * (int(self._top_j) + 1)
        lo, hi = (im - reach) * self._inv_im, (im + reach) * self._inv_im
        if self._inv_im < 0.0:
            lo, hi = hi, lo
        lo = np.ceil(lo).clip(0.0, self._top_j + 1.0)
        hi = np.floor(hi).clip(-1.0, self._top_j) + 1.0
        return lo.astype(np.intp), np.maximum(hi, lo).astype(np.intp)

    def _reach(self, dist, y):
        """sqrt(dist) plus the float slack of the |Im r - j Im s| it bounds."""
        reach = np.sqrt(dist)
        reach += 1e-9 * (reach + np.abs(y) + self._span)
        return reach

    def _pack(self, j, k):
        """The index offset of the candidates at these j and k: j stride + k."""
        return (j * self._stride + k).astype(np.intp)

    def _distance(self, y_re, o_re, im, j):
        """|r - j s - k|^2 at the best k, and k, for Re r = y_re - o_re and
        Im r = im (which it overwrites)."""
        k = j * self._step.imag
        im -= k
        im *= im
        t = y_re - o_re
        t -= np.multiply(j, self._step.real, out=k)
        np.subtract(t, 0.5, out=k)  # rounding half down keeps the lowest k on a tie
        np.ceil(k, out=k)
        k.clip(0.0, self._top_k, out=k)
        t -= k
        t *= t
        t += im
        return t, k

    @classmethod
    def _decide(cls, uses, use, dist, index):
        """Per sample, the least distance of these candidates and its lowest index."""
        best = np.full(uses, np.inf)
        np.minimum.at(best, use, dist)
        at_best = dist == best[use]
        return best, cls._lowest(uses, use[at_best], index[at_best])

    @staticmethod
    def _lowest(uses, use, index):
        """Per sample, the lowest of these indices, each at sample ``use``."""
        lowest = np.full(uses, _NO_INDEX)
        np.minimum.at(lowest, use, index)
        return lowest


def _running_sum(terms) -> np.ndarray:
    """Every sum of one value from each of ``terms``, in C order, added term
    by term."""
    total = np.zeros(1, dtype=complex)
    for term in terms:
        total = (total[:, None] + term).ravel()
    return total


def _ranges(lo, hi):
    """Every (range, element) of the ranges lo[r] .. hi[r] - 1, as the
    range's number and the element, ``_BLOCK_ELEMENTS`` at a time."""
    count = hi - lo
    ends = np.cumsum(count)
    shift = hi - ends
    total = int(ends[-1]) if ends.size else 0
    for start in range(0, total, _BLOCK_ELEMENTS):
        stop = min(start + _BLOCK_ELEMENTS, total)
        first, last = np.searchsorted(ends, (start, stop - 1), side="right")
        run = slice(first, last + 1)
        part = np.minimum(ends[run], stop) - np.maximum(ends[run] - count[run], start)
        elements = np.arange(start, stop) + np.repeat(shift[run], part)
        yield np.repeat(np.arange(first, last + 1), part), elements


class AlignedDemodulator:
    """Exact nearest-point demodulator for one UE.

    A ``_BoxSolver`` over the aligned alphabets (Q, 2Q-1, ..., 2Q-1, Q) along
    the effective gains: it solves the last two 2Q-1 slots for the
    Q^2 (2Q-1)^(n_d-3) outer sums of the others, split in two halves, and
    raises ``SearchSpaceError`` when the halves' partial sums exceed
    ``DEFAULT_SEARCH_CAP``.  ``candidate_count`` is the size of the whole
    aligned set.
    """

    def __init__(self, gains: PrecoderGains, csi: Csi, cfg: IaConfig, ue: int) -> None:
        ranges = layer_ranges(cfg.n_d, cfg.q)
        self.candidate_count = math.prod(ranges)
        self._solver = _BoxSolver(ranges, cfg.a * effective_gains(gains, csi, ue))

    def demodulate(self, ys: np.ndarray) -> np.ndarray:
        """Nearest aligned tuple to each received sample, shape (uses, n_d + 1).

        Column 0 is a clean own symbol (range Q), columns 1..n_d-1 are
        pairwise sums (range 2Q-1), column n_d is the peer's top symbol
        (range Q).
        """
        return self._solver.nearest(ys).T


def min_distance(gains: PrecoderGains, csi: Csi, cfg: IaConfig, ue: int) -> float:
    """Exact minimum pairwise distance of the noiseless received set.

    The differences of two aligned tuples are the tuples with each slot of
    range R in [-(R-1), R-1], and d and -d have the same length, so the
    nearest nonzero difference lies in one of n_d + 1 half-boxes: in
    half-box i the slots before i are 0, slot i runs over [1, R_i - 1] and
    the slots after it over [-(R-1), R-1].  Each half-box's difference
    nearest the origin is one ``_BoxSolver`` query.  The winners' lengths
    are summed slot by slot from the steps, as a difference grid sums them:
    they cancel terms far longer than themselves, so other orders round
    them differently.  Each half-box's solver raises ``SearchSpaceError``
    when its own partial sums exceed ``DEFAULT_SEARCH_CAP``; at n_d = 3 the
    largest need (Q-1) + (2Q-1).  A singleton set (Q = 1) has infinite
    distance by convention.
    """
    if cfg.q == 1:
        return math.inf
    ranges = layer_ranges(cfg.n_d, cfg.q)
    lows, sizes = [], []
    for i, r_i in enumerate(ranges):
        lows.append((0,) * i + (1,) + tuple(1 - r for r in ranges[i + 1 :]))
        sizes.append((1,) * i + (r_i - 1,) + tuple(2 * r - 1 for r in ranges[i + 1 :]))
    steps = cfg.a * effective_gains(gains, csi, ue)
    diffs = [
        np.add(low, np.ravel(_BoxSolver(size, steps).nearest(-(np.array([low]) @ steps))))
        for low, size in zip(lows, sizes)
    ]
    return float(np.abs(sum(step * d for step, d in zip(steps, np.transpose(diffs)))).min())


def transmit(
    csi: Csi, cfg: IaConfig, a_idx: np.ndarray, b_idx: np.ndarray, noise: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run a block of channel uses through the whole alignment chain.

    Encodes the (uses, n_d) symbol indices with the precoder gains of
    ``csi``, passes them through the channel (plus ``noise`` of shape
    (uses, 2) if given), demodulates at both UEs with ``AlignedDemodulator``s
    built on the same gains, and resolves both UEs' aligned sums with
    ``model.d2d_sic``; each forwarded sum is one of 2Q - 1 values, charged
    log2(2Q) bits, and the last slot gives the peer's top symbol for free.
    Returns the transmit signals (uses, 2), the resolved symbols of UE 1 and
    UE 2 stacked as (2, uses, n_d + 1), and a per-use flag that is True when
    every resolved symbol at both UEs is in {0..Q-1}, which fails only after
    a demodulation error.
    """
    gains = precoder_gains(csi, cfg.n_d)
    demods = [AlignedDemodulator(gains, csi, cfg, ue) for ue in (1, 2)]
    x = encode(a_idx, b_idx, gains, cfg.a)
    y = receive(x, csi, noise)
    # (slot, UE, use), from each UE's (slot, use) rows.
    t = np.concatenate(
        [demods[0].demodulate(y[:, 0]).T, demods[1].demodulate(y[:, 1]).T], axis=1
    ).reshape(cfg.n_d + 1, 2, len(y))
    d2d_sic(t, cfg.n_d)
    in_range = (t.view(np.uint64) < cfg.q).all(axis=(0, 1))  # a negative t reads as >= 2^63
    return x, t.transpose(1, 2, 0), in_range


@dataclass(frozen=True)
class IaDeliveryReport:
    """Monte-Carlo outcome of the alignment pipeline.

    ``symbol_error_rate`` comes from exact nearest-point demodulation when
    ``exact_demod`` is True; otherwise it is the margin error rate, the
    fraction of (use, UE) events where the noise magnitude reached half of
    ``IaConfig.d_min_lower_bound``.  That rate is a heuristic for sizes above
    the search cap and bounds nothing: the threshold bounds no distance, and
    even |z| >= d_min/2 is only a necessary condition for an error.
    """

    config: IaConfig
    symbol_error_rate: float
    margin_error_rate: float
    exact_demod: bool
    latency: LatencyBreakdown
    ndt_estimate: float
    n_uses: int
    peak_power_ratio: float


def _resolved_truth(a_idx: np.ndarray, b_idx: np.ndarray) -> np.ndarray:
    """The (2, uses, n_d + 1) symbols that ``transmit`` resolves at UE 1 and UE 2.

    Slot p < n_d holds layer p of the own EN at even p and of the peer EN at
    odd p; slot n_d holds the peer's top layer.
    """
    own = np.stack([a_idx, b_idx])  # (UE, uses, layer): each UE's own EN first
    truth = np.concatenate([own, own[::-1, :, -1:]], axis=-1)
    truth[:, :, 1:-1:2] = own[::-1, :, 1::2]
    return truth


def run_ia_delivery(
    seed: int,
    n_d: int,
    eps_prime: float,
    power: float,
    r_d: float,
    n_uses: int,
    noiseless: bool = False,
    power_mode: str = "peak",
) -> IaDeliveryReport:
    """Run the full pipeline over fresh symbols and account its latency.

    The exact estimator sends the symbols through one ``transmit`` block.
    Per channel use each UE gains n_d - 1 fresh layers of log2(Q) bits, so a
    run of ``n_uses`` uses delivers L = n_uses (n_d - 1) log2(Q) bits per UE;
    ``x_channel_latency`` charges t_e = n_uses and, for log2(2Q)-bit D2D
    elements, t_d = t_e * log2(2Q) (n_d-1) / (2 r_d log2(P)).

    The error rate comes from exact nearest-point demodulation when the
    whole aligned set, Q^2 (2Q-1)^(n_d-1), fits ``DEFAULT_SEARCH_CAP``, and
    from the minimum-distance margin event otherwise; the margin rate is
    reported either way.  Noise draws depend on the seed but not on the
    power budget, so margin error rates are monotone over a power ladder by
    construction.
    """
    if n_uses < 1:
        raise ValueError("n_uses must be >= 1")

    csi = draw_csi(seed)
    cfg = select_constellation(csi, n_d, power, eps_prime, power_mode=power_mode)
    if cfg.q > np.iinfo(np.int64).max:
        raise ValueError(
            f"power {power:g} is beyond what the simulation supports: "
            f"q = {cfg.q} does not fit an int64"
        )
    lat = x_channel_latency(n_uses, n_d, math.log2(2 * cfg.q), r_d, math.log2(power))
    exact = math.prod(layer_ranges(n_d, cfg.q)) <= DEFAULT_SEARCH_CAP
    draws = np.random.default_rng([seed, 0x5EED]).integers(0, cfg.q, size=(n_uses, 2, n_d))
    a_idx, b_idx = draws[:, 0], draws[:, 1]
    noise = None
    margin_events = 0
    if not noiseless:
        noise = draw_unit_noise(np.random.default_rng([seed, 0x401E]), (n_uses, 2))
        margin_events = int(np.count_nonzero(np.abs(noise) >= cfg.d_min_lower_bound / 2.0))
    margin_rate = margin_events / (2.0 * n_uses)

    if exact:
        x, resolved, _ = transmit(csi, cfg, a_idx, b_idx, noise)
        errors = np.count_nonzero(resolved != _resolved_truth(a_idx, b_idx))
        ser = int(errors) / (2.0 * n_uses * (n_d + 1))
    else:
        x = encode(a_idx, b_idx, precoder_gains(csi, n_d), cfg.a)
        ser = margin_rate
    peak_ratio = float((np.abs(x) ** 2).max() / power)

    bits_per_ue = n_uses * (n_d - 1) * math.log2(cfg.q)
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
