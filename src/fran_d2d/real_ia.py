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

``transmit`` runs that chain on a whole block of channel uses at once, on
``(uses, n_d)`` symbol index arrays per EN.

Every search of the aligned box goes through one solver, ``_BoxSolver``: it
enumerates every slot but two and solves those two in closed form, exact
without building the box, and it refuses a box whose outer sums exceed
``DEFAULT_SEARCH_CAP``.  On a block with more samples than outer sums it
first scores one seed per sample, the outer sum whose fractional position
across the window slot is nearest, and keeps it wherever the seed's
neighbours in sorted order prove that no other point can tie or beat it.
``AlignedDemodulator`` (uncoded, exact) asks it for the nearest aligned
tuple per sample; ``min_distance`` asks it for the nearest nonzero
difference in each of n_d + 1 half-boxes.  In "auto" mode
``run_ia_delivery`` falls back to a margin error estimate when the whole
aligned set is above the cap.  Rate accounting uses log2(Q) bits per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    Csi, LatencyBreakdown, _check_layer_count, _check_power, draw_csi, ndt_from_latency,
    x_channel_latency,
)

DEFAULT_SEARCH_CAP = 10**7
# Elements per demodulation block (uses x outer sums) and second-pass chunk
# (window candidates, up to 2Q-1 per cell far outside the constellation):
# 128 kB per float temporary.
_BLOCK_ELEMENTS = 2**14
_NO_INDEX = np.iinfo(np.intp).max


class SearchSpaceError(RuntimeError):
    """Raised when a box search would enumerate more outer sums than the cap."""


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
    and k, the third- and second-to-last, are solved; the others are
    enumerated as outer sums.  In units of slot k's step (1 + 0j), slot j
    has step s, and a sample y and an outer sum o leave the residual
    r = y - o.  For each j, Re(r - j s) rounded and clipped to k's range is
    the nearest k, and the distance is at least (Im r - j Im s)^2.

    ``nearest`` makes two passes over the outer sums, a block of samples at
    a time.  The first rounds j from Im r / Im s: a true candidate per
    (sample, outer sum), so a bound B on each sample's distance.  The second
    scans only the j with (Im r - j Im s)^2 <= B, as Schnorr-Euchner
    enumeration bounds a level by the best distance so far.  Ties go to the
    lowest index over (slots before j, j, last slot, k), as in a search
    that enumerates them in that order.

    The second pass is skipped for a block whose windows are all shorter
    than half a j step, 2 max(sqrt B) / |Im s| < 1/2 with B's float slack
    (never for a flat step).  A window then holds at most one j, and a cell
    within reach has its first-pass j in its window, so that j is the only
    candidate the second pass would score, with the same arithmetic.  A
    cell out of reach is farther than B, so it can neither win nor tie.
    The block is therefore decided from the first pass alone: per sample,
    the least first-pass distance and, among the cells at it, the lowest
    index.

    A call with more samples than outer sums (never on a flat step) first
    tries one seed per sample, as Schnorr-Euchner search starts from one
    good point and then proves that nothing beats it.  Write v = Im / Im s,
    so (Im r - j Im s)^2 = (Im s)^2 (v_y - v_o - j)^2.  The outer sums
    sorted by frac(v_o) form a table, built once per solver.  A sample's
    seed is the entry nearest frac(v_y), scored at its first-pass j with
    the same arithmetic: a true distance D.  Every other candidate within
    D has |v_y - v_o - j| <= W = sqrt D / |Im s| (plus the float slack), so
    it sits at a table entry, or at the seed's image one step away, within
    W of frac(v_y).  When both table neighbours of the seed are farther
    than W, none is: the seed's candidate is the nearest point, with no
    tie, and equals what the passes above return.  Coincident fractions
    never pass, and undecided samples go through the two passes.  The
    table costs a sort of the outer sums, which only such calls repay.

    Raises ``SearchSpaceError``, before allocating, when the outer sums
    would exceed ``DEFAULT_SEARCH_CAP``.
    """

    def __init__(self, sizes: tuple[int, ...], steps: np.ndarray) -> None:
        *prefix, n_j, n_k, n_last = sizes
        count = math.prod(prefix) * n_last
        if count > DEFAULT_SEARCH_CAP:
            raise SearchSpaceError(
                f"box search has {count} outer sums, above cap {DEFAULT_SEARCH_CAP}"
            )
        outer = np.zeros(1, dtype=complex)
        for size, step in zip((*prefix, n_last), steps[[*range(len(prefix)), -1]]):
            outer = (outer[:, None] + step * np.arange(size)[None, :]).ravel()
        # Coordinates in which slot k's step is 1 + 0j.
        self._unit = 1.0 / steps[-2]
        outer *= self._unit
        self._re, self._im = outer.real.copy(), outer.imag.copy()
        self._top_j, self._top_k = n_j - 1, n_k - 1
        # Index of (prefix, j, last slot, k): key[outer] + j stride + k.
        self._shape = (*prefix, n_j, n_last, n_k)
        self._stride = stride = n_last * n_k
        first = np.arange(0, outer.size * n_j * n_k, stride * n_j)
        self._key = (first[:, None] + np.arange(0, stride, n_k)).ravel()
        self._step = complex(steps[-3] * self._unit)
        s_im = self._step.imag
        inv_im = 1.0 / s_im if s_im != 0.0 else math.inf
        # A step too flat to invert keeps j = 0 in the first pass and is
        # scanned over its whole range in the second.
        self._flat = not math.isfinite(inv_im)
        self._inv_im = 0.0 if self._flat else inv_im
        # With |Im y|, bounds every |Im r - j Im s|: the window's float slack.
        self._im_span = float(np.abs(self._im).max()) + self._top_j * abs(s_im)
        self._fractions = None  # the seeds' sort table, built on first use

    def nearest(self, ys: np.ndarray) -> np.ndarray:
        """Slot values of the nearest point to each sample, shape (slots, samples)."""
        with np.errstate(over="ignore"):  # 1/Im s is huge for a nearly real step
            if len(ys) > self._re.size and not self._flat:
                index, rest = self._seeded(ys)
                if rest.size:
                    index[rest] = self._blocks(ys[rest])
            else:
                index = self._blocks(ys)
        *prefix, j, last, k = np.unravel_index(index, self._shape)
        return np.array((*prefix, j, k, last))

    def _blocks(self, ys: np.ndarray) -> np.ndarray:
        """``_nearest`` over blocks of at most ``_BLOCK_ELEMENTS`` cells."""
        block = max(1, _BLOCK_ELEMENTS // self._re.size)
        if len(ys) <= block:
            return self._nearest(ys)
        return np.concatenate([self._nearest(ys[i : i + block]) for i in range(0, len(ys), block)])

    def _sorted_fractions(self):
        """The outer sums sorted by frac(Im o / Im s), as their fractions,
        continued periodically by two entries at each end (minus or plus 1),
        and each entry's Im o, Re o and index key."""
        v = self._im * self._inv_im
        frac = v - np.floor(v)
        frac[frac == 1.0] = 0.0  # rounded up from just below an integer
        order = np.argsort(frac, kind="stable")
        wrap = np.arange(-2, order.size + 2)
        outer = order[wrap % order.size]
        return frac[outer] + wrap // order.size, self._im[outer], self._re[outer], self._key[outer]

    def _seeded(self, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index of each sample that its seed decides, as the class describes,
        and the positions of the rest; samples go in chunks of
        ``_BLOCK_ELEMENTS``."""
        if self._fractions is None:
            self._fractions = self._sorted_fractions()
        table, o_im, o_re, key = self._fractions
        index = np.empty(len(ys), dtype=np.intp)
        decided = np.empty(len(ys), dtype=bool)
        for start in range(0, len(ys), _BLOCK_ELEMENTS):
            chunk = slice(start, start + _BLOCK_ELEMENTS)
            y = ys[chunk] * self._unit
            f = y.imag * self._inv_im
            f -= np.floor(f)
            # table[1] < 0 <= f <= 1 <= table[-2], so a finite f lands in
            # 2 .. size - 2; NaN sorts last.
            pos = np.searchsorted(table, f)
            np.minimum(pos, table.size - 2, out=pos)
            pos -= f - table[pos - 1] <= table[pos] - f  # the nearer of the two
            e = y.imag - o_im[pos]
            dist, index[chunk] = self._score(key[pos], y.real, o_re[pos], e, self._first_j(e))
            reach = self._reach(dist, y.imag)
            reach *= abs(self._inv_im)
            decided[chunk] = (f - table[pos - 1] > reach) & (table[pos + 1] - f > reach)
        return index, np.flatnonzero(~decided)

    def _reach(self, dist, y_im):
        """sqrt(dist) plus the float slack of the |Im r - j Im s| it bounds."""
        reach = np.sqrt(dist)
        reach += 1e-9 * (reach + np.abs(y_im) + self._im_span)
        return reach

    def _score(self, key, y_re, o_re, im, j):
        """``_distance`` of the candidates at these j, and their index key + j stride + k."""
        index = j * self._stride  # before ``_distance`` turns j into k
        dist, k, _ = self._distance(y_re, o_re, im, j)
        index += k
        return dist, key + index.astype(np.intp)

    def _distance(self, y_re, o_re, im, j):
        """|r - j s - k|^2 at the best k, for Re r = y_re - o_re and Im r = im;
        also k (in ``j``) and (Im r - j Im s)^2 (in ``im``).  Every pass uses
        it, so a candidate's distance is the same in each."""
        im -= j * self._step.imag
        im *= im
        j *= self._step.real
        t = y_re - o_re
        t -= j
        k = np.subtract(t, 0.5, out=j)  # rounding half down keeps the lowest k on a tie
        np.ceil(k, out=k)
        np.maximum(k, 0, out=k)
        np.minimum(k, self._top_k, out=k)
        t -= k
        t *= t
        t += im
        return t, k, im

    def _first_j(self, im):
        """The first pass's j for Im r = im: Im r / Im s rounded into range."""
        j = im * self._inv_im
        np.rint(j, out=j)
        np.maximum(j, 0, out=j)
        np.minimum(j, self._top_j, out=j)
        return j

    def _decide(self, uses, use, key, y_re, o_re, im, j):
        """Per sample, the least distance of these candidates and its lowest index."""
        dist, index = self._score(key, y_re, o_re, im, j)
        best = np.full(uses, np.inf)
        np.minimum.at(best, use, dist)
        index[dist != best[use]] = _NO_INDEX
        lowest = np.full(uses, _NO_INDEX)
        np.minimum.at(lowest, use, index)
        return best, lowest

    def _nearest(self, ys: np.ndarray) -> np.ndarray:
        """Index of the nearest point to each sample of one block."""
        uses, n_outer, top = len(ys), self._re.size, self._top_j
        y = ys * self._unit
        # Cells are (use, outer sum).  Pass 1: the j nearest to Im r / Im s
        # gives a true candidate per cell.  Worked in place, so at most three
        # block-sized arrays live.
        e = y.imag[:, None] - self._im
        dist, k, e = self._distance(y.real[:, None], self._re, e, self._first_j(e))
        best = dist.min(axis=1)
        reach = self._reach(best, y.imag)
        if self._flat:  # j = 0 may be up to top |Im s| off the nearest j
            reach += top * abs(self._step.imag)
        elif 2.0 * reach.max() * abs(self._inv_im) < 0.5:
            # Every window below holds at most one j, the cell's pass-1 j, so
            # pass 2 would score pass 1's candidates again: decide from them.
            cell = np.flatnonzero(dist == best[:, None])
            return self._lowest(uses, cell, y, np.take(k, cell))
        # Pass 2: that j also has the cell's smallest Im part, so only cells
        # where it is within reach are scanned, over every j with
        # |Im r - j Im s| <= reach.
        reach2 = reach * reach
        cell = np.flatnonzero(e <= reach2[:, None])
        use, outer = cell // n_outer, cell % n_outer
        cand = [use, self._key[outer], y.real[use], self._re[outer]]
        im = y.imag[use] - self._im[outer]
        reach = np.full(use.size, np.inf) if self._flat else reach[use]
        inv = self._inv_im or 1.0
        lo, size = (im - reach) * inv, (im + reach) * inv
        if inv < 0.0:
            lo, size = size, lo
        np.ceil(lo, out=lo)
        np.maximum(lo, 0, out=lo)
        np.floor(size, out=size)
        np.minimum(size, top, out=size)
        size -= lo - 1
        np.maximum(size, 0, out=size)
        if (size == 1).all():  # one j per cell: the cells are the candidates
            return self._decide(uses, *cand, im, lo)[1]
        del k, dist, e, cell, outer  # free pass 1's arrays for the scan
        return self._scan(uses, cand + [im, lo], size)

    def _lowest(self, uses, cell, y, k):
        """Per sample, the lowest index among these first-pass cells (flat
        positions in the block), whose k is ``k``; their j is recomputed."""
        use, outer = np.divmod(cell, self._re.size)
        j = self._first_j(y.imag[use] - self._im[outer])
        j *= self._stride
        j += k
        index = self._key[outer] + j.astype(np.intp)
        lowest = np.full(uses, _NO_INDEX)
        np.minimum.at(lowest, use, index)
        return lowest

    def _scan(self, uses, cand, size):
        """``_decide`` over j = lo .. lo + size - 1 per cell (lo = cand[-1]), in chunks."""
        ends = np.cumsum(size)
        lo = cand[-1]
        lo -= ends
        lo += size  # j = lo + the candidate's position
        span = ends // _BLOCK_ELEMENTS
        edges = [0, *(np.flatnonzero(span[1:] != span[:-1]) + 1).tolist(), size.size]
        parts = []
        for c0, c1 in zip(edges[:-1], edges[1:]):
            reps = size[c0:c1].astype(np.intp)
            chunk = [np.repeat(a[c0:c1], reps) for a in cand]
            chunk[-1] += np.arange(ends[c0] - size[c0], ends[c1 - 1])
            parts.append(self._decide(uses, *chunk))
        best, lowest = (np.array(x) for x in zip(*parts))
        lowest[best != best.min(axis=0)] = _NO_INDEX
        return lowest.min(axis=0)


class AlignedDemodulator:
    """Exact nearest-point demodulator for one UE.

    A ``_BoxSolver`` over the aligned alphabets (Q, 2Q-1, ..., 2Q-1, Q) along
    the effective gains: it solves the last two 2Q-1 slots over the
    Q^2 (2Q-1)^(n_d-3) outer sums of the others, and raises
    ``SearchSpaceError`` when those exceed ``DEFAULT_SEARCH_CAP``.
    ``candidate_count`` is the size of the whole aligned set.
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
    when its own outer sums exceed ``DEFAULT_SEARCH_CAP``; at n_d = 3 the
    largest has (Q-1)(2Q-1).  A singleton set (Q = 1) has infinite distance
    by convention.
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


def resolve(c_own: np.ndarray, c_peer: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """D2D exchange and subtraction chain at one UE, for uses along axis -2.

    The peer forwards its aligned sums at positions 2, 4, ..., n_d - 1
    (1-based): (n_d - 1)/2 elements per use, each one of 2Q - 1 values;
    accounting charges log2(2Q) bits per element.  With those spliced into
    the own observation t, symbol p is t_p - t_{p-1} + t_{p-2} - ... + t_1 at
    UE 1 (a_1, then b_2 = (b_2 + a_1) - a_1, then a_3, ...); the final slot
    contributes the peer's top symbol for free.  All arithmetic is on
    integer indices, so a correct demodulation propagates no error at all.

    Returns the (..., uses, n_d + 1) resolved symbols and a per-use flag
    that is False when some symbol fell outside {0..Q-1}, which can only
    happen after an upstream demodulation error.
    """
    if c_peer.shape != c_own.shape:
        raise ValueError("peer observation must have the own observation's shape")
    n_d = c_own.shape[-1] - 1
    # Slots lead while resolving, so each step of the chain works on whole
    # rows of uses: symbol p is t_p minus the resolved symbol p - 1.
    slots_first = (c_own.ndim - 1, *range(c_own.ndim - 1))
    t = c_own.transpose(slots_first).copy()
    t[1 : n_d - 1 : 2] = c_peer.transpose(slots_first)[1 : n_d - 1 : 2]
    for p in range(1, n_d):
        t[p] -= t[p - 1]
    in_range = (t >= 0) & (t < q)
    return t.transpose((*range(1, t.ndim), 0)), in_range.all(axis=0)


def transmit(
    csi: Csi, cfg: IaConfig, a_idx: np.ndarray, b_idx: np.ndarray, noise: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run a block of channel uses through the whole alignment chain.

    Encodes the (uses, n_d) symbol indices with the precoder gains of
    ``csi``, passes them through the channel (plus ``noise`` of shape
    (uses, 2) if given), demodulates at both UEs with ``AlignedDemodulator``s
    built on the same gains, swaps the even aligned sums over D2D and
    resolves.  Returns the transmit signals (uses, 2), the resolved symbols
    of UE 1 and UE 2 stacked as (2, uses, n_d + 1), and a per-use flag that
    is True when every resolved symbol at both UEs is in range.
    """
    gains = precoder_gains(csi, cfg.n_d)
    demods = [AlignedDemodulator(gains, csi, cfg, ue) for ue in (1, 2)]
    x = encode(a_idx, b_idx, gains, cfg.a)
    y = receive(x, csi, noise)
    c = np.array([demods[0].demodulate(y[:, 0]), demods[1].demodulate(y[:, 1])])
    resolved, ok = resolve(c, c[::-1], cfg.q)
    return x, resolved, ok.all(axis=0)


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
    demod: str = "auto",
    power_mode: str = "peak",
) -> IaDeliveryReport:
    """Run the full pipeline over fresh symbols and account its latency.

    The exact estimator sends the symbols through one ``transmit`` block.
    Per channel use each UE gains n_d - 1 fresh layers of log2(Q) bits, so a
    run of ``n_uses`` uses delivers L = n_uses (n_d - 1) log2(Q) bits per UE;
    ``x_channel_latency`` charges t_e = n_uses and, for log2(2Q)-bit D2D
    elements, t_d = t_e * log2(2Q) (n_d-1) / (2 r_d log2(P)).

    ``demod`` selects the error estimator: "exact" demands nearest-point
    demodulation (raising ``SearchSpaceError`` if the solver's outer sums
    exceed ``DEFAULT_SEARCH_CAP``), "margin" uses the minimum-distance
    margin event only, and "auto" picks exact when the whole aligned set,
    Q^2 (2Q-1)^(n_d-1), fits the cap.  Noise draws depend on the seed but
    not on the power budget, so margin error rates are monotone over a power
    ladder by construction.
    """
    if n_uses < 1:
        raise ValueError("n_uses must be >= 1")
    if demod not in ("auto", "exact", "margin"):
        raise ValueError(f"unknown demod mode {demod!r}")

    csi = draw_csi(seed)
    cfg = select_constellation(csi, n_d, power, eps_prime, power_mode=power_mode)
    if cfg.q > np.iinfo(np.int64).max:
        raise ValueError(
            f"power {power:g} is beyond what the simulation supports: "
            f"q = {cfg.q} does not fit an int64"
        )
    lat = x_channel_latency(n_uses, n_d, math.log2(2 * cfg.q), r_d, math.log2(power))
    count = math.prod(layer_ranges(n_d, cfg.q))
    exact = demod == "exact" or (demod == "auto" and count <= DEFAULT_SEARCH_CAP)
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
