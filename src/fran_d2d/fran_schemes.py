"""Corner-point delivery policies and the time/memory-sharing scheduler.

The scheme table ``SCHEMES`` is the one place where each closed-form
scheme's cache corner, delivery time, fronthaul use and signal-level
runners are defined.  Each cache corner takes its fastest scheme: at mu = 0
soft transfer (cloud-side ZF, quantized samples over fronthaul); at
mu = 1/2 EN coordination by interference alignment, a fronthaul/cache mix
or the D2D-aided X channel; at mu = 1 cache-aided cooperative ZF.  Interior
cache sizes are served by time-sharing: the file is split into two segments
delivered by two corner policies whose cache shares average to mu.  The
lower convex envelope of the corners matches the closed-form optimum
everywhere, which the tests check on a dense grid.

``run_end_to_end`` executes a corner at signal level on random file bits.
Cache-aided ZF and soft transfer share one block pipeline (``_run_zf_like``):
QAM symbols, precoding by the channel inverse, for soft transfer a uniform
quantizer spanning +-sqrt(P) per real dimension, and a per-axis slicer, at
the largest bit load that keeps zero-noise decoding exact.  The mu = 1/2 X
channel runs on GF(2) levels (``d2d_det``) or by real interference alignment
(``d2d_ia``) through one body (``_run_x_channel``): both send only what
``cache_placement`` puts in each EN's half cache, through one layer layout
(``_half_cache_layers``) and its inverse (``_half_cache_files``), which pack
and unpack all four cached segments in one call.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import ArrayLike

from .model import (
    Csi,
    DemandVector,
    LatencyBreakdown,
    Ndt,
    SystemParams,
    _check_cache_size,
    _check_power,
    _check_rates,
    draw_csi,
    ndt_from_latency,
    x_channel_latency,
)
from .ndt_formulas import _floats, det_ndt
from . import det_xchannel, real_ia

# Row v holds the bits of byte v, LSB first: ``_int_to_bits``'s table.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")


@dataclass(frozen=True)
class Scheme:
    """One closed-form scheme: a row of ``SCHEMES``.

    ``ndt`` gives its delivery time at every point from |r_f| and |r_d|,
    float64 arrays of one shape: an array of that shape, or a float where
    the time is constant.  A zero rate gives +inf, whose warning the caller
    silences.  ``runners`` names the ``run_end_to_end`` schemes that
    realise it at signal level.
    """

    name: str
    mu_corner: float
    uses_fronthaul: bool
    ndt: Callable[[np.ndarray, np.ndarray], np.ndarray]
    runners: tuple[str, ...] = ()


# ``MixGrid.scheme`` indexes this tuple.  Among the rows of one corner a
# later one wins only when strictly faster.  ``d2d_x`` takes delta_x(r_d).
SCHEMES = (
    Scheme("soft_transfer", 0.0, True, lambda r_f, r_d: 1.0 + 1.0 / r_f, ("soft_transfer",)),
    Scheme("ia_no_d2d", 0.5, False, lambda r_f, r_d: 1.5),
    Scheme("fronthaul_zf_mix", 0.5, True, lambda r_f, r_d: 1.0 + 1.0 / (2.0 * r_f)),
    Scheme("d2d_x", 0.5, False, lambda r_f, r_d: 1.0 + 1.0 / (2.0 * r_d), ("d2d_det", "d2d_ia")),
    Scheme("cache_zf", 1.0, False, lambda r_f, r_d: 1.0, ("cache_zf",)),
)
CORNER_MUS = tuple(sorted({s.mu_corner for s in SCHEMES}))
# The rows of each corner, in table order.
_CORNER_ROWS = tuple(
    tuple(i for i, s in enumerate(SCHEMES) if s.mu_corner == m) for m in CORNER_MUS
)
# Each scheme that ``run_end_to_end`` runs (a runner) and the row it realises.
RUNNERS = {runner: s for s in SCHEMES for runner in s.runners}


@dataclass(frozen=True)
class CachePlacement:
    """Per-EN, per-file cached bit ranges (half-open, in bits)."""

    mu_corner: float
    n_files: int
    file_bits: int
    ranges: tuple[tuple[tuple[int, int], ...], ...]

    def cached_bits(self, en: int) -> int:
        return sum(stop - start for start, stop in self.ranges[en])

    @property
    def capacity_bits(self) -> float:
        return self.mu_corner * self.n_files * self.file_bits


@dataclass(frozen=True)
class SchemeComponent:
    scheme: str
    mu_corner: float
    fraction: float


def _check_mix(mu: ArrayLike, fraction: np.ndarray, mu_corner: np.ndarray, where=True) -> None:
    """Raise unless every point that ``where`` selects has a valid cache-size mix.

    Components run along the first axis of ``fraction`` and ``mu_corner``;
    ``mu`` holds one cache size per point.  An unused slot has fraction 0.
    The fractions are non-negative, sum to 1 and average the corners to mu.
    """
    total = fraction.sum(axis=0)
    if ((fraction < 0).any(axis=0) & where).any():
        raise ValueError("fractions must be non-negative")
    off = (np.abs(total - 1.0) > 1e-12) & where
    if off.any():
        raise ValueError(f"fractions must sum to 1, got {float(np.extract(off, total)[0])}")
    if ((np.abs((fraction * mu_corner).sum(axis=0) - mu) > 1e-12) & where).any():
        raise ValueError("cache shares do not average to the requested mu")


@dataclass(frozen=True)
class SchemeMix:
    """Convex combination of corner policies realizing one cache size."""

    mu: float
    components: tuple[SchemeComponent, ...]
    ndt: Ndt

    def __post_init__(self) -> None:
        if self.components:
            _check_mix(
                self.mu,
                np.array([c.fraction for c in self.components]),
                np.array([c.mu_corner for c in self.components]),
            )

    def uses_fronthaul(self) -> bool:
        names = {c.scheme for c in self.components}
        return any(s.uses_fronthaul and s.name in names for s in SCHEMES)


@dataclass(frozen=True)
class MixGrid:
    """``best_achievable`` over a grid: per point, a mix of at most two corners.

    ``scheme`` holds indices into ``SCHEMES`` with -1 for an unused slot,
    ``mu_corner`` and ``fraction`` the corner cache size and time share of
    each slot (0 when unused); all three have shape grid + (2,).  A point
    with no component is infeasible and its ``ndt`` is +inf.
    """

    ndt: np.ndarray
    scheme: np.ndarray
    mu_corner: np.ndarray
    fraction: np.ndarray

    def uses_fronthaul(self) -> np.ndarray:
        fronthaul = [i for i, s in enumerate(SCHEMES) if s.uses_fronthaul]
        return np.isin(self.scheme, fronthaul).any(axis=-1)


def cache_placement(mu_corner: float, n_files: int, file_bits: int) -> CachePlacement:
    """Placement at a cache corner.

    mu = 0 leaves the caches empty, mu = 1/2 stores the first half of every
    file at EN 1 and the second half at EN 2, mu = 1 stores everything at
    both ENs.  Interior cache sizes are realized by time-sharing, not by a
    placement of their own.
    """
    if mu_corner not in CORNER_MUS:
        raise ValueError(f"placement defined only at mu in {CORNER_MUS}, got {mu_corner}")
    if n_files < 2 or file_bits < 1:
        raise ValueError("need n_files >= 2 and file_bits >= 1")
    if mu_corner == 0.0:
        per_en: tuple[tuple[int, int], ...] = tuple((0, 0) for _ in range(n_files))
        ranges = (per_en, per_en)
    elif mu_corner == 0.5:
        if file_bits % 2 != 0:
            raise ValueError("half caching needs an even file size")
        half = file_bits // 2
        ranges = (
            tuple((0, half) for _ in range(n_files)),
            tuple((half, file_bits) for _ in range(n_files)),
        )
    else:
        full = tuple((0, file_bits) for _ in range(n_files))
        ranges = (full, full)
    placement = CachePlacement(mu_corner, n_files, file_bits, ranges)
    for en in (0, 1):
        if placement.cached_bits(en) > placement.capacity_bits + 1e-9:
            raise AssertionError("placement exceeds the cache budget")
    return placement


def _zf_scale(csi: Csi, power: float) -> tuple[np.ndarray, float]:
    """Channel inverse and the amplitude beta keeping per-EN peak power <= P.

    The precoded signal is beta * H^-1 s with |s_k| <= 1, so per-EN amplitude
    is bounded by beta * max_m sum_j |(H^-1)_mj|.
    """
    _check_power(power)
    inv = np.linalg.inv(csi.matrix())
    row_l1 = np.abs(inv).sum(axis=1).max()
    beta = math.sqrt(power) / row_l1
    return inv, float(beta)


def _quantize_uniform(x: np.ndarray, half_range: float, n_levels: int) -> np.ndarray:
    """Uniform scalar quantizer on [-half_range, half_range] per real dim."""
    step = 2.0 * half_range / (n_levels - 1)
    idx = np.clip(np.round((x + half_range) / step), 0, n_levels - 1)
    return -half_range + idx * step


def _corner_grid(r_f: np.ndarray, r_d: np.ndarray) -> tuple[tuple, tuple]:
    """Each corner's best scheme and its delivery time, per point.

    Corner k sits at ``CORNER_MUS[k]`` and picks among its rows of
    ``SCHEMES``: a later row replaces the best so far only when strictly
    smaller, so ties keep the table order.  A corner of one row keeps its
    row's index, and its time as the row gives it, an array or a float.
    The rates passed ``_check_rates``, so 1 / |r| is ``_ratio(1.0, r)``:
    no corner time is -inf.
    """
    r_f, r_d = np.abs(r_f), np.abs(r_d)
    schemes, values = [], []
    with np.errstate(divide="ignore", over="ignore"):  # 1/0, 1/(tiny r) and 2 r may overflow
        for rows in _CORNER_ROWS:
            scheme, value = rows[0], SCHEMES[rows[0]].ndt(r_f, r_d)
            for i in rows[1:]:
                other = SCHEMES[i].ndt(r_f, r_d)
                better = other < value
                scheme = np.where(better, i, scheme)
                value = np.where(better, other, value)
            schemes.append(scheme)
            values.append(value)
    return tuple(schemes), tuple(values)


# Corner pairs in the order they are tried.
_CORNER_PAIRS = ((0, 1), (0, 2), (1, 2))
# The choices of ``best_achievable_grid``: the corner positions of the two
# slots, -1 for an unused slot.  Choice 0 is no mix, 1 + k is corner k alone
# and 4 + p is the pair ``_CORNER_PAIRS[p]``.
_CHOICES = np.array(((-1, -1), (0, -1), (1, -1), (2, -1)) + _CORNER_PAIRS)
# Per corner position (-1 last): its cache size, and the scheme of a corner
# of one row (-1 where a corner picks its scheme per point).
_CORNER_SIZES = np.array(CORNER_MUS + (0.0,))
_ONE_ROW_SCHEMES = np.array([rows[0] if len(rows) == 1 else -1 for rows in _CORNER_ROWS] + [-1])


def best_achievable_grid(
    mu: ArrayLike, r_f: ArrayLike, r_d: ArrayLike, *, check: bool = True
) -> MixGrid:
    """Lower convex envelope of the corner policies at every (mu, r_f, r_d) point.

    The arguments broadcast against each other.  Infinite corners are
    excluded.  A corner at exactly mu wins on a smaller value; then each
    pair of corners straddling mu, in ``_CORNER_PAIRS`` order, wins when its
    chord lies more than 1e-15 below the best so far.  When no remaining
    corner pair straddles the requested cache size the point is infeasible:
    no component and an infinite delivery time.  Matches the closed-form
    optimum everywhere.

    Each point keeps one choice index into ``_CHOICES``; schemes, corner
    sizes and fractions are looked up from it at the end, and the feasible
    mixes pass ``_check_mix`` unless ``check`` is False, for a caller that
    checks them itself.  A comparison with an infinite corner, or
    with a chord through one (inf or 0 * inf), is never true, so no
    separate finiteness test is needed.  A round that no point's mu takes
    part in is skipped; a grid of one mu runs one or two rounds, on a float.
    """
    mu, r_f, r_d = _floats(mu, r_f, r_d)
    lo, hi = mu.min(initial=np.inf), mu.max(initial=-np.inf)
    _check_cache_size(mu, lo, hi)
    _check_rates(r_f=r_f, r_d=r_d)
    size = float(lo) if lo == hi else mu  # the cache size the rounds compare
    best = np.full(mu.shape, np.inf)
    choice = np.zeros(mu.shape, dtype=np.intp)
    weight = np.ones(mu.shape)  # time share of the first slot
    corner_scheme, corner_value = _corner_grid(r_f, r_d)
    with np.errstate(all="ignore"):  # 0 * inf where a corner is excluded
        for k, m in enumerate(CORNER_MUS):  # degenerate mixes first: exact corner hit
            if m < lo or m > hi:
                continue
            hit = (m == size) & (corner_value[k] < best)
            np.copyto(best, corner_value[k], where=hit)
            np.copyto(choice, 1 + k, where=hit)
        for p, (i, j) in enumerate(_CORNER_PAIRS, start=4):
            m1, m2 = CORNER_MUS[i], CORNER_MUS[j]
            if hi <= m1 or lo >= m2:
                continue
            w1 = (m2 - size) / (m2 - m1)
            value = w1 * corner_value[i] + (1.0 - w1) * corner_value[j]
            hit = (m1 < size) & (size < m2) & (value < best - 1e-15)
            np.copyto(best, value, where=hit)
            np.copyto(choice, p, where=hit)
            np.copyto(weight, w1, where=hit)

    # Slots lead until the end: a reduction or mask over a trailing axis of
    # length 2 costs far more than over a leading one.
    corners = _CHOICES.T.take(choice, axis=1)
    scheme = _ONE_ROW_SCHEMES.take(corners)
    for k, s in enumerate(corner_scheme):
        if isinstance(s, np.ndarray):  # picked per point
            scheme = np.where(corners == k, s, scheme)
    mu_corner = _CORNER_SIZES.take(corners)
    fraction = np.stack([weight, 1.0 - weight])
    fraction *= corners >= 0
    if check:
        _check_mix(size, fraction, mu_corner, where=choice > 0)
    slots_last = (*range(1, corners.ndim), 0)
    scheme, mu_corner, fraction = (a.transpose(slots_last) for a in (scheme, mu_corner, fraction))
    return MixGrid(ndt=best, scheme=scheme, mu_corner=mu_corner, fraction=fraction)


def best_achievable(params: SystemParams) -> tuple[SchemeMix, Ndt]:
    """Best mix of one point: ``best_achievable_grid`` on 0-d arrays.

    The mix is checked once, by ``SchemeMix``.
    """
    grid = best_achievable_grid(params.mu, params.r_f, params.r_d, check=False)
    components = tuple(
        SchemeComponent(SCHEMES[s].name, m, f)
        for s, m, f in zip(grid.scheme.tolist(), grid.mu_corner.tolist(), grid.fraction.tolist())
        if s >= 0
    )
    value = float(grid.ndt)
    return SchemeMix(mu=params.mu, components=components, ndt=value), value


def _odd_level_count(power: float) -> int:
    n_d = max(3, math.ceil(math.log2(power)))
    return n_d if n_d % 2 == 1 else n_d + 1


def _bits_to_int(bits: np.ndarray, width: int) -> np.ndarray:
    """LSB-first int64 value of each ``width``-bit group along the last axis of ``bits``."""
    groups = bits.reshape(*bits.shape[:-1], -1, width)
    values = groups[..., -1].astype(np.int64)
    for j in range(width - 2, -1, -1):  # a shift-or: numpy has no BLAS integer matmul
        values <<= 1
        values |= groups[..., j]
    return values


def _int_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Inverse of ``_bits_to_int``: each value's low ``width`` bits, two's complement, LSB first."""
    if width == 1:  # unpacking one bit per row costs several times this mask
        return (values.ravel() & 1).astype(np.uint8)
    if width <= 8:  # a table row per low byte costs a third of unpacking row by row
        return _BYTE_BITS[:, :width].take(values.astype(np.uint8), axis=0).ravel()
    raw = np.ascontiguousarray(values, dtype="<i8").reshape(-1, 1).view(np.uint8)
    return np.unpackbits(raw, axis=1, count=width, bitorder="little").ravel()


@dataclass(frozen=True)
class EndToEndReport:
    scheme: str
    demand: DemandVector
    exact: bool
    mismatched_bits: int
    latency: LatencyBreakdown
    ndt_estimate: float
    details: dict = field(default_factory=dict)


# Symbol indices are int64 and the slicer clips to 2^bits_per_dim - 1 as a
# double, so a PAM axis of at most 62 bits per real dimension fits.  (The
# bit-load search stops sooner, where float error would reach the slicer.)
_MAX_BITS_PER_DIM = 62


def _qam_points(bits_per_dim: int, index):
    # Points ``index`` (an int or an index array) of the 2^bits_per_dim-point
    # unit-peak PAM axis per real dimension; both give the same IEEE doubles.
    n = 2**bits_per_dim
    return (2.0 * index - (n - 1)) / (n - 1) / math.sqrt(2.0)


def _qam_spacing(bits_per_dim: int) -> float:
    """Distance between PAM points 0 and 1, bit for bit as ``_qam_points`` gives them."""
    return _qam_points(bits_per_dim, 1) - _qam_points(bits_per_dim, 0)


def _slice_pam(u: np.ndarray, levels: int) -> np.ndarray:
    """Index of the PAM point nearest to each ``u``, given in slicer units.

    In slicer units point j of the axis sits at j.  Rounding half down sends
    a sample midway between two points to the lower index, as an argmin over
    the points does; samples beyond the axis go to its end points.
    """
    return np.clip(np.ceil(u - 0.5), 0, levels - 1).astype(np.int64)


def _zf_block(
    symbols: np.ndarray,
    bits_per_dim: int,
    inv: np.ndarray,
    h: np.ndarray,
    beta: float,
    quantizer: tuple[float, int] | None,
) -> np.ndarray:
    """Decided axis indices of a block of noiseless ZF channel uses.

    ``symbols`` is (uses, 2), one QAM symbol per use and UE, whose real and
    imaginary parts are ``bits_per_dim``-bit PAM points.  The block is
    precoded by beta * H^-1, quantized per real dimension when ``quantizer``
    = (half_range, n_levels) is given, received through H and sliced per real
    axis without building the axis, by inverting ``_qam_points``: index u =
    (n - 1)(v / sqrt(2) + 1/2) for n = 2^bits_per_dim points, which subtracts
    no two nearby points and so adds only a few roundings to v's float
    error.  Returns (uses, 2, 2) indices: per use and UE, the in-phase then
    the quadrature axis index.  Both real parts are quantized and sliced as
    one float64 view: q(re) + 1j q(im) bit for bit, as no level is -0.0 or
    not finite.
    """
    x = beta * symbols @ inv.T
    if quantizer is not None:
        x = _quantize_uniform(x.view(np.float64), *quantizer).view(np.complex128)
    v = (x @ h.T) / beta
    n = 2**bits_per_dim
    u = v.view(np.float64).reshape(-1, 2, 2) * ((n - 1) / math.sqrt(2.0)) + (n - 1) / 2.0
    return _slice_pam(u, n)


def _run_zf_like(
    params: SystemParams,
    csi: Csi,
    files: np.ndarray,
    demand: DemandVector,
    row: Scheme,
) -> EndToEndReport:
    """Shared delivery for cache-aided ZF and cloud soft transfer: ``row``'s runner.

    Both map the demanded files to QAM symbols and deliver the whole block
    of channel uses at once through an inverted channel (``_zf_block``);
    soft transfer, the row that uses fronthaul, also quantizes the precoded
    block and pays the fronthaul phase.  Each EN ships a ceil(log2 P / 2)-bit
    level index per real dimension and use, so t_f = t_e (2 ceil(log2 P /
    2) / log2 P) / r_f, which is t_e / r_f at even log2 P.  The per-use bit
    load is the largest that keeps zero-noise decoding exact under two error
    bounds, in slicer units of one point spacing, whose sum stays below the
    margin of 1/2.  The quantizer's worst error takes at most 1/3.  Float
    error takes at most 1/6: a b-bit axis slices within 2^-48 (2^b - 1)
    ||H|| ||H^-1|| of each point (row-sum norms), a bound on the chain's
    few dozen roundings (the inverse, two complex 2x2 products, the
    quantizer, the slicer's map), each within 2^-53 of magnitudes that
    those norms bound.  Over channel seeds 0..299 this stops the load at 39
    to 44 bits.
    """
    inv, beta = _zf_scale(csi, params.power)
    h = csi.matrix()
    log2p = math.log2(params.power)

    quantizer = None
    if row.uses_fronthaul:
        # _zf_scale bounds each EN's peak amplitude by sqrt(P), so a quantizer
        # spanning +-sqrt(P) per real dimension never clips.  Its error is at
        # most half a step per real dimension, step / sqrt(2) per complex
        # sample, and UE k receives at most (|h_k1| + |h_k2|) times that.
        # Shrinking beta by that worst error keeps every quantized sample
        # inside the sqrt(P) disc; a non-positive beta fails the check below.
        level_bits = math.ceil(log2p / 2.0)
        n_levels = 2**level_bits
        half_range = math.sqrt(params.power)
        quantizer = (half_range, n_levels)
        step = 2.0 * half_range / (n_levels - 1)
        beta *= 1.0 - step / math.sqrt(2.0 * params.power)
        err_bound = max(
            (abs(h[k, 0]) + abs(h[k, 1])) * step * math.sqrt(2.0) / 2.0 for k in (0, 1)
        )
    else:
        err_bound = 0.0

    if log2p >= 2 * (_MAX_BITS_PER_DIM + 1):
        raise ValueError(
            f"power too large: log2 P = {log2p:g} offers more than {_MAX_BITS_PER_DIM}"
            " bits per real dimension"
        )
    # ||H|| ||H^-1|| in row-sum norms; a 2x2 inverse's is ||H^T|| / |det H|.
    m11, m12, m21, m22 = (abs(x) for x in (csi.h11, csi.h12, csi.h21, csi.h22))
    cond = max(m11 + m12, m21 + m22) * max(m11 + m21, m12 + m22) / abs(csi.determinant)
    float_unit = 2.0**-48 * cond
    bits_per_dim = 0
    for nxt in range(1, _MAX_BITS_PER_DIM + 1):  # b bits per real dimension need log2 P >= 2b
        spacing = beta * _qam_spacing(nxt)
        if spacing / 2.0 <= err_bound * 1.5 or 2 * nxt > log2p or (2**nxt - 1) * float_unit > 1 / 6:
            break
        bits_per_dim = nxt
    if bits_per_dim == 0:
        raise ValueError("power too small for exact quantized delivery")
    bits_per_use = 2 * bits_per_dim

    length = params.file_bits
    uses = math.ceil(length / bits_per_use)
    payloads = np.zeros((2, uses * bits_per_use), np.uint8)  # zero-padded to whole uses
    payloads[:, :length] = files[[demand.d1, demand.d2]]
    # Per UE and use: the in-phase then the quadrature axis index.
    sent = _bits_to_int(payloads, bits_per_dim).reshape(2, uses, 2)
    # No PAM point is 0, so their complex128 view is bit for bit re + 1j im.
    points = np.ascontiguousarray(_qam_points(bits_per_dim, sent).swapaxes(0, 1))
    decided = _zf_block(points.view(np.complex128)[..., 0], bits_per_dim, inv, h, beta, quantizer)
    received = _int_to_bits(decided.swapaxes(0, 1), bits_per_dim).reshape(2, -1)
    mism = int(np.count_nonzero(received[:, :length] != payloads[:, :length]))

    t_e = float(uses)
    t_f = t_e * (2 * level_bits / log2p) / params.r_f if row.uses_fronthaul else 0.0
    lat = LatencyBreakdown(t_f=t_f, t_e=t_e, t_d=0.0)
    return EndToEndReport(
        scheme=row.name,
        demand=demand,
        exact=mism == 0,
        mismatched_bits=mism,
        latency=lat,
        ndt_estimate=ndt_from_latency(lat, length, params.power),
        details={"bits_per_use": bits_per_use, "beta": beta},
    )


def _half_cache_layers(
    placement: CachePlacement, files: np.ndarray, demand: DemandVector, width: int, n_d: int
) -> np.ndarray:
    """Per-EN layer symbols of the half-cached X channel, shape (2, uses, n_d).

    EN k sends its cached segment of UE k's file on the odd layers (1-based)
    and its segment of the other UE's file on the even layers, ``width`` bits
    per symbol, LSB first, zero-padded once a segment is exhausted.  The
    (n_d - 1) / 2 even layers per use set the number of uses, so each
    segment fits in that many symbols per use.  One (EN, parity) bit buffer
    of that size takes all four segments; the odd layers' last ``uses``
    symbols, in sending order, are 0.  At width 1 the buffer holds the symbols.
    """
    wanted = (demand.d1, demand.d2)
    longest = max(en[w][1] - en[w][0] for en in placement.ranges for w in wanted)
    n_even = (n_d - 1) // 2  # even layers per use; the odd ones are one more
    uses = math.ceil(math.ceil(longest / width) / n_even)
    bits = np.zeros((2, 2, uses * n_even * width), np.uint8)
    for en, parity in ((0, 0), (0, 1), (1, 0), (1, 1)):
        file = wanted[en ^ parity]
        start, stop = placement.ranges[en][file]
        bits[en, parity, : stop - start] = files[file, start:stop]
    symbols = bits if width == 1 else _bits_to_int(bits, width)
    odd = np.zeros((2, uses * (n_even + 1)), symbols.dtype)
    odd[:, : uses * n_even] = symbols[:, 0]
    layers = np.empty((2, uses, n_d), symbols.dtype)
    layers[:, :, 0::2] = odd.reshape(2, uses, n_even + 1)
    layers[:, :, 1::2] = symbols[:, 1].reshape(2, uses, n_even)
    return layers


def _half_cache_files(
    placement: CachePlacement, resolved: np.ndarray, demand: DemandVector, width: int
) -> np.ndarray:
    """Inverse of ``_half_cache_layers``: each UE's file bits, shape (2, file_bits).

    ``resolved[k]`` holds UE k's decoded layers: the odd ones sent by EN k,
    the even ones by the other EN.  Bits that no EN cached stay 0.  No
    segment outlasts the even layers, so the odd ones are cut to their count.
    """
    wanted = (demand.d1, demand.d2)
    even = resolved[:, :, 1::2].reshape(2, -1)  # each UE's symbols in sending order
    odd = resolved[:, :, 0::2].reshape(2, -1)[:, : even.shape[1]]
    bits = _int_to_bits(np.stack([odd, even], axis=1), width).reshape(2, 2, -1)
    out = np.zeros((2, placement.file_bits), np.uint8)
    for ue, parity in ((0, 0), (0, 1), (1, 0), (1, 1)):
        start, stop = placement.ranges[ue ^ parity][wanted[ue]]
        out[ue, start:stop] = bits[ue, parity, : stop - start]
    return out


def _run_x_channel(
    params: SystemParams, files: np.ndarray, demand: DemandVector, scheme: str, n_d: int,
    width: int, element_bits: float, power: float, block,
) -> EndToEndReport:
    """The half-cached X channel that ``d2d_det`` and ``d2d_ia`` share.

    Lays the cached segments out as ``width``-bit layer symbols, charges the
    block through ``x_channel_latency`` with ``element_bits``-bit D2D
    elements at log2 ``power`` and rebuilds each UE's file from the (2, uses,
    n_d) layers that ``block(a, b)`` resolves from both ENs' (uses, n_d)
    symbols.  ``block`` also returns the report's details; a run is exact
    when every bit matches and, where the model checks it, ``sic_in_range``.
    """
    placement = cache_placement(0.5, params.n_files, params.file_bits)
    a, b = _half_cache_layers(placement, files, demand, width, n_d)
    lat = x_channel_latency(len(a), n_d, element_bits, params.r_d, math.log2(power))
    resolved, details = block(a, b)
    decoded = _half_cache_files(placement, resolved, demand, width)
    mism = int(np.count_nonzero(decoded != files[[demand.d1, demand.d2]]))
    return EndToEndReport(
        scheme=scheme,
        demand=demand,
        exact=mism == 0 and details.get("sic_in_range", True),
        mismatched_bits=mism,
        latency=lat,
        ndt_estimate=ndt_from_latency(lat, params.file_bits, power),
        details=details,
    )


def _run_d2d_det(
    params: SystemParams, files: np.ndarray, demand: DemandVector, n_d: int
) -> EndToEndReport:
    """The half-cached X channel on the binary deterministic model, one bit per level.

    Each UE gains n_d - 1 fresh bits per use and forwards (n_d - 1) / 2 of
    them over D2D, against a budget of r_d n_d bits per use.  With log2 P
    taken as n_d, t_e (n_d - 1) bits take exactly ``det_ndt(n_d, r_d)``.  At
    file size L, ndt_estimate = uses (n_d + (n_d - 1)/(2 r_d)) / L with
    uses = ceil(ceil(L/2) / ((n_d - 1)/2)), each EN's L/2 bits for the other
    UE filling the (n_d - 1)/2 even levels of a use.
    """
    cfg = det_xchannel.DetConfig(n_d)
    report = _run_x_channel(
        params, files, demand, "d2d_det", n_d, 1, 1, 2.0**n_d,  # log2 P is n_d in the model
        lambda a, b: (det_xchannel.transmit(a, b, cfg), {"n_d": n_d}),
    )
    lat = report.latency
    block_ndt = ndt_from_latency(lat, lat.t_e * (n_d - 1), 2.0**n_d)
    reference = det_ndt(n_d, params.r_d)
    if not abs(block_ndt - reference) < 1e-9 * reference:
        raise AssertionError(f"delivery time {block_ndt} != det_ndt({n_d}, {params.r_d})")
    return report


def _run_d2d_ia(
    params: SystemParams, csi: Csi, files: np.ndarray, demand: DemandVector, n_d: int
) -> EndToEndReport:
    """The half-cached X channel by real interference alignment, D2D and SIC.

    ``select_constellation``'s q, rounded down to a power of two, packs w =
    log2 q file bits per symbol.  Each EN's L/2 bits for the other UE fill the
    (n_d - 1)/2 even layers of uses = ceil(ceil((L/2)/w) / ((n_d - 1)/2)) uses,
    so ndt_estimate = uses (log2 P + log2(2q) (n_d - 1)/(2 r_d)) / L.
    """
    auto = real_ia.select_constellation(csi, n_d, params.power, eps_prime=0.5)
    q = 2 ** int(math.log2(auto.q))  # power of two for clean bit packing
    cfg = replace(auto, q=q)

    def block(a, b):
        _, resolved, in_range = real_ia.transmit(csi, cfg, a, b)
        return resolved[:, :, :n_d], {"q": q, "n_d": n_d, "sic_in_range": bool(in_range.all())}

    return _run_x_channel(
        params, files, demand, "d2d_ia", n_d, int(math.log2(q)), math.log2(2 * q), params.power,
        block,
    )


@functools.lru_cache(maxsize=1, typed=True)
def _library(csi_seed: int, n_files: int, file_bits: int) -> np.ndarray:
    """Seed ``csi_seed``'s library: ``n_files`` read-only rows of ``file_bits`` random bits."""
    rng = np.random.default_rng([csi_seed, 0xF11E5])
    files = rng.integers(0, 2, size=(n_files, file_bits), dtype=np.uint8)
    files.flags.writeable = False
    return files


@functools.lru_cache(maxsize=1, typed=True)
def _channel(csi_seed: int) -> Csi:
    """``draw_csi(csi_seed)``, kept until the next seed replaces it."""
    return draw_csi(csi_seed)


def run_end_to_end(
    params: SystemParams,
    csi_seed: int,
    scheme: str,
    demand: DemandVector | None = None,
    n_d: int | None = None,
) -> EndToEndReport:
    """Execute one corner policy at signal level on random file bits.

    Serves the demand (worst case d1 != d2 by default) from the N-file
    library of ``csi_seed`` and checks bit-exact recovery.  The scheme must
    match the cache corner of ``params.mu``; ``n_d`` applies to the two
    X-channel schemes only.  The channel of ``csi_seed`` is read by every
    scheme but ``d2d_det``.

    The library and the channel come from one-entry caches, so a run of
    calls on one seed (the four corners, or a power ladder) draws each of
    them once.  The cache holds at most one library, read-only, and keeps
    it alive until a call with another seed or size replaces it.
    """
    row = RUNNERS.get(scheme)
    if row is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    if n_d is not None and row.name != "d2d_x":
        x_channel = next(s for s in SCHEMES if s.name == "d2d_x").runners
        raise ValueError(f"n_d applies only to {' and '.join(x_channel)}, not {scheme}")
    if params.mu != row.mu_corner:
        raise ValueError(f"scheme {scheme} runs at mu = {row.mu_corner}, got {params.mu}")
    demand = demand if demand is not None else DemandVector(0, 1)
    demand.check_against(params.n_files)
    if row.uses_fronthaul and params.r_f <= 0.0:
        raise ValueError(f"{row.name.replace('_', ' ')} needs r_f > 0")
    files = _library(csi_seed, params.n_files, params.file_bits)

    if scheme == "d2d_det":  # the deterministic model reads no channel
        level_count = n_d if n_d is not None else _odd_level_count(params.power)
        return _run_d2d_det(params, files, demand, level_count)
    csi = _channel(csi_seed)
    if scheme == "d2d_ia":
        return _run_d2d_ia(params, csi, files, demand, n_d if n_d is not None else 3)
    return _run_zf_like(params, csi, files, demand, row)
