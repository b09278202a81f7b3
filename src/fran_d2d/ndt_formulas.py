"""Closed-form minimum delivery times and the matching converse bound.

The minimum NDT of the 2x2 system is piecewise in (mu, r_f, r_d) with three
regimes.  ``minimum_ndt`` evaluates the piecewise optimum directly.
``lower_bound`` derives its value from the three cut-set inequalities
alone: it is the value of the LP "minimise the total delivery time subject
to the cuts", read off the LP's optimal dual certificate, and it reads no
regime.  The two code paths are kept independent on purpose: their
pointwise equality is the central tightness check of the test suite.

Each closed form has one implementation, a ``*_grid`` function that
broadcasts over numpy arrays of (mu, r_f, r_d) and rejects a negative rate
or a cache size outside [0, 1] with ``ValueError``.  The scalar API
(``minimum_ndt(params)`` and the others) is that code on 0-d arrays.

Division conventions (chosen so every input is well defined):

* ``(1 - 2*mu) / r_f`` is 0 when the numerator is 0 regardless of ``r_f``;
  +inf when the numerator is positive and ``r_f == 0`` (uncached content with
  no fronthaul path cannot be delivered); -inf when the numerator is negative
  and ``r_f == 0``, in which case the enclosing max selects the other term.
"""

from __future__ import annotations

import enum

import numpy as np
from numpy.typing import ArrayLike

from .model import Ndt, SystemParams, _check_cache_size, _check_layer_count, _check_rates


class Regime(enum.Enum):
    """Which resource dominates the (r_f, r_d) operating point."""

    BOTH_SMALL = "both_small"
    FRONTHAUL_DOMINANT = "fronthaul_dominant"
    D2D_DOMINANT = "d2d_dominant"


# ``classify_regime_grid`` returns indices into this tuple.
REGIMES: tuple[Regime, ...] = tuple(Regime)


def _floats(*values: ArrayLike) -> list[np.ndarray]:
    """The arguments as float64 arrays broadcast to one shape.

    Arrays that already share a shape are returned as they are (no copy, no
    read-only broadcast view), so callers must not write into them.
    """
    arrays = [np.asarray(v, dtype=np.float64) for v in values]
    shape = arrays[0].shape
    if all(a.shape == shape for a in arrays):
        return arrays
    return list(np.broadcast_arrays(*arrays))


def _ratio(num: ArrayLike, den: ArrayLike) -> np.ndarray:
    """num/den extended by its one-sided limits at den = 0, elementwise.

    One division serves every point.  Then den = ±0 gives +inf for num > 0
    and -inf otherwise, and num = 0 gives +0.0 whatever den is: one
    ``copyto`` each, run only when some point has a zero.
    """
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    with np.errstate(all="ignore"):
        quotient = np.asarray(num / den)  # a 0-d array, not a scalar, for 0-d inputs
    zero_den, zero_num = den == 0.0, num == 0.0
    if (zero_den | zero_num).any():  # a 0-d numerator has one limit for all its points
        np.copyto(quotient, np.where(num > 0.0, np.inf, -np.inf), where=zero_den)
        np.copyto(quotient, 0.0, where=zero_num)
    return quotient


def classify_regime_grid(r_f: ArrayLike, r_d: ArrayLike) -> np.ndarray:
    """Index into ``REGIMES`` of every (r_f, r_d) point; overlaps resolve in listed order.

    The branch expressions agree on all shared boundaries, so the tie-break
    order is a convention, not a correctness requirement.
    """
    r_f, r_d = _floats(r_f, r_d)
    _check_rates(r_f=r_f, r_d=r_d)
    return np.where(
        (r_f <= 1.0) & (r_d <= 1.0), 0, np.where(r_f >= np.maximum(1.0, r_d), 1, 2)
    )


def classify_regime(params: SystemParams) -> Regime:
    """Regime of one point: ``classify_regime_grid`` on 0-d arrays."""
    return REGIMES[int(classify_regime_grid(params.r_f, params.r_d))]


def _branch_both_small(mu, r_f):
    return np.maximum(1.0 + mu + _ratio(1.0 - 2.0 * mu, r_f), 2.0 - mu)


def _branch_fronthaul_dominant(mu, r_f):
    return 1.0 + (1.0 - mu) / r_f


def _branch_d2d_dominant(mu, r_f, r_d):
    return np.maximum(
        1.0 + mu / r_d + _ratio(1.0 - 2.0 * mu, r_f),
        1.0 + (1.0 - mu) / r_d,
    )


def minimum_ndt_grid(mu: ArrayLike, r_f: ArrayLike, r_d: ArrayLike) -> np.ndarray:
    """Minimum normalized delivery time at every (mu, r_f, r_d) point.

    The arguments broadcast against each other; every branch is evaluated
    on the whole grid and each point keeps the one of its regime.  A point
    is +inf exactly when mu < 1/2 and r_f = 0: part of the library is
    cached nowhere and there is no fronthaul path to fill the gap.
    """
    mu, r_f, r_d = _floats(mu, r_f, r_d)
    _check_cache_size(mu)
    regime = classify_regime_grid(r_f, r_d)
    with np.errstate(all="ignore"):  # branches outside their regime may divide by 0
        both_small = _branch_both_small(mu, r_f)
        fronthaul = _branch_fronthaul_dominant(mu, r_f)
        d2d = _branch_d2d_dominant(mu, r_f, r_d)
    return np.where(regime == 0, both_small, np.where(regime == 1, fronthaul, d2d))


def minimum_ndt(params: SystemParams) -> Ndt:
    """Minimum NDT of one point: ``minimum_ndt_grid`` on 0-d arrays."""
    return float(minimum_ndt_grid(params.mu, params.r_f, params.r_d))


def delta_x(r_d: ArrayLike) -> np.ndarray | Ndt:
    """Delivery time of the D2D-aided X-channel scheme: 1 + 1/(2 r_d).

    Infinite at r_d = 0: the scheme cannot run without D2D capacity.
    Broadcasts over an array of rates; a scalar rate gives a scalar.
    """
    r_d = np.asarray(r_d, dtype=np.float64)
    _check_rates(r_d=r_d)
    with np.errstate(over="ignore"):
        return 1.0 + _ratio(1.0, 2.0 * r_d)


def _finite_layer_ndt(levels: float, n_d: int, r_d: float) -> Ndt:
    """levels/(n_d-1) * (1 + (n_d-1) / (2 r_d levels)): n_d - 1 of ``levels`` levels carry data."""
    _check_layer_count(n_d)
    _check_rates(r_d=r_d)
    with np.errstate(over="ignore"):  # a subnormal r_d gives an infinite time, as in delta_x
        return float(levels / (n_d - 1.0) * (1.0 + _ratio(n_d - 1.0, 2.0 * r_d * levels)))


def delta_nd(n_d: int, r_d: float) -> Ndt:
    """Finite-layer delivery time of the alignment scheme.

    ((n_d+1)/(n_d-1)) * (1 + (n_d-1) / (2 r_d (n_d+1))); decreases to
    ``delta_x(r_d)`` as the layer count grows, with gap exactly 2/(n_d-1).
    """
    return _finite_layer_ndt(n_d + 1.0, n_d, r_d)


def det_ndt(n_d: int, r_d: float) -> Ndt:
    """Finite-level delivery time of the deterministic-model scheme.

    (n_d/(n_d-1)) * (1 + (n_d-1) / (2 r_d n_d)); decreases to
    ``delta_x(r_d)`` with gap exactly 1/(n_d-1).
    """
    return _finite_layer_ndt(n_d, n_d, r_d)


def zf_compress_forward_ndt(r_d: float) -> Ndt:
    """Baseline where each UE quantizes and forwards its whole signal: 1 + 1/r_d.

    Strictly worse than ``delta_x`` for every r_d > 0.
    """
    _check_rates(r_d=r_d)
    return float(1.0 + _ratio(1.0, r_d))


def lower_bound_grid(mu: ArrayLike, r_f: ArrayLike, r_d: ArrayLike) -> np.ndarray:
    """Cut-set converse per point: the value of the cut-set LP at its optimal dual.

    In normalized (per-bit, high-SNR) form the cuts bound the phase
    durations (d_f, d_e, d_d) by

        I1:  d_e + r_f * d_f + r_d * d_d >= 2 - mu
        I2:  d_f >= (1 - 2 mu) / r_f  =: i2
        I3:  d_e >= 1

    and the converse is the LP "minimise d_f + d_e + d_d subject to I1, I2,
    I3 and d >= 0".  Its dual maximises (2 - mu) l1 + i2 l2 + l3 over
    l >= 0 with l1 r_f + l2 <= 1, l1 + l3 <= 1 and l1 r_d <= 1.  For a fixed
    l1 the best l3 is 1 - l1, and the best l2 is 1 - r_f l1 when i2 > 0 and
    0 otherwise.  What is left is linear in l1 with slope
    (1 - mu) - r_f max(i2, 0), which is mu or 1 - mu and so >= 0, and l1
    takes its largest feasible value 1/rho, with rho = max(1, r_f, r_d).
    The certificate

        (l1, l2, l3) = (1/rho, (1 - r_f/rho) [i2 > 0], 1 - 1/rho)

    gives the bound

        ((2 - mu) + (rho - r_f) max(i2, 0) + (rho - 1)) / rho,

    one formula that reads no regime.  At rho = 1, r_f and r_d it is the
    combination a case-by-case proof takes for both-small,
    fronthaul-dominant and D2D-dominant points.  Where i2 is +inf (mu < 1/2 at
    r_f = 0) so is the bound.  The result is floored at 1 (one bit per
    channel use is the best any link does): the cuts give at least 1 in
    exact arithmetic, but the quotient can round below it, as at
    rho = 2^53 + 2, mu = 1, where it is 1 - 2^-52.  The arguments broadcast.
    """
    mu, r_f, r_d = _floats(mu, r_f, r_d)
    _check_cache_size(mu)
    _check_rates(r_f=r_f, r_d=r_d)
    rho = np.maximum(np.maximum(1.0, r_f), r_d)
    with np.errstate(all="ignore"):  # a huge rate may overflow the product
        i2 = _ratio(1.0 - 2.0 * mu, r_f)
        bound = ((2.0 - mu) + (rho - r_f) * np.maximum(i2, 0.0) + (rho - 1.0)) / rho
    return np.maximum(1.0, bound)


def lower_bound(params: SystemParams) -> Ndt:
    """Converse bound of one point: ``lower_bound_grid`` on 0-d arrays."""
    return float(lower_bound_grid(params.mu, params.r_f, params.r_d))
