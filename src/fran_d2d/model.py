"""Shared domain types for the 2x2 cache-aided downlink with D2D cooperation.

The system has two edge nodes (ENs) serving two user equipments (UEs) over a
quasi-static complex Gaussian channel.  Each EN caches a fraction ``mu`` of
every file, receives cloud data over a fronthaul pipe of rate ``r_f * log2(P)``
bits per downlink channel use, and the UEs share an out-of-band D2D link of
rate ``r_d * log2(P)``.

Delivery latency is normalized against the time an interference-free link
needs to push one bit at high SNR, giving a dimensionless delivery time (NDT).
Normalized delivery times are plain floats here; ``math.inf`` marks infeasible
configurations and is handled by all comparisons.

Both X-channel models, the GF(2) deterministic one and real interference
alignment, end a block with the same receiver-cooperation step, ``d2d_sic``:
the D2D exchange of aligned sums, then successive cancellation.
``x_channel_latency`` charges that exchange.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Dimensionless normalized delivery time.  Closed-form values are >= 1;
# finite-length estimates may dip below 1 and are reported raw.
Ndt = float

_CSI_MAX_DRAWS = 100


def _check_layer_count(n_d: int) -> None:
    if n_d < 3 or n_d % 2 == 0:
        raise ValueError(f"n_d must be odd and >= 3, got {n_d}")


def _check_rates(**rates: float | np.ndarray) -> None:
    """Raise ``ValueError`` naming the first rate with a negative or non-finite value.

    Each rate is a float or an array of them; one ``min`` and one ``max``
    screen each (NaN fails both).
    """
    for name, value in rates.items():
        value = np.asarray(value, dtype=np.float64)
        if value.min(initial=0.0) >= 0.0 and value.max(initial=0.0) < np.inf:
            continue
        bad = float(value[~((value >= 0.0) & (value < np.inf))].flat[0])
        raise ValueError(f"{name} must be {'>= 0' if bad < 0.0 else 'finite'}, got {bad}")


def _check_cache_size(
    mu: float | np.ndarray, lo: float | None = None, hi: float | None = None
) -> None:
    """Raise ``ValueError`` naming the first cache size outside [0, 1] (NaN included).

    ``mu`` is a float or an array; ``lo`` and ``hi`` are its least and
    greatest value when the caller has them.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if lo is None:
        lo, hi = mu.min(initial=0.0), mu.max(initial=0.0)
    if not (lo >= 0.0 and hi <= 1.0):
        bad = float(mu[~((mu >= 0.0) & (mu <= 1.0))].flat[0])
        raise ValueError(f"mu must lie in [0, 1], got {bad}")


def _check_power(power: float) -> None:
    if not 1.0 < power < math.inf:
        raise ValueError(f"power must be finite and exceed 1, got {power}")


@dataclass(frozen=True)
class SystemParams:
    """Scenario tuple (mu, r_f, r_d, N, L, P).

    Attributes:
        mu: fractional cache size per EN, in [0, 1].
        r_f: fronthaul rate multiplier (finite, >= 0).
        r_d: D2D rate multiplier (finite, >= 0).
        n_files: library size N (>= 2).
        file_bits: file size L in bits, an integer >= 1.
        power: transmit power budget P, linear (finite, > 0; every runner needs > 1).
    """

    mu: float
    r_f: float
    r_d: float
    n_files: int = 2
    file_bits: int = 1024
    power: float = 2.0**20

    def __post_init__(self) -> None:
        _check_cache_size(self.mu)
        _check_rates(r_f=self.r_f, r_d=self.r_d)
        if self.n_files < 2:
            raise ValueError(f"need at least two files, got {self.n_files}")
        if not isinstance(self.file_bits, numbers.Integral) or self.file_bits < 1:
            raise ValueError(f"file_bits must be an integer >= 1, got {self.file_bits}")
        if not 0.0 < self.power < math.inf:
            raise ValueError(f"power must be finite and positive, got {self.power}")


@dataclass(frozen=True)
class Csi:
    """One realization of the 2x2 complex channel matrix.

    Entries are generic: finite, nonzero, and with nonzero determinant, which
    holds almost surely for draws from a continuous distribution and is what
    the delivery schemes rely on (channel inversion, alignment).
    """

    h11: complex
    h12: complex
    h21: complex
    h22: complex

    def __post_init__(self) -> None:
        for name in ("h11", "h12", "h21", "h22"):
            h = getattr(self, name)
            if not (cmath.isfinite(h) and h != 0):
                raise ValueError(f"channel entry {name} must be finite and nonzero")
        if self.determinant == 0:
            raise ValueError("channel matrix must be invertible")

    @property
    def determinant(self) -> complex:
        return self.h11 * self.h22 - self.h12 * self.h21

    def matrix(self) -> np.ndarray:
        """Channel as a 2x2 ndarray with rows indexed by UE."""
        return np.array([[self.h11, self.h12], [self.h21, self.h22]])


@dataclass(frozen=True)
class LatencyBreakdown:
    """Durations of the three delivery phases, in downlink channel uses."""

    t_f: float
    t_e: float
    t_d: float

    def __post_init__(self) -> None:
        for name in ("t_f", "t_e", "t_d"):
            t = getattr(self, name)
            if not (math.isfinite(t) and t >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {t}")

    @property
    def total(self) -> float:
        return self.t_f + self.t_e + self.t_d


@dataclass(frozen=True)
class DemandVector:
    """Requested file indices (0-based) for UE 1 and UE 2."""

    d1: int
    d2: int

    def __post_init__(self) -> None:
        if self.d1 < 0 or self.d2 < 0:
            raise ValueError("file indices must be non-negative")

    def check_against(self, n_files: int) -> None:
        if self.d1 >= n_files or self.d2 >= n_files:
            raise ValueError(f"demand {self} out of range for {n_files} files")

    @property
    def is_worst_case(self) -> bool:
        return self.d1 != self.d2


def draw_csi(rng_seed: int) -> Csi:
    """Sample a generic channel realization, deterministic in the seed.

    Entries are i.i.d. circularly-symmetric complex Gaussian with unit
    variance.  Draws violating the genericity invariants are rejected and
    resampled, so downstream schemes never see measure-zero singularities.

    Raises:
        RuntimeError: if 100 consecutive draws are degenerate, which signals
            a broken random source rather than bad luck.
    """
    rng = np.random.default_rng(rng_seed)
    for _ in range(_CSI_MAX_DRAWS):
        re = rng.standard_normal(4)
        im = rng.standard_normal(4)
        h = (re + 1j * im) / math.sqrt(2.0)
        try:
            return Csi(complex(h[0]), complex(h[1]), complex(h[2]), complex(h[3]))
        except ValueError:
            continue
    raise RuntimeError("random source produced 100 degenerate channel draws")


def ndt_from_latency(lat: LatencyBreakdown, file_bits: float, power: float) -> Ndt:
    """Normalize raw phase durations into a delivery-time estimate.

    The reference time for one bit is ``1 / log2(power)`` channel uses, so the
    estimate is ``(t_f + t_e + t_d) * log2(power) / file_bits``.  This is the
    per-realization, finite-length figure; the >= 1 floor only binds in the
    limit and is deliberately not enforced here.

    Raises:
        ValueError: if ``power`` is not finite above 1 (normalization
            undefined), ``file_bits < 1``, or the estimate overflows a float.
    """
    _check_power(power)
    if file_bits < 1:
        raise ValueError(f"file_bits must be >= 1, got {file_bits}")
    estimate = lat.total * math.log2(power) / file_bits
    if not math.isfinite(estimate):
        raise ValueError(f"delivery-time estimate overflows a float for {lat}")
    return estimate


def x_channel_latency(
    uses: int, n_d: int, bits: float, r_d: float, log2p: float
) -> LatencyBreakdown:
    """Phases of an X-channel block of t_e = ``uses`` downlink uses, no fronthaul.

    Per use each UE forwards (n_d - 1)/2 elements of ``bits`` bits over D2D at
    r_d log2 P bits per use: t_d = t_e bits (n_d - 1)/2 / (r_d log2 P), r_d > 0.
    """
    if not 0.0 < r_d < math.inf:
        raise ValueError(f"r_d must be finite and > 0 for a D2D phase, got {r_d}")
    t_e = float(uses)
    t_d = t_e * (bits * (n_d - 1) / 2.0) / (r_d * log2p)
    return LatencyBreakdown(t_f=0.0, t_e=t_e, t_d=t_d)


def d2d_sic(t: np.ndarray, n_d: int) -> None:
    """Receiver cooperation, in place on both UEs' observations ``t`` of shape (slots, 2, ...).

    Slot 0 holds a UE's own layer 1 and slot p its own layer p + 1 plus the
    other EN's layer p.  Each UE takes its peer's sums at slots 1, 3, ...,
    n_d - 2 over D2D, the (n_d - 1)/2 elements per use that
    ``x_channel_latency`` charges; then slots 1 .. n_d - 1 are peeled in
    turn, t_p -= t_{p-1}, and later slots are kept.  Over the integers the
    caller checks each symbol's range; over GF(2) it reduces mod 2.
    """
    t[1 : n_d - 1 : 2] = t[1 : n_d - 1 : 2, ::-1]
    for p in range(1, n_d):
        t[p] -= t[p - 1]
