"""Bit-exact deterministic X-channel scheme with receiver cooperation.

High-SNR behaviour of the 2x2 downlink is approximated by a binary
deterministic channel: each EN drives ``n_d`` signal levels, the direct link
passes them through unchanged and the cross link drops the top
``n_d - n_c`` levels (a lower-shift over GF(2)).  Only the family
``n_c = n_d - 1`` with odd ``n_d`` is implemented; it is the one the delivery
scheme needs.

With EN 1 sending bits a_1..a_{n_d} and EN 2 sending b_1..b_{n_d}, UE 1
observes [a_1, a_2^b_1, ..., a_{n_d}^b_{n_d-1}] and UE 2 the mirror image.
Each UE forwards its even-numbered levels over the D2D link, after which a
successive-cancellation chain resolves one fresh bit per level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import LatencyBreakdown, ndt_from_latency
from .ndt_formulas import det_ndt


@dataclass(frozen=True)
class DetConfig:
    """Level counts of the deterministic channel (n_c fixed at n_d - 1)."""

    n_d: int
    n_c: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.n_c == -1:
            object.__setattr__(self, "n_c", self.n_d - 1)
        if self.n_d < 3 or self.n_d % 2 == 0:
            raise ValueError(f"n_d must be odd and >= 3, got {self.n_d}")
        if self.n_c != self.n_d - 1:
            raise ValueError("only the n_c = n_d - 1 family is supported")


def _as_bits(x, n_d: int) -> np.ndarray:
    bits = np.asarray(x, dtype=np.uint8)
    if bits.shape[-1] != n_d:
        raise ValueError(f"expected {n_d} levels, got shape {bits.shape}")
    if bits.max(initial=0) > 1:
        raise ValueError("entries must be 0/1")
    return bits


def _shift_down(bits: np.ndarray, k: int) -> np.ndarray:
    """Apply the lower-shift matrix S^k along the last axis."""
    out = np.zeros_like(bits)
    if k < bits.shape[-1]:
        out[..., k:] = bits[..., : bits.shape[-1] - k]
    return out


def det_channel(x1, x2, cfg: DetConfig):
    """One use of the binary channel: y1 = x1 ^ S x2, y2 = S x1 ^ x2.

    Accepts single level vectors or stacks of them (leading axes broadcast),
    everything over GF(2).
    """
    x1 = _as_bits(x1, cfg.n_d)
    x2 = _as_bits(x2, cfg.n_d)
    shift = cfg.n_d - cfg.n_c
    y1 = x1 ^ _shift_down(x2, shift)
    y2 = _shift_down(x1, shift) ^ x2
    return y1, y2


def build_d2d_messages(y1, y2, cfg: DetConfig):
    """Extract the even-numbered levels each UE forwards to its peer.

    Levels 2, 4, ..., n_d - 1 (1-based), i.e. (n_d - 1) / 2 bits per message
    per channel use.  v1 comes from UE 1's observation, v2 from UE 2's.
    """
    y1 = _as_bits(y1, cfg.n_d)
    y2 = _as_bits(y2, cfg.n_d)
    return y1[..., 1 : cfg.n_d - 1 : 2], y2[..., 1 : cfg.n_d - 1 : 2]


def sic_decode(y, v_other, cfg: DetConfig, ue: int) -> np.ndarray:
    """Resolve all n_d levels by successive cancellation.

    For UE 1 the output is [a_1, b_2, a_3, b_4, ..., b_{n_d-1}, a_{n_d}]:
    level 1 arrives clean, each even level is peeled out of the peer's
    forwarded sum, and each higher odd level out of the own observation.
    UE 2 decodes the complementary set from (y2, v1) with the same chain.

    Inconsistent inputs are undetectable here (the system is linear); the
    end-to-end tests validate consistency instead.
    """
    if ue not in (1, 2):
        raise ValueError(f"ue must be 1 or 2, got {ue}")
    y = _as_bits(y, cfg.n_d)
    v = np.asarray(v_other, dtype=np.uint8)
    if v.shape[-1] != (cfg.n_d - 1) // 2:
        raise ValueError("D2D message has the wrong number of bits")
    decoded = np.empty_like(y)
    decoded[..., 0] = y[..., 0]
    for pos in range(2, cfg.n_d + 1):  # 1-based level index
        if pos % 2 == 0:
            decoded[..., pos - 1] = v[..., pos // 2 - 1] ^ decoded[..., pos - 2]
        else:
            decoded[..., pos - 1] = y[..., pos - 1] ^ decoded[..., pos - 2]
    return decoded


@dataclass(frozen=True)
class DetDeliveryReport:
    """Outcome of a full deterministic-model delivery run."""

    decoded_a: np.ndarray
    decoded_b: np.ndarray
    latency: LatencyBreakdown
    ndt_estimate: float
    d2d_bits_per_use: int


def run_det_delivery(payload_a, payload_b, cfg: DetConfig, r_d: float) -> DetDeliveryReport:
    """Deliver two files through the half-cached deterministic scheme.

    EN 1 holds the first half of both files, EN 2 the second half; UE 1 wants
    ``payload_a`` and UE 2 wants ``payload_b``.  Per channel use EN 1 loads
    fresh first-half bits of file A on its odd levels and of file B on its
    even levels (EN 2 mirrors this with the second halves), so the decode
    pattern routes (n_d+1)/2 bits from one EN and (n_d-1)/2 from the other to
    each UE.  The odd-level stream drains its half early and pads with zeros;
    amortized over the run each UE gains exactly n_d - 1 fresh bits per use.

    Latency accounting: t_e = L/(n_d-1) uses, t_d = t_e * ((n_d-1)/2)/(r_d n_d)
    (each use produces (n_d-1)/2 message bits against a D2D budget of
    r_d * n_d bits per use), t_f = 0.  The estimate equals det_ndt(n_d, r_d).
    """
    if r_d <= 0.0:
        raise ValueError("the D2D scheme needs r_d > 0")
    a = np.asarray(payload_a, dtype=np.uint8).ravel()
    b = np.asarray(payload_b, dtype=np.uint8).ravel()
    if a.size != b.size:
        raise ValueError("payloads must have equal length")
    n_d = cfg.n_d
    length = a.size
    if length == 0 or length % (n_d - 1) != 0:
        raise ValueError(f"payload length must be a positive multiple of {n_d - 1}")

    uses = length // (n_d - 1)
    half = length // 2
    n_odd = (n_d + 1) // 2  # odd levels per use
    n_even = (n_d - 1) // 2

    def _stream(bits: np.ndarray, per_use: int) -> np.ndarray:
        # Fresh bits in order, zero-padded once the half is exhausted.
        padded = np.zeros(uses * per_use, dtype=np.uint8)
        padded[: bits.size] = bits
        return padded.reshape(uses, per_use)

    x1 = np.zeros((uses, n_d), dtype=np.uint8)
    x2 = np.zeros((uses, n_d), dtype=np.uint8)
    x1[:, 0::2] = _stream(a[:half], n_odd)   # EN 1, file A first half -> UE 1
    x1[:, 1::2] = _stream(b[:half], n_even)  # EN 1, file B first half -> UE 2
    x2[:, 0::2] = _stream(b[half:], n_odd)   # EN 2, file B second half -> UE 2
    x2[:, 1::2] = _stream(a[half:], n_even)  # EN 2, file A second half -> UE 1

    y1, y2 = det_channel(x1, x2, cfg)
    v1, v2 = build_d2d_messages(y1, y2, cfg)
    dec1 = sic_decode(y1, v2, cfg, ue=1)
    dec2 = sic_decode(y2, v1, cfg, ue=2)

    decoded_a = np.concatenate([dec1[:, 0::2].ravel()[:half], dec1[:, 1::2].ravel()])
    decoded_b = np.concatenate([dec2[:, 1::2].ravel(), dec2[:, 0::2].ravel()[:half]])

    t_e = float(uses)
    t_d = t_e * ((n_d - 1) / 2.0) / (r_d * n_d)
    lat = LatencyBreakdown(t_f=0.0, t_e=t_e, t_d=t_d)
    # The model equates log2(P) with the level count.
    estimate = ndt_from_latency(lat, length, 2.0**n_d)
    if not abs(estimate - det_ndt(n_d, r_d)) < 1e-9 * det_ndt(n_d, r_d):
        raise AssertionError(f"delivery time {estimate} disagrees with det_ndt({n_d}, {r_d})")
    return DetDeliveryReport(
        decoded_a=decoded_a,
        decoded_b=decoded_b,
        latency=lat,
        ndt_estimate=estimate,
        d2d_bits_per_use=n_even,
    )
