"""Binary deterministic model of the 2x2 downlink with receiver cooperation.

High-SNR behaviour of the 2x2 downlink is approximated by a binary
deterministic channel: each EN drives ``n_d`` signal levels, the direct link
passes them through unchanged and the cross link drops the top level (a
lower-shift by one over GF(2)).  ``n_d`` is odd, as the delivery scheme
needs.

With EN 1 sending bits a_1..a_{n_d} and EN 2 sending b_1..b_{n_d}, UE 1
observes [a_1, a_2^b_1, ..., a_{n_d}^b_{n_d-1}] and UE 2 the mirror image.
Each UE forwards its even-numbered levels over the D2D link, after which a
successive-cancellation chain resolves one fresh bit per level.  The
half-cached delivery that runs this chain is ``fran_schemes``'s
``d2d_det`` runner.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .model import _check_layer_count


@dataclass(frozen=True)
class DetConfig:
    """Level count of the deterministic channel."""

    n_d: int

    def __post_init__(self) -> None:
        _check_layer_count(self.n_d)
        if self.n_d >= sys.float_info.max_exp:
            raise ValueError(f"n_d = {self.n_d} is too large: 2^n_d overflows a float")


def _as_bits(x, n_d: int) -> np.ndarray:
    bits = np.asarray(x, dtype=np.uint8)
    if bits.shape[-1] != n_d:
        raise ValueError(f"expected {n_d} levels, got shape {bits.shape}")
    if bits.max(initial=0) > 1:
        raise ValueError("entries must be 0/1")
    return bits


def _shift_down(bits: np.ndarray) -> np.ndarray:
    """Apply the lower-shift matrix S along the last axis."""
    out = np.zeros_like(bits)
    out[..., 1:] = bits[..., :-1]
    return out


def det_channel(x1, x2, cfg: DetConfig):
    """One use of the binary channel: y1 = x1 ^ S x2, y2 = S x1 ^ x2.

    Accepts single level vectors or stacks of them (leading axes broadcast),
    everything over GF(2).
    """
    x1 = _as_bits(x1, cfg.n_d)
    x2 = _as_bits(x2, cfg.n_d)
    return x1 ^ _shift_down(x2), _shift_down(x1) ^ x2


def build_d2d_messages(y1, y2, cfg: DetConfig):
    """Extract the even-numbered levels each UE forwards to its peer.

    Levels 2, 4, ..., n_d - 1 (1-based), i.e. (n_d - 1) / 2 bits per message
    per channel use.  v1 comes from UE 1's observation, v2 from UE 2's.
    """
    y1 = _as_bits(y1, cfg.n_d)
    y2 = _as_bits(y2, cfg.n_d)
    return y1[..., 1 : cfg.n_d - 1 : 2], y2[..., 1 : cfg.n_d - 1 : 2]


def sic_decode(y, v_other, cfg: DetConfig) -> np.ndarray:
    """Resolve all n_d levels by successive cancellation.

    For UE 1 the output is [a_1, b_2, a_3, b_4, ..., b_{n_d-1}, a_{n_d}]:
    level 1 arrives clean, each even level is peeled out of the peer's
    forwarded sum, and each higher odd level out of the own observation.
    UE 2 decodes the complementary set from (y2, v1) with the same chain.

    Inconsistent inputs are undetectable here (the system is linear); the
    end-to-end tests validate consistency instead.
    """
    y = _as_bits(y, cfg.n_d)
    v = np.asarray(v_other, dtype=np.uint8)
    if v.shape[-1] != (cfg.n_d - 1) // 2:
        raise ValueError("D2D message has the wrong number of bits")
    # The peer's levels 2, 4, ..., n_d - 1 spliced into y: each level is then
    # its entry XOR the level decoded below it, one running XOR.
    t = y.copy()
    t[..., 1 : cfg.n_d - 1 : 2] = v
    return np.bitwise_xor.accumulate(t, axis=-1)
