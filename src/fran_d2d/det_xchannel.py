"""Binary deterministic model of the 2x2 downlink with receiver cooperation.

High-SNR behaviour of the 2x2 downlink is approximated by a binary
deterministic channel: each EN drives ``n_d`` signal levels, the direct link
passes them through unchanged and the cross link drops the top level (a
lower-shift by one over GF(2)).  ``n_d`` is odd, as the delivery scheme
needs.

With EN 1 sending bits a_1..a_{n_d} and EN 2 sending b_1..b_{n_d}, UE 1
observes [a_1, a_2^b_1, ..., a_{n_d}^b_{n_d-1}] and UE 2 the mirror image.
Each UE forwards its even-numbered levels over the D2D link, after which a
successive-cancellation chain resolves one fresh bit per level: that is
``model.d2d_sic``, the step real interference alignment runs over the
integers, here reduced mod 2.  ``transmit`` runs a block of channel uses
through both; the half-cached delivery on it is ``fran_schemes``'s
``d2d_det`` runner.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .model import _check_layer_count, d2d_sic


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


def det_channel(x1, x2, cfg: DetConfig):
    """One use of the binary channel: y1 = x1 ^ S x2, y2 = S x1 ^ x2.

    Accepts single level vectors or stacks of them (leading axes broadcast),
    everything over GF(2).  S is XORed in as a shift of the flattened levels,
    after which each row's level 1, shifted in from the row before, is reset.
    """
    x1, x2 = np.broadcast_arrays(_as_bits(x1, cfg.n_d), _as_bits(x2, cfg.n_d))
    y1, y2 = x1.copy(), x2.copy()
    y1.reshape(-1)[1:] ^= x2.reshape(-1)[:-1]
    y2.reshape(-1)[1:] ^= x1.reshape(-1)[:-1]
    y1[..., 0], y2[..., 0] = x1[..., 0], x2[..., 0]
    return y1, y2


def transmit(x1, x2, cfg: DetConfig) -> np.ndarray:
    """Run a block of channel uses through the channel and receiver cooperation.

    ``x1`` and ``x2`` are EN 1's and EN 2's (uses, n_d) levels.  Both UEs'
    observations go slot first through ``model.d2d_sic`` on uint8 and are
    reduced mod 2.  Returns the (2, uses, n_d) resolved bits: UE 1 decodes
    [a_1, b_2, a_3, ..., b_{n_d-1}, a_{n_d}] and UE 2 the mirror image.
    """
    y1, y2 = det_channel(x1, x2, cfg)
    t = np.empty((cfg.n_d, 2, len(y1)), np.uint8)  # rows of whole slots peel fastest
    t[:, 0], t[:, 1] = y1.T, y2.T
    d2d_sic(t, cfg.n_d)
    t &= 1
    return t.transpose(1, 2, 0)
