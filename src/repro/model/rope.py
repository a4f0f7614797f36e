"""Rotary position embeddings (RoPE).

The paper's hash-bit key clustering operates on keys *after* the rotary
position embedding has been applied (Sec. IV-B), so the substrate applies
RoPE exactly where a production model would: on the per-head query and key
tensors before attention scores are computed.
"""

from __future__ import annotations

import numpy as np


class RotaryEmbedding:
    """Precomputes RoPE rotation angles for a given head dimension.

    Parameters
    ----------
    head_dim:
        Per-head embedding dimension; must be even.
    base:
        Frequency base (10_000 for the toy model, 500_000 for Llama-3).
    """

    def __init__(self, head_dim: int, base: float = 10_000.0):
        if head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even for RoPE, got {head_dim}")
        self.head_dim = head_dim
        self.base = float(base)
        half = head_dim // 2
        self.inv_freq = self.base ** (-np.arange(0, half, dtype=np.float64) / half)

    def angles(self, positions: np.ndarray) -> np.ndarray:
        """Return rotation angles of shape ``(len(positions), head_dim // 2)``."""
        positions = np.asarray(positions, dtype=np.float64)
        return np.outer(positions, self.inv_freq)

    def rotate(self, x: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Apply the rotary embedding.

        Parameters
        ----------
        x:
            Array of shape ``(..., seq, head_dim)``.
        positions:
            Integer positions of length ``seq``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.head_dim:
            raise ValueError(
                f"last dimension of x ({x.shape[-1]}) does not match head_dim "
                f"({self.head_dim})"
            )
        positions = np.asarray(positions)
        if positions.shape[0] != x.shape[-2]:
            raise ValueError(
                f"positions length ({positions.shape[0]}) does not match "
                f"sequence length ({x.shape[-2]})"
            )
        theta = self.angles(positions)
        cos = np.cos(theta)
        sin = np.sin(theta)
        x_even = x[..., 0::2]
        x_odd = x[..., 1::2]
        out = np.empty_like(x)
        out[..., 0::2] = x_even * cos - x_odd * sin
        out[..., 1::2] = x_even * sin + x_odd * cos
        return out
