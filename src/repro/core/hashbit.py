"""Hash-bit generation: random-hyperplane signatures of key vectors.

Paper Sec. IV-B: the key matrix of the current frame (after RoPE) is
multiplied by :math:`N_{hp}` random hyperplanes and each element is
binarised (``> 0`` → 1).  The resulting ultra-low-dimensional bit signature
(≤ 0.5 % of the original dimension for Llama-3) lets the clustering step use
cheap Hamming distances instead of cosine similarity; the paper reports a
correlation of about 0.8 between the two (Fig. 7b), which we reproduce in
``experiments.fig07_similarity``.
"""

from __future__ import annotations

import numpy as np


class HashBitEncoder:
    """Encodes key vectors into ``n_bits``-wide binary signatures."""

    def __init__(self, head_dim: int, n_bits: int, seed: int = 0):
        if head_dim <= 0:
            raise ValueError("head_dim must be positive")
        if n_bits <= 0:
            raise ValueError("n_bits must be positive")
        self.head_dim = head_dim
        self.n_bits = n_bits
        rng = np.random.default_rng(seed)
        # One random hyperplane per output bit.
        self.hyperplanes = rng.normal(0.0, 1.0, size=(head_dim, n_bits))

    def encode(self, keys: np.ndarray) -> np.ndarray:
        """Return the sign-bit signature of each key.

        Parameters
        ----------
        keys:
            Array of shape ``(..., head_dim)``.

        Returns
        -------
        numpy.ndarray
            Boolean array of shape ``(..., n_bits)``; ``True`` where the
            hyperplane projection is strictly positive.
        """
        keys = np.asarray(keys, dtype=np.float64)
        if keys.shape[-1] != self.head_dim:
            raise ValueError(
                f"expected keys with last dimension {self.head_dim}, got {keys.shape}"
            )
        projected = keys @ self.hyperplanes
        return projected > 0.0


def hamming_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise Hamming distance between two equal-shape bit arrays."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.count_nonzero(a ^ b, axis=-1)


def pairwise_hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between two sets of bit signatures.

    ``a`` has shape ``(n, bits)`` and ``b`` ``(m, bits)``; the result is an
    ``(n, m)`` integer matrix.  This mirrors the XOR-and-popcount operation
    the HCU hardware unit performs.
    """
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("inputs must be 2-D with matching bit width")
    # XOR via broadcasting: (n, 1, bits) ^ (1, m, bits).
    xor = a[:, None, :] ^ b[None, :, :]
    return np.count_nonzero(xor, axis=-1)


def words_for_bits(n_bits: int) -> int:
    """Number of uint64 words needed to store an ``n_bits`` signature."""
    return (n_bits + 63) // 64


if hasattr(np, "bitwise_count"):  # numpy >= 2.0: native popcount
    popcount_u64 = np.bitwise_count
else:  # numpy 1.x fallback: byte-wise table lookup

    _POPCOUNT8 = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)

    def popcount_u64(words: np.ndarray) -> np.ndarray:
        """Set bits of every uint64 word (same shape as ``words``)."""
        as_bytes = np.ascontiguousarray(words)[..., None].view(np.uint8)
        return _POPCOUNT8[as_bytes].sum(axis=-1, dtype=np.uint64)


def pack_bits_u64(bits: np.ndarray) -> np.ndarray:
    """Pack boolean signatures into uint64 words.

    ``bits`` has shape ``(..., n_bits)``; the result has shape
    ``(..., words_for_bits(n_bits))``.  This is the storage layout the
    vectorized HC-table engine keeps signatures in: one XOR + popcount per
    word replaces an ``n_bits``-wide boolean compare, mirroring the 64-bit
    datapath of the HCU hardware unit.
    """
    bits = np.asarray(bits, dtype=bool)
    n_bits = bits.shape[-1]
    if n_bits % 64:
        padded = np.zeros(bits.shape[:-1] + (64 * words_for_bits(n_bits),), dtype=bool)
        padded[..., :n_bits] = bits
        bits = padded
    return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)


def cosine_similarity_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity (used for the Fig. 7 correlation study)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_norm = a / np.maximum(np.linalg.norm(a, axis=-1, keepdims=True), 1e-12)
    b_norm = b / np.maximum(np.linalg.norm(b, axis=-1, keepdims=True), 1e-12)
    return a_norm @ b_norm.T
