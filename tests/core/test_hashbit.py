"""Tests for hash-bit generation and Hamming-distance utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.hashbit import (
    HashBitEncoder,
    cosine_similarity_matrix,
    hamming_distance,
    pack_bits_u64,
    pairwise_hamming,
    words_for_bits,
)


class TestHashBitEncoder:
    def test_output_shape_and_dtype(self, rng):
        encoder = HashBitEncoder(head_dim=16, n_bits=8, seed=0)
        keys = rng.normal(size=(5, 16))
        bits = encoder.encode(keys)
        assert bits.shape == (5, 8)
        assert bits.dtype == bool

    def test_batched_input_shapes(self, rng):
        encoder = HashBitEncoder(head_dim=8, n_bits=4, seed=0)
        keys = rng.normal(size=(3, 7, 8))
        assert encoder.encode(keys).shape == (3, 7, 4)

    def test_deterministic_for_same_seed(self, rng):
        keys = rng.normal(size=(10, 16))
        a = HashBitEncoder(16, 8, seed=3).encode(keys)
        b = HashBitEncoder(16, 8, seed=3).encode(keys)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_give_different_hyperplanes(self):
        a = HashBitEncoder(16, 8, seed=0)
        b = HashBitEncoder(16, 8, seed=1)
        assert not np.allclose(a.hyperplanes, b.hyperplanes)

    def test_identical_keys_have_identical_bits(self, rng):
        encoder = HashBitEncoder(16, 8, seed=0)
        key = rng.normal(size=(16,))
        bits = encoder.encode(np.stack([key, key]))
        np.testing.assert_array_equal(bits[0], bits[1])

    def test_negated_key_flips_every_bit(self, rng):
        encoder = HashBitEncoder(16, 32, seed=0)
        key = rng.normal(size=(16,))
        bits_pos = encoder.encode(key[None, :])[0]
        bits_neg = encoder.encode(-key[None, :])[0]
        # Sign hashes are antipodal up to zero-crossing ties (measure zero).
        assert np.all(bits_pos != bits_neg)

    def test_wrong_dimension_raises(self, rng):
        encoder = HashBitEncoder(16, 8)
        with pytest.raises(ValueError):
            encoder.encode(rng.normal(size=(3, 15)))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            HashBitEncoder(0, 8)
        with pytest.raises(ValueError):
            HashBitEncoder(8, 0)

    def test_similar_keys_have_small_hamming_distance(self, rng):
        encoder = HashBitEncoder(64, 32, seed=0)
        base = rng.normal(size=(64,))
        similar = base + 0.05 * rng.normal(size=(64,))
        different = rng.normal(size=(64,))
        bits = encoder.encode(np.stack([base, similar, different]))
        close = hamming_distance(bits[0], bits[1])
        far = hamming_distance(bits[0], bits[2])
        assert close < far


class TestHammingDistance:
    def test_zero_for_identical(self):
        bits = np.array([True, False, True, True])
        assert hamming_distance(bits, bits) == 0

    def test_counts_differing_bits(self):
        a = np.array([True, False, True, False])
        b = np.array([True, True, False, False])
        assert hamming_distance(a, b) == 2

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            hamming_distance(np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))

    def test_pairwise_matches_elementwise(self, rng):
        a = rng.integers(0, 2, size=(4, 16)).astype(bool)
        b = rng.integers(0, 2, size=(6, 16)).astype(bool)
        matrix = pairwise_hamming(a, b)
        assert matrix.shape == (4, 6)
        for i in range(4):
            for j in range(6):
                assert matrix[i, j] == hamming_distance(a[i], b[j])

    def test_pairwise_requires_matching_bits(self, rng):
        with pytest.raises(ValueError):
            pairwise_hamming(
                rng.integers(0, 2, size=(2, 8)).astype(bool),
                rng.integers(0, 2, size=(2, 9)).astype(bool),
            )


class TestPackUnpack:
    @given(
        bits=arrays(
            dtype=bool,
            shape=st.tuples(st.integers(1, 8), st.integers(1, 40)),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, bits):
        packed = pack_bits_u64(bits)
        assert packed.shape == (bits.shape[0], words_for_bits(bits.shape[-1]))
        as_bytes = packed.view(np.uint8)
        restored = np.unpackbits(as_bytes, axis=-1, bitorder="little")[..., : bits.shape[-1]]
        np.testing.assert_array_equal(restored.astype(bool), bits)


class TestCosineSimilarity:
    def test_self_similarity_is_one(self, rng):
        x = rng.normal(size=(5, 8))
        sims = cosine_similarity_matrix(x, x)
        np.testing.assert_allclose(np.diag(sims), 1.0, atol=1e-9)

    def test_orthogonal_vectors(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert cosine_similarity_matrix(a, b)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_bounded_in_unit_interval(self, rng):
        sims = cosine_similarity_matrix(rng.normal(size=(6, 12)), rng.normal(size=(7, 12)))
        assert np.all(sims <= 1.0 + 1e-9)
        assert np.all(sims >= -1.0 - 1e-9)


class TestHammingCosineCorrelation:
    def test_hamming_tracks_cosine(self, rng):
        """The Fig. 7(b) property: Hamming distance anti-correlates with cosine."""
        base = rng.normal(size=(40, 64))
        # Build pairs with a range of similarities.
        noisy = base * np.linspace(0.0, 1.0, 40)[:, None] + rng.normal(size=(40, 64))
        encoder = HashBitEncoder(64, 32, seed=0)
        cos = np.sum(
            base / np.linalg.norm(base, axis=1, keepdims=True)
            * (noisy / np.linalg.norm(noisy, axis=1, keepdims=True)),
            axis=1,
        )
        ham = hamming_distance(encoder.encode(base), encoder.encode(noisy))
        correlation = np.corrcoef(cos, ham)[0, 1]
        assert correlation < -0.5
