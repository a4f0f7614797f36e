"""Benchmark: HC-table engine vs the seed reference at a 20k-token cache.

The acceptance bar of the array-backed engine is >= 10x the seed
implementation's steady-state ``update`` throughput at a 20k-token cache.
The engine's own rates per table size are per-layer metrics of the e2e
harness (``core.clustering.{update_tokens,select_rounds}_per_s``, see the
README "Benchmark" section); this file keeps only the floor against the
seed port, :class:`ReferenceTable` of ``tests/core/test_equivalence.py``,
timed on the *same* table state (cloned from the engine after the fill
phase) so both measure identical cluster counts.
"""

import importlib.util
import time
from pathlib import Path

import numpy as np

from repro.core.clustering import HashClusterTable
from repro.core.hashbit import HashBitEncoder

HEAD_DIM = 128
N_BITS = 32
HAMMING_THRESHOLD = 7
CHUNK = 64
SCENE_EVERY = 2048  # tokens between scene cuts (keeps cluster counts realistic)
CACHE_TOKENS = 20_000
MEASURE_TOKENS = 256  # steady-state update tokens timed per implementation

# the seed port lives in a test module; loaded by path so this file runs
# whether or not pytest has put tests/core on sys.path
_SEED_PATH = Path(__file__).resolve().parents[1] / "tests" / "core" / "test_equivalence.py"
_spec = importlib.util.spec_from_file_location("seed_hc_table", _SEED_PATH)
_seed = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_seed)


class _Stream:
    """Adjacent-frame key chunks with periodic scene changes, fed to a table."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._encoder = HashBitEncoder(HEAD_DIM, N_BITS, seed=0)
        self._base = self._rng.normal(size=(CHUNK, HEAD_DIM))
        self.position = 0

    def feed(self, table, num_tokens: int) -> float:
        """Stream ``num_tokens`` into ``table``; returns update tokens/sec."""
        start = time.perf_counter()
        for _ in range(num_tokens // CHUNK):
            if self.position and self.position % SCENE_EVERY == 0:
                self._base = self._rng.normal(size=(CHUNK, HEAD_DIM))
            keys = self._base + 0.05 * self._rng.normal(size=self._base.shape)
            ids = np.arange(self.position, self.position + CHUNK)
            table.update(keys, self._encoder.encode(keys), ids)
            self.position += CHUNK
        return num_tokens // CHUNK * CHUNK / (time.perf_counter() - start)


def _speedup_at_20k() -> float:
    table = HashClusterTable(HEAD_DIM, N_BITS, HAMMING_THRESHOLD)
    stream = _Stream(seed=1)
    stream.feed(table, CACHE_TOKENS)
    engine_rate = stream.feed(table, MEASURE_TOKENS)
    reference_rate = stream.feed(_seed.clone_into_reference(table), MEASURE_TOKENS)
    return engine_rate / reference_rate


def test_bench_clustering_speedup_vs_seed(benchmark):
    """Engine must beat the seed reference by >= 10x at a 20k-token cache."""
    speedup = benchmark.pedantic(_speedup_at_20k, rounds=1, iterations=1)
    assert speedup >= 10.0
