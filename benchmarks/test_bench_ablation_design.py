"""Ablation benchmarks for the design choices listed in the README section
"Experiments, ablations and substitutions".

These are not paper figures; they quantify the cost/benefit of individual
mechanisms: early-exit sorting in the WTU, cluster-wise memory mapping in
the KVMU, and the hash width N_hp.
"""

import numpy as np

from repro.core.hashbit import HashBitEncoder, hamming_distance
from repro.core.wicsum import importance_scores, wicsum_select, wicsum_select_early_exit
from repro.hw.dre.wtu import WTUModel, WTUWork
from repro.sim.pipeline import LatencyModel
from repro.sim.systems import ablation_systems
from repro.sim.workload import default_llm_workload


def test_bench_early_exit_sorting(benchmark):
    """Early-exit WiCSum vs full-sort WiCSum on a realistic score matrix."""
    rng = np.random.default_rng(0)
    scores = importance_scores(rng.normal(size=(80, 1250)), head_dim=128)
    counts = rng.integers(1, 64, size=1250)

    fast = benchmark(wicsum_select_early_exit, scores, counts, 0.3)
    reference = wicsum_select(scores, counts, 0.3)
    np.testing.assert_array_equal(fast.selected_clusters, reference.selected_clusters)
    assert fast.sort_fraction < 1.0
    # The WTU hardware model predicts a matching early-exit speedup.
    wtu = WTUModel(num_cores=8)
    assert wtu.early_exit_speedup(WTUWork(80, 1250, sort_fraction=fast.sort_fraction)) > 1.0


def test_bench_kvmu_cluster_mapping(benchmark):
    """Cluster-wise memory mapping vs token-order mapping at 40K cache."""
    model = LatencyModel()
    systems = ablation_systems(default_llm_workload().model_bytes())

    def run_pair():
        with_kvmu = model.frame_step(systems["V-Rex8 All"], 40_000, 1).total_s
        without_kvmu = model.frame_step(systems["V-Rex8 KVPU"], 40_000, 1).total_s
        return with_kvmu, without_kvmu

    with_kvmu, without_kvmu = benchmark(run_pair)
    assert with_kvmu < without_kvmu


def test_bench_hash_width_sweep(benchmark):
    """N_hp sweep: wider signatures separate dissimilar keys more reliably."""
    rng = np.random.default_rng(1)
    base = rng.normal(size=(256, 128))
    similar = base + 0.1 * rng.normal(size=base.shape)
    different = rng.normal(size=base.shape)

    def separation(n_bits):
        encoder = HashBitEncoder(128, n_bits, seed=0)
        close = hamming_distance(encoder.encode(base), encoder.encode(similar)).mean() / n_bits
        far = hamming_distance(encoder.encode(base), encoder.encode(different)).mean() / n_bits
        return far - close

    gaps = benchmark(lambda: [separation(n) for n in (8, 16, 32, 64)])
    assert gaps[-1] > 0.1
