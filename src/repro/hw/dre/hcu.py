"""Hash-bit cluster unit (HCU) timing/energy model.

The HCU (paper Sec. V-B) computes Hamming distances between the current
frame's key hash-bits and the stored cluster hash-bits with parallel
XOR-accumulators, then updates the HC table.  One core processes
``n_hcu_h x n_hcu_w`` bits per cycle at the core clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.compute import _as_float, _at_least_one
from repro.hw.specs import VRexCoreConfig


@dataclass(frozen=True)
class HCUWork:
    """One clustering invocation: new tokens against existing clusters.

    ``num_clusters`` may be an int64 column: the work and its times are
    then columns, element for element the scalar values.
    """

    new_tokens: int
    num_clusters: int
    n_bits: int
    kv_heads: int = 1

    @property
    def bit_operations(self) -> float:
        """XOR + popcount bit operations required."""
        comparisons = self.new_tokens * _at_least_one(self.num_clusters) * self.kv_heads
        return _as_float(comparisons * self.n_bits)


class HCUModel:
    """Latency/energy model of the HCU across all cores."""

    def __init__(self, core: VRexCoreConfig | None = None, num_cores: int = 1, power_w: float = 0.00299):
        self.core = core or VRexCoreConfig()
        self.num_cores = max(num_cores, 1)
        self.power_w = power_w  # Table III: 2.99 mW per core

    def cycles(self, work: HCUWork) -> float:
        """Clock cycles to process one clustering invocation."""
        throughput = self.core.hcu_bits_per_cycle * self.num_cores
        return work.bit_operations / throughput

    def time_s(self, work: HCUWork) -> float:
        """Seconds to process one clustering invocation."""
        return self.cycles(work) / self.core.frequency_hz
