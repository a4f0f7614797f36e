"""KV cache management unit (KVMU) timing model.

The KVMU (paper Sec. V-C) performs two functions the sim needs numbers for:

* hierarchical KV cache management — recent entries stay in device DRAM,
  older entries spill to CPU memory or SSD (modelled by
  :class:`repro.hw.memory.hierarchy.HierarchicalKVManager`);
* cluster-wise memory mapping — offloaded tokens of one hash cluster are
  stored contiguously, so retrieving a cluster is a single long DMA and the
  PCIe link runs near its peak efficiency.  Without the KVMU, token-granular
  gather transfers run at a fraction of the link bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.memory.pcie import PCIeLink
from repro.hw.memory.sharding import ShardSplit, sharded_fetch_makespan
from repro.hw.memory.ssd import SSDModel


@dataclass(frozen=True)
class KVFetchWork:
    """One retrieval transfer."""

    total_bytes: float
    mean_contiguous_bytes: float
    from_ssd: bool = False


class KVMUModel:
    """Latency/energy model of KV fetches orchestrated by the KVMU."""

    def __init__(
        self,
        link: PCIeLink,
        ssd: SSDModel | None = None,
        cluster_mapping: bool = True,
        power_w: float = 0.01501,
    ):
        self.link = link
        self.ssd = ssd or SSDModel()
        self.cluster_mapping = cluster_mapping
        self.power_w = power_w  # Table III: 15.01 mW per core

    def link_efficiency(self, work: KVFetchWork) -> float:
        """Effective PCIe efficiency for this fetch pattern."""
        if self.cluster_mapping:
            return self.link.efficiency(work.mean_contiguous_bytes)
        # Token-granular scattered DMA: efficiency of a single-token chunk.
        per_token = min(work.mean_contiguous_bytes, 4096.0)
        return self.link.efficiency(per_token * 0.25)

    def ssd_sequential_fraction(self) -> float:
        """Share of an SSD read the current memory mapping keeps sequential."""
        return 0.95 if self.cluster_mapping else 0.3

    def pcie_time_s(self, work: KVFetchWork) -> float:
        """PCIe stage of a fetch at this work's achievable link efficiency."""
        if work.total_bytes <= 0:
            return 0.0
        return self.link.transfer_time_s(work.total_bytes, efficiency=self.link_efficiency(work))

    def ssd_time_s(self, work: KVFetchWork) -> float:
        """SSD read stage of a fetch (zero when the cache lives in CPU memory)."""
        if work.total_bytes <= 0 or not work.from_ssd:
            return 0.0
        return self.ssd.read_time_s(
            work.total_bytes, sequential_fraction=self.ssd_sequential_fraction()
        )

    def fetch_time_s(self, work: KVFetchWork) -> float:
        """Seconds to complete the fetch (PCIe, plus SSD read if applicable)."""
        if work.total_bytes <= 0:
            return 0.0
        pcie_time = self.pcie_time_s(work)
        if not work.from_ssd:
            return pcie_time
        # The SSD read and the PCIe transfer are pipelined; the slower stage
        # dominates.
        return max(pcie_time, self.ssd_time_s(work))

    def sharded_fetch_time_s(self, work: KVFetchWork, split: ShardSplit) -> float:
        """Makespan of a fetch fanned out across parallel memory banks.

        Each bank's warm share moves over its own channel at this fetch's
        achievable contiguity; the cold share streams from the SSD tier
        concurrently.  With the degenerate fully-warm single-bank split
        this equals :meth:`fetch_time_s` bit for bit.
        """

        def warm(num_bytes: float) -> float:
            return self.fetch_time_s(
                KVFetchWork(num_bytes, work.mean_contiguous_bytes, work.from_ssd)
            )

        def cold(num_bytes: float) -> float:
            return self.fetch_time_s(
                KVFetchWork(num_bytes, work.mean_contiguous_bytes, from_ssd=True)
            )

        return sharded_fetch_makespan(work.total_bytes, split, warm, cold)
