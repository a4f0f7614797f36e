"""PCIe link model.

The paper's central systems observation is that KV cache retrieval is
bottlenecked by the PCIe link between the accelerator/GPU and the CPU
memory or SSD holding the offloaded cache (4 GB/s on the edge platform,
32 GB/s on the server).  Irregular token-granular fetches underutilise the
link; the KVMU's cluster-wise memory mapping restores near-peak utilisation
by making fetches contiguous.

When several streams share the link, their transfers serialize:
:class:`PCIeLinkQueue` wraps a link in a FCFS queue so the batched
performance plane and the serving scheduler can expose the queueing delay
concurrent aligned fetches suffer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.event import ResourceQueue


@dataclass(frozen=True)
class PCIeConfig:
    """Link parameters."""

    name: str
    bandwidth_gbps: float
    lanes: int
    power_per_lane_w: float = 3.0
    latency_us: float = 5.0
    min_efficiency: float = 0.25
    max_efficiency: float = 0.97
    saturating_transfer_bytes: float = 256 * 1024.0


PCIE3_X4 = PCIeConfig(name="PCIe3.0 x4", bandwidth_gbps=4.0, lanes=4)
PCIE4_X16 = PCIeConfig(name="PCIe4.0 x16", bandwidth_gbps=32.0, lanes=16)


class PCIeLink:
    """Analytical PCIe transfer model with granularity-dependent efficiency."""

    def __init__(self, config: PCIeConfig):
        self.config = config

    def efficiency(self, contiguous_bytes: float) -> float:
        """Achievable bandwidth fraction for transfers of a given contiguity.

        Small scattered DMA descriptors pay per-transaction overhead; the
        efficiency saturates once individual contiguous chunks reach
        ``saturating_transfer_bytes``.
        """
        cfg = self.config
        if contiguous_bytes <= 0:
            return cfg.min_efficiency
        fraction = min(contiguous_bytes / cfg.saturating_transfer_bytes, 1.0)
        return cfg.min_efficiency + (cfg.max_efficiency - cfg.min_efficiency) * fraction

    def occupancy_s(self, num_bytes: float, efficiency: float | None = None) -> float:
        """Bytes-on-the-wire time, excluding the fixed request latency.

        Batched pricing uses this to merge many streams' transfers into one
        link busy period that pays the request latency only once.
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        eff = self.config.max_efficiency if efficiency is None else efficiency
        if not 0.0 < eff <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")
        bandwidth = self.config.bandwidth_gbps * 1e9 * eff
        return num_bytes / bandwidth

    def transfer_time_s(self, num_bytes: float, efficiency: float | None = None) -> float:
        """Seconds to move ``num_bytes`` across the link."""
        occupancy = self.occupancy_s(num_bytes, efficiency)
        if occupancy == 0.0:  # simlint: exact — zero-byte sentinel, returned literally above
            return 0.0
        return self.config.latency_us * 1e-6 + occupancy

    def power_w(self) -> float:
        """Link power under full load (paper: ~3 W per lane)."""
        return self.config.lanes * self.config.power_per_lane_w


class PCIeLinkQueue(ResourceQueue):
    """A shared PCIe link serving concurrent streams' transfers FCFS.

    Each enqueued transfer holds the link for its full transfer time (the
    DMA engine does not interleave descriptors of different streams), so
    transfers that arrive while the link is busy wait — the queueing delay
    the batched performance plane charges to aligned frame arrivals.
    """

    def __init__(self, link: PCIeLink, sanitize: bool | None = None):
        super().__init__(name=link.config.name, sanitize=sanitize)
        self.link = link
