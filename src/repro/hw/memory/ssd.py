"""NVMe SSD model (M.2, Kioxia BG6-class).

Stands in for MQSim: sequential/random read bandwidth, access latency and
active/idle power are the only characteristics the system-level results
depend on.  On the edge platform the full KV cache is offloaded to this SSD
and fetched over the 4 GB/s PCIe 3.0 x4 link.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SSDConfig:
    """Performance/power envelope of an NVMe SSD."""

    name: str = "Kioxia BG6"
    sequential_read_gbps: float = 3.5
    random_read_gbps: float = 1.4
    sequential_write_gbps: float = 2.9
    read_latency_us: float = 50.0
    active_power_w: float = 4.1
    idle_power_w: float = 0.25
    page_bytes: int = 4096


class SSDModel:
    """Analytical SSD timing/energy model."""

    def __init__(self, config: SSDConfig | None = None):
        self.config = config or SSDConfig()

    def read_occupancy_s(self, num_bytes: float, sequential_fraction: float = 1.0) -> float:
        """Media time of a read, excluding the fixed access latency.

        Batched pricing uses this to merge many streams' reads into one SSD
        busy period that pays the access latency only once.
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if not 0.0 <= sequential_fraction <= 1.0:
            raise ValueError("sequential_fraction must lie in [0, 1]")
        if num_bytes == 0:
            return 0.0
        cfg = self.config
        seq_bytes = num_bytes * sequential_fraction
        rnd_bytes = num_bytes - seq_bytes
        return seq_bytes / (cfg.sequential_read_gbps * 1e9) + rnd_bytes / (
            cfg.random_read_gbps * 1e9
        )

    def read_time_s(self, num_bytes: float, sequential_fraction: float = 1.0) -> float:
        """Seconds to read ``num_bytes`` given a sequential-access fraction.

        ``sequential_fraction`` is the share of requested bytes that can be
        streamed sequentially (contiguously laid out); the KVMU's
        cluster-wise memory mapping raises it, scattered token-granular
        fetches lower it.
        """
        occupancy = self.read_occupancy_s(num_bytes, sequential_fraction)
        if occupancy == 0.0 and num_bytes == 0:  # simlint: exact — zero-byte sentinel
            return 0.0
        return self.config.read_latency_us * 1e-6 + occupancy

    def energy_j(self, busy_seconds: float, idle_seconds: float = 0.0) -> float:
        """Energy consumed while busy plus idle."""
        return busy_seconds * self.config.active_power_w + idle_seconds * self.config.idle_power_w
