"""Memory-system models: DRAM, SSD, PCIe, KV hierarchy, sharded banks."""

from repro.hw.memory.dram import DDR4_CPU, HBM2E, LPDDR5, DRAMConfig, DRAMModel
from repro.hw.memory.hierarchy import FetchResult, HierarchicalKVManager
from repro.hw.memory.pcie import PCIE3_X4, PCIE4_X16, PCIeConfig, PCIeLink
from repro.hw.memory.sharding import (
    EvictionRecord,
    PromotionPlan,
    ShardedKVHierarchy,
    ShardSplit,
    partition_by_cluster,
    sharded_fetch_makespan,
)
from repro.hw.memory.ssd import SSDConfig, SSDModel

__all__ = [
    "DDR4_CPU",
    "DRAMConfig",
    "DRAMModel",
    "EvictionRecord",
    "FetchResult",
    "HBM2E",
    "HierarchicalKVManager",
    "LPDDR5",
    "PCIE3_X4",
    "PCIE4_X16",
    "PCIeConfig",
    "PCIeLink",
    "PromotionPlan",
    "SSDConfig",
    "SSDModel",
    "ShardSplit",
    "ShardedKVHierarchy",
    "partition_by_cluster",
    "sharded_fetch_makespan",
]
