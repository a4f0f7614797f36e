"""Memory-system models: SSD, PCIe, KV hierarchy, sharded banks."""

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
    "EvictionRecord",
    "FetchResult",
    "HierarchicalKVManager",
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
