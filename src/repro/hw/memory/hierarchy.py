"""Hierarchical KV cache memory management (KVMU, paper Sec. V-C).

The KVMU keeps recent KV cache entries in the accelerator's DRAM, spills
the oldest entries to CPU memory or SSD once a capacity budget is exceeded,
and lays offloaded tokens out *cluster-wise* so that retrieving a cluster
is one contiguous transfer.  This module models that policy functionally:
it tracks which tokens are resident, answers fetch requests with the split
between on-device hits and off-chip bytes, and reports the contiguity of
the off-chip accesses (which the PCIe/SSD models convert into effective
bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class FetchResult:
    """Outcome of one retrieval request."""

    requested_tokens: int
    resident_tokens: int
    offchip_tokens: int
    offchip_bytes: float
    mean_contiguous_bytes: float
    num_transfers: int


@dataclass
class HierarchicalKVManager:
    """Tracks residency and layout of a growing KV cache.

    Parameters
    ----------
    bytes_per_token:
        Per-token KV footprint at the granularity being managed (e.g. all
        layers of one batch element).
    device_budget_bytes:
        DRAM capacity reserved for the KV cache; beyond it the oldest
        entries are offloaded.
    cluster_mapping:
        Whether offloaded tokens are grouped cluster-wise (KVMU behaviour)
        or stored in arrival order (plain offloading).
    """

    bytes_per_token: float
    device_budget_bytes: float
    cluster_mapping: bool = True
    _num_tokens: int = 0
    #: Cluster id of every token in arrival order (``-1`` = no cluster).
    _cluster_ids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    _num_clustered: int = 0
    _offloaded_before: int = 0

    @property
    def resident_tokens(self) -> int:
        return self._num_tokens - self._offloaded_before

    @property
    def offloaded_tokens(self) -> int:
        return self._offloaded_before

    @staticmethod
    def _validated_cluster_ids(cluster_ids, num_new_tokens: int) -> np.ndarray:
        cluster_ids = np.asarray(cluster_ids)
        if cluster_ids.ndim != 1:
            raise ValueError(
                f"cluster_ids must be 1-D, got {cluster_ids.ndim} dimensions"
            )
        if cluster_ids.shape[0] != num_new_tokens:
            raise ValueError("cluster_ids length must match num_new_tokens")
        ids = cluster_ids.astype(np.int64)
        if cluster_ids.size and np.any(ids != cluster_ids):
            raise ValueError("cluster_ids must be integers")
        if cluster_ids.size and ids.min() < 0:
            raise ValueError("cluster_ids must be non-negative")
        return ids

    def append(self, num_new_tokens: int, cluster_ids: np.ndarray | None = None) -> int:
        """Add new tokens (optionally with cluster assignments); returns evictions.

        Eviction is oldest-first: tokens with the smallest indices are
        offloaded until the resident set fits the budget again.
        """
        if num_new_tokens < 0:
            raise ValueError("num_new_tokens must be non-negative")
        if cluster_ids is not None:
            ids = self._validated_cluster_ids(cluster_ids, num_new_tokens)
            self._num_clustered += int(ids.size)
        else:
            ids = np.full(num_new_tokens, -1, dtype=np.int64)
        self._cluster_ids = np.concatenate([self._cluster_ids, ids])
        self._num_tokens += num_new_tokens

        budget_tokens = int(self.device_budget_bytes // max(self.bytes_per_token, 1.0))
        target = min(max(self._num_tokens - budget_tokens, 0), self._num_tokens)
        evicted = max(target - self._offloaded_before, 0)
        self._offloaded_before += evicted
        return evicted

    def fetch(self, token_indices: np.ndarray) -> FetchResult:
        """Resolve a retrieval request into resident hits and off-chip transfers."""
        token_indices = np.unique(np.asarray(token_indices, dtype=np.int64))
        if token_indices.size and (
            token_indices.min() < 0 or token_indices.max() >= self._num_tokens
        ):
            raise IndexError("fetch indices out of range")
        resident_mask = token_indices >= self._offloaded_before
        offchip = token_indices[~resident_mask]
        transfers = self._group_transfers(offchip)
        offchip_bytes = offchip.size * self.bytes_per_token
        mean_chunk = (
            offchip_bytes / len(transfers) if transfers else self.bytes_per_token
        )
        return FetchResult(
            requested_tokens=int(token_indices.size),
            resident_tokens=int(resident_mask.sum()),
            offchip_tokens=int(offchip.size),
            offchip_bytes=float(offchip_bytes),
            mean_contiguous_bytes=float(mean_chunk),
            num_transfers=max(len(transfers), 0),
        )

    def _group_transfers(self, offchip: np.ndarray) -> list[np.ndarray]:
        """Group off-chip tokens into contiguous transfers.

        With cluster-wise mapping, tokens sharing a cluster are stored at
        contiguous addresses, so one transfer per (cluster) group suffices;
        without it, only tokens adjacent in arrival order coalesce.
        """
        if offchip.size == 0:
            return []
        if self.cluster_mapping and self._num_clustered > 0:
            clusters = self._cluster_ids[offchip]
            _, inverse = np.unique(clusters, return_inverse=True)
            order = np.argsort(inverse, kind="stable")
            boundaries = np.cumsum(np.bincount(inverse))[:-1]
            return list(np.split(offchip[order], boundaries))
        # Arrival-order layout: coalesce only consecutive indices.
        splits = np.nonzero(np.diff(offchip) > 1)[0] + 1
        return list(np.split(offchip, splits))

    def offloaded_bytes(self) -> float:
        """Bytes of KV cache spilled to CPU memory or SSD."""
        return self.offloaded_tokens * self.bytes_per_token
