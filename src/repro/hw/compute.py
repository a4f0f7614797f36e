"""Generic kernel cost accounting and roofline-style timing.

The formulas here and in :mod:`repro.hw.dre` and
:mod:`repro.sim.workload` take a count either as a Python ``int`` or as an
int64 numpy column, which the demand derivation prices elementwise; the
two helpers below keep a column's arithmetic the scalar's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _at_least_one(count):
    """``max(count, 1)``, elementwise on an int64 column."""
    return np.maximum(count, 1) if isinstance(count, np.ndarray) else max(count, 1)


def _as_float(count):
    """``float(count)``, elementwise on an int64 column (both round half to even)."""
    return count.astype(np.float64) if isinstance(count, np.ndarray) else float(count)


@dataclass(frozen=True)
class KernelCost:
    """Work of one kernel: floating point operations and DRAM traffic."""

    flops: float
    dram_bytes: float = 0.0


class ComputeEngine:
    """Roofline execution model of a compute device or engine.

    A kernel's time is the maximum of its compute time at the sustained
    throughput and its memory time at the sustained DRAM bandwidth.
    """

    def __init__(
        self,
        peak_tflops: float,
        memory_bandwidth_gbps: float,
        utilization: float = 1.0,
        bandwidth_utilization: float = 0.8,
    ):
        if peak_tflops <= 0 or memory_bandwidth_gbps <= 0:
            raise ValueError("peak_tflops and memory_bandwidth_gbps must be positive")
        if not 0.0 < utilization <= 1.0:
            raise ValueError("utilization must lie in (0, 1]")
        if not 0.0 < bandwidth_utilization <= 1.0:
            raise ValueError("bandwidth_utilization must lie in (0, 1]")
        self.peak_tflops = peak_tflops
        self.memory_bandwidth_gbps = memory_bandwidth_gbps
        self.utilization = utilization
        self.bandwidth_utilization = bandwidth_utilization

    @property
    def sustained_flops(self) -> float:
        """Sustained FLOP/s."""
        return self.peak_tflops * 1e12 * self.utilization

    @property
    def sustained_bandwidth(self) -> float:
        """Sustained DRAM bytes/s."""
        return self.memory_bandwidth_gbps * 1e9 * self.bandwidth_utilization

    def compute_time_s(self, cost: KernelCost) -> float:
        """Compute-bound execution time."""
        return cost.flops / self.sustained_flops

    def memory_time_s(self, cost: KernelCost) -> float:
        """Memory-bound execution time."""
        return cost.dram_bytes / self.sustained_bandwidth

    def time_s(self, cost: KernelCost) -> float:
        """Roofline execution time of one kernel."""
        return max(self.compute_time_s(cost), self.memory_time_s(cost))
