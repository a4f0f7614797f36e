"""Analytical GPU device models (AGX Orin, A100).

The paper measures GPU baselines directly; the reproduction models them
analytically from the Table I specifications.  Two properties matter:

* dense LLM kernels sustain a healthy fraction of peak throughput
  (``dense_utilization``), bounded by the HBM/LPDDR roofline;
* the data-dependent, conditional KV-prediction work of retrieval
  algorithms (top-k scoring, sorting, gathers) runs at a small fraction of
  peak (``irregular_utilization``) — this is precisely the inefficiency the
  DRE hardware removes (paper Sec. V).
"""

from __future__ import annotations

from repro.hw.compute import ComputeEngine, KernelCost
from repro.hw.memory.pcie import PCIE3_X4, PCIE4_X16, PCIeConfig, PCIeLink
from repro.hw.memory.ssd import SSDModel
from repro.hw.specs import DeviceSpec


def pcie_config_for(device: DeviceSpec) -> PCIeConfig:
    """Pick the PCIe generation/width matching a device's Table I entry."""
    if device.pcie_bandwidth_gbps <= 8.0:
        return PCIE3_X4
    return PCIE4_X16


class GPUDevice:
    """Roofline GPU model with separate dense and irregular execution modes."""

    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        self.dense_engine = ComputeEngine(
            spec.peak_tflops, spec.memory_bandwidth_gbps, utilization=spec.dense_utilization
        )
        self.irregular_engine = ComputeEngine(
            spec.peak_tflops,
            spec.memory_bandwidth_gbps,
            utilization=spec.irregular_utilization,
            bandwidth_utilization=0.4,
        )
        self.link = PCIeLink(pcie_config_for(spec))
        self.ssd = SSDModel()

    def dense_time_s(self, cost: KernelCost) -> float:
        """Execution time of dense LLM kernels (QKV, attention, FFN)."""
        return self.dense_engine.time_s(cost)

    def irregular_time_s(self, cost: KernelCost) -> float:
        """Execution time of data-dependent retrieval/prediction kernels."""
        return self.irregular_engine.time_s(cost)

    def fetch_time_s(
        self, num_bytes: float, from_ssd: bool = False, sequential_fraction: float = 0.5
    ) -> float:
        """Time to pull KV entries from the offload target over PCIe.

        ``sequential_fraction`` captures how contiguous the request is: a
        full-cache fetch (FlexGen) streams sequentially, token-granular
        top-k selections scatter across the offloaded layout.
        """
        if num_bytes <= 0:
            return 0.0
        pcie = self.link.transfer_time_s(num_bytes, efficiency=self.spec.pcie_efficiency)
        if not from_ssd:
            return pcie
        ssd = self.ssd.read_time_s(num_bytes, sequential_fraction=sequential_fraction)
        return max(pcie, ssd)

