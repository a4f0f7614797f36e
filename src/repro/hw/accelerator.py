"""The V-Rex accelerator device model: LXE + DRE + KVMU (paper Sec. V)."""

from __future__ import annotations

from repro.hw.compute import ComputeEngine, KernelCost
from repro.hw.dre.hcu import HCUModel, HCUWork
from repro.hw.dre.kvmu import KVFetchWork, KVMUModel
from repro.hw.dre.wtu import WTUModel, WTUWork
from repro.hw.gpu import pcie_config_for
from repro.hw.memory.pcie import PCIeLink
from repro.hw.memory.ssd import SSDModel
from repro.hw.specs import DeviceSpec, VRexCoreConfig


class VRexAccelerator:
    """Device model combining the LLM execution engine and the DRE.

    The LXE (LPU-style DPE + VPE) executes the dense transformer kernels and
    the two matrix pieces of ReSV (hash-bit generation, Q x K_cluster^T);
    the DRE executes the irregular pieces (Hamming clustering in the HCU,
    WiCSum thresholding in the WTU) *concurrently* with the LXE, and the
    KVMU drives cluster-contiguous prefetches over PCIe.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        core: VRexCoreConfig | None = None,
        cluster_mapping: bool = True,
    ):
        if spec.kind != "vrex":
            raise ValueError("VRexAccelerator requires a V-Rex DeviceSpec")
        self.spec = spec
        self.core = core or VRexCoreConfig()
        self.lxe = ComputeEngine(
            spec.peak_tflops,
            spec.memory_bandwidth_gbps,
            utilization=spec.dense_utilization,
            bandwidth_utilization=0.85,
        )
        self.hcu = HCUModel(self.core, num_cores=spec.num_cores)
        self.wtu = WTUModel(self.core, num_cores=spec.num_cores)
        self.link = PCIeLink(pcie_config_for(spec))
        self.ssd = SSDModel()
        self.kvmu = KVMUModel(self.link, self.ssd, cluster_mapping=cluster_mapping)
        self.cluster_mapping = cluster_mapping

    def dense_time_s(self, cost: KernelCost) -> float:
        """LXE execution time of dense kernels."""
        return self.lxe.time_s(cost)

    def prediction_time_s(self, hcu_work: HCUWork, wtu_work: WTUWork) -> float:
        """DRE time for one layer's KV prediction (clustering + thresholding).

        The HCU and WTU operate back-to-back within a layer but in parallel
        with the LXE's attention/FFN, so the caller decides how much of this
        time is actually exposed.
        """
        return self.hcu.time_s(hcu_work) + self.wtu.time_s(wtu_work)

    def fetch_time_s(self, work: KVFetchWork) -> float:
        """KVMU-managed fetch of selected KV entries."""
        return self.kvmu.fetch_time_s(work)
