"""Hardware specifications (paper Table I) and V-Rex core configuration.

All performance-plane experiments read device characteristics from the
dataclasses defined here.  The GPU entries replicate the paper's Table I;
the V-Rex entries are derived from the per-core microarchitecture
parameters (Sec. VI-A): one core runs a 64x64 MAC-tree dot-product engine at
0.8 V / 800 MHz, so eight cores deliver ~53 TFLOPS and forty-eight ~319.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

GiB = 1024**3
GB = 1e9


@dataclass(frozen=True)
class VRexCoreConfig:
    """Microarchitectural parameters of a single V-Rex core (Sec. VI-A)."""

    n_dpe_h: int = 64
    n_dpe_w: int = 64
    n_vpe_h: int = 1
    n_vpe_w: int = 64
    n_hcu_h: int = 1
    n_hcu_w: int = 16
    n_wtu_h: int = 1
    n_wtu_w: int = 16
    frequency_hz: float = 800e6
    lxe_sram_kib: float = 384.0
    dre_sram_kib: float = 20.125
    # System-integration overrides.  ``None`` keeps the Table I defaults
    # derived from the core count (LPDDR5/PCIe3x4 at <=8 cores, HBM2e/
    # PCIe4x16 above); a non-default deployment sets them here so every
    # power/energy path sees the same figures.
    dram_w: float | None = None
    pcie_lanes: int | None = None

    @property
    def dpe_macs_per_cycle(self) -> int:
        """MAC operations per cycle in the dot-product engine."""
        return self.n_dpe_h * self.n_dpe_w

    @property
    def peak_tflops(self) -> float:
        """Peak BF16 throughput of one core (2 ops per MAC)."""
        return 2.0 * self.dpe_macs_per_cycle * self.frequency_hz / 1e12

    @property
    def hcu_bits_per_cycle(self) -> int:
        """Hash bits the HCU can XOR-and-accumulate per cycle."""
        return self.n_hcu_h * self.n_hcu_w

    @property
    def wtu_elements_per_cycle(self) -> int:
        """Score elements the WTU bucket sorters process per cycle."""
        return self.n_wtu_h * self.n_wtu_w


@dataclass(frozen=True)
class DeviceSpec:
    """A compute device with its memory system (GPU or V-Rex instance)."""

    name: str
    peak_tflops: float
    memory_bandwidth_gbps: float
    memory_capacity_gib: float
    pcie_bandwidth_gbps: float
    power_w: float
    kind: str = "gpu"  # "gpu" or "vrex"
    num_cores: int = 0
    offload_target: str = "cpu"  # where the full KV cache lives: "cpu" or "ssd"
    dense_utilization: float = 0.40
    irregular_utilization: float = 0.05
    pcie_efficiency: float = 0.60

    def replace(self, **changes) -> "DeviceSpec":
        return dataclasses.replace(self, **changes)

    @property
    def memory_capacity_bytes(self) -> float:
        return self.memory_capacity_gib * GiB


def vrex_device(num_cores: int, core: VRexCoreConfig | None = None) -> DeviceSpec:
    """Build a V-Rex device spec from a core count (Table I edge/server rows)."""
    core = core or VRexCoreConfig()
    peak = num_cores * core.peak_tflops
    if num_cores <= 8:
        return DeviceSpec(
            name=f"V-Rex{num_cores}",
            peak_tflops=peak,
            memory_bandwidth_gbps=204.8,
            memory_capacity_gib=32.0,
            pcie_bandwidth_gbps=4.0,
            power_w=35.0,
            kind="vrex",
            num_cores=num_cores,
            offload_target="ssd",
            dense_utilization=0.78,
            irregular_utilization=0.78,
            pcie_efficiency=0.95,
        )
    return DeviceSpec(
        name=f"V-Rex{num_cores}",
        peak_tflops=peak,
        memory_bandwidth_gbps=1935.0,
        memory_capacity_gib=80.0,
        pcie_bandwidth_gbps=32.0,
        power_w=203.68,
        kind="vrex",
        num_cores=num_cores,
        offload_target="cpu",
        dense_utilization=0.78,
        irregular_utilization=0.78,
        pcie_efficiency=0.95,
    )


#: NVIDIA Jetson AGX Orin (Table I edge column).
AGX_ORIN = DeviceSpec(
    name="AGX Orin",
    peak_tflops=54.0,
    memory_bandwidth_gbps=204.8,
    memory_capacity_gib=32.0,
    pcie_bandwidth_gbps=4.0,
    power_w=40.0,
    kind="gpu",
    offload_target="ssd",
    dense_utilization=0.40,
    irregular_utilization=0.05,
    pcie_efficiency=0.60,
)

#: NVIDIA A100 80 GB (Table I server column).
A100 = DeviceSpec(
    name="A100",
    peak_tflops=312.0,
    memory_bandwidth_gbps=1935.0,
    memory_capacity_gib=80.0,
    pcie_bandwidth_gbps=32.0,
    power_w=300.0,
    kind="gpu",
    offload_target="cpu",
    dense_utilization=0.40,
    irregular_utilization=0.05,
    pcie_efficiency=0.60,
)

#: V-Rex with 8 cores (edge deployment) and 48 cores (server deployment).
VREX8 = vrex_device(8)
VREX48 = vrex_device(48)


def table_i_rows() -> list[dict]:
    """Rows of paper Table I for reporting."""
    rows = []
    for device in (AGX_ORIN, VREX8, A100, VREX48):
        rows.append(
            {
                "name": device.name,
                "peak_tflops": round(device.peak_tflops, 1),
                "memory_bandwidth_gbps": device.memory_bandwidth_gbps,
                "memory_capacity_gib": device.memory_capacity_gib,
                "pcie_bandwidth_gbps": device.pcie_bandwidth_gbps,
                "power_w": device.power_w,
                "num_cores": device.num_cores,
            }
        )
    return rows
