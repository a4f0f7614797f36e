"""Hardware performance plane: device specs, memory system, DRE, energy."""

from repro.hw.accelerator import VRexAccelerator
from repro.hw.compute import ComputeEngine, KernelCost
from repro.hw.energy import (
    A100_AREA_MM2,
    AGX_ORIN_AREA_MM2,
    TABLE_III,
    ComponentAreaPower,
    CoreAreaPower,
    EnergyModel,
    SystemPowerBreakdown,
    core_area_power,
    vrex_chip_area_mm2,
)
from repro.hw.event import Timeline, TimelineTask
from repro.hw.gpu import GPUDevice, pcie_config_for
from repro.hw.interconnect import (
    ETHERNET_100G,
    FREE_INTERCONNECT,
    NVLINK4,
    PCIE5_SWITCH,
    InterconnectLink,
    InterconnectSpec,
    ShardTransfer,
)
from repro.hw.roofline import RooflinePoint, attainable_tflops
from repro.hw.specs import (
    A100,
    AGX_ORIN,
    VREX8,
    VREX48,
    DeviceSpec,
    VRexCoreConfig,
    table_i_rows,
    vrex_device,
)

__all__ = [
    "A100",
    "A100_AREA_MM2",
    "AGX_ORIN",
    "AGX_ORIN_AREA_MM2",
    "ComponentAreaPower",
    "ComputeEngine",
    "CoreAreaPower",
    "DeviceSpec",
    "ETHERNET_100G",
    "EnergyModel",
    "FREE_INTERCONNECT",
    "GPUDevice",
    "InterconnectLink",
    "InterconnectSpec",
    "KernelCost",
    "NVLINK4",
    "PCIE5_SWITCH",
    "RooflinePoint",
    "ShardTransfer",
    "SystemPowerBreakdown",
    "TABLE_III",
    "Timeline",
    "TimelineTask",
    "VREX48",
    "VREX8",
    "VRexAccelerator",
    "VRexCoreConfig",
    "attainable_tflops",
    "core_area_power",
    "pcie_config_for",
    "table_i_rows",
    "vrex_chip_area_mm2",
    "vrex_device",
]
