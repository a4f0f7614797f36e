"""Area, power and energy models (paper Table III and Sec. VI-A).

One V-Rex core was synthesised at 14 nm, 0.8 V, 800 MHz; Table III reports
its area/power breakdown, reproduced here as constants.  System power adds
DRAM, PCIe and SSD; the paper quotes ~35 W for V-Rex8 (vs 40 W AGX Orin) and
~203.68 W for V-Rex48 (vs 300 W A100).  GPU energy is modelled as the
device's measured power envelope times latency, matching how the paper
collected nvidia-smi / tegrastats numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from repro.hw.specs import DeviceSpec, VRexCoreConfig


@dataclass(frozen=True)
class ComponentAreaPower:
    """Area/power of one hardware component of a single V-Rex core."""

    name: str
    area_mm2: float
    power_mw: float
    group: str


#: Paper Table III — breakdown for a single V-Rex core.
TABLE_III = (
    ComponentAreaPower("DPE", 1.37, 2311.39, "LXE"),
    ComponentAreaPower("VPE", 0.14, 122.06, "LXE"),
    ComponentAreaPower("On-chip Memory", 0.34, 118.94, "LXE"),
    ComponentAreaPower("KVPU - WTU", 0.02, 39.04, "DRE"),
    ComponentAreaPower("KVPU - HCU", 0.01, 2.99, "DRE"),
    ComponentAreaPower("KVMU", 0.01, 15.01, "DRE"),
)

#: Reference GPU die areas used for the comparison in Sec. VI-F.
AGX_ORIN_AREA_MM2 = 200.0
A100_AREA_MM2 = 826.0


@dataclass(frozen=True)
class CoreAreaPower:
    """Aggregated area/power of one core and of the DRE portion."""

    total_area_mm2: float
    total_power_mw: float
    dre_area_mm2: float
    dre_power_mw: float

    @property
    def dre_area_fraction(self) -> float:
        return self.dre_area_mm2 / self.total_area_mm2

    @property
    def dre_power_fraction(self) -> float:
        return self.dre_power_mw / self.total_power_mw


def core_area_power() -> CoreAreaPower:
    """Aggregate Table III into core totals and DRE share."""
    total_area = reduce(add, (c.area_mm2 for c in TABLE_III), 0.0)
    total_power = reduce(add, (c.power_mw for c in TABLE_III), 0.0)
    dre_area = reduce(add, (c.area_mm2 for c in TABLE_III if c.group == "DRE"), 0.0)
    dre_power = reduce(add, (c.power_mw for c in TABLE_III if c.group == "DRE"), 0.0)
    return CoreAreaPower(total_area, total_power, dre_area, dre_power)


def vrex_chip_area_mm2(num_cores: int) -> float:
    """Total silicon area of a V-Rex instance."""
    return core_area_power().total_area_mm2 * num_cores


@dataclass(frozen=True)
class SystemPowerBreakdown:
    """Average system power of a device during inference."""

    compute_w: float
    dram_w: float
    pcie_w: float
    storage_w: float

    @property
    def total_w(self) -> float:
        return self.compute_w + self.dram_w + self.pcie_w + self.storage_w


class EnergyModel:
    """Converts latencies and traffic into energy and efficiency numbers."""

    def __init__(self, core: VRexCoreConfig | None = None):
        self.core = core or VRexCoreConfig()
        self.dram_pj_per_byte = 4.0
        self.pcie_w_per_lane = 3.0
        self.ssd_active_w = 4.1
        #: Blended industrial electricity price used for $/1M-queries.
        self.usd_per_kwh = 0.12

    def pcie_lanes(self, num_cores: int) -> int:
        """Link width of a V-Rex deployment (core-config override wins)."""
        if self.core.pcie_lanes is not None:
            return self.core.pcie_lanes
        return 4 if num_cores <= 8 else 16

    def dram_static_w(self, num_cores: int) -> float:
        """Background DRAM power of a V-Rex deployment (override wins)."""
        if self.core.dram_w is not None:
            return self.core.dram_w
        return 5.0 if num_cores <= 8 else 45.0

    def group_power_w(self, num_cores: int, group: str) -> float:
        """Always-on power of one Table III group ("LXE" or "DRE") scaled
        to the deployment's core count."""
        group_mw = reduce(add, (c.power_mw for c in TABLE_III if c.group == group), 0.0)
        return group_mw / 1000.0 * num_cores

    def pcie_full_load_w(self, num_cores: int) -> float:
        """Full-load (not duty-cycle-averaged) PCIe link power."""
        return self.pcie_w_per_lane * self.pcie_lanes(num_cores)

    def ssd_full_load_w(self, num_cores: int) -> float:
        """Full-load SSD power; only edge deployments (<=8 cores) carry
        an SSD offload target."""
        return self.ssd_active_w if num_cores <= 8 else 0.0

    def io_full_load_w(self, num_cores: int) -> float:
        """Full-load power of the retrieval IO path (PCIe link + SSD).

        This is the rate to charge against *busy seconds*; the derated
        figures in :meth:`vrex_system_power` are time averages and must
        never be multiplied by a busy-time fraction again.
        """
        return self.pcie_full_load_w(num_cores) + self.ssd_full_load_w(num_cores)

    def vrex_system_power(self, num_cores: int, dram_w: float | None = None) -> SystemPowerBreakdown:
        """Average system power of a V-Rex deployment.

        The defaults land near the paper's quoted 35 W (V-Rex8 with LPDDR5,
        PCIe3 x4 and an M.2 SSD) and 203.68 W (V-Rex48 with HBM2e and
        PCIe4 x16 against CPU DRAM).
        """
        cores_w = core_area_power().total_power_mw / 1000.0 * num_cores
        if dram_w is None:
            dram_w = self.dram_static_w(num_cores)
        # The link and the SSD are busy only during retrieval bursts, so the
        # time-averaged contribution is roughly half of their full-load power.
        pcie_w = self.pcie_full_load_w(num_cores) * 0.5
        storage_w = self.ssd_full_load_w(num_cores) * 0.7
        return SystemPowerBreakdown(
            compute_w=cores_w, dram_w=dram_w, pcie_w=pcie_w, storage_w=storage_w
        )

    def inference_energy_j(
        self,
        device: DeviceSpec,
        latency_s: float,
        pcie_busy_s: float = 0.0,
        dram_bytes: float = 0.0,
    ) -> float:
        """Energy of one inference step.

        GPUs are charged their full power envelope for the whole latency
        (that is what tegrastats/nvidia-smi measurements capture); V-Rex is
        charged its compute+DRAM baseline for the whole latency plus the
        *full-load* PCIe/SSD power only while the link is actually busy,
        plus explicit DRAM access energy.  The duty-cycle-derated IO watts
        from :meth:`vrex_system_power` are already time averages — charging
        them per busy second would apply the derate twice.
        """
        if device.kind != "vrex":
            return device.power_w * latency_s
        breakdown = self.vrex_system_power(device.num_cores)
        io_power = self.io_full_load_w(device.num_cores)
        baseline = breakdown.compute_w + breakdown.dram_w
        return (
            baseline * latency_s
            + io_power * min(pcie_busy_s, latency_s)
            + dram_bytes * self.dram_pj_per_byte * 1e-12
        )

    @staticmethod
    def efficiency_gops_per_w(total_ops: float, energy_j: float) -> float:
        """Energy efficiency in GOPS/W (= effective giga-ops per joule per second).

        Zero energy means "nothing measured" and maps to 0.0 so sweep
        tables stay finite; callers filtering on it must log what they
        drop.  Negative energy is always an accounting bug and raises.
        """
        if energy_j < 0:
            raise ValueError(f"negative energy is an accounting bug: {energy_j!r} J")
        if energy_j == 0.0:  # simlint: exact — "no data" sentinel, set literally
            return 0.0
        return total_ops / energy_j / 1e9
