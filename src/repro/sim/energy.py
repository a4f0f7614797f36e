"""Run-level energy accounting for the event-driven serving stack.

The static figures (`fig13`, `table03`) price energy from *analytic*
latencies; a serving run knows more — how long each resource was actually
busy, how much idle time contention created, how many bytes really moved.
This module turns one finished schedule into a per-resource busy/idle
energy report:

* **LXE / DRE** (V-Rex Table III groups) are always-on: they draw their
  group power for the whole run window, split into busy energy (while
  delivering vision/dense/prediction work) and idle energy (the rest).
  LXE busy time is the dense work delivered to served jobs (a conserved
  quantity, identical whether the compute plane was private or
  timesliced); DRE and PCIe busy times are the O(1) ``busy_s()``
  accumulators maintained in grant order by both engines.
* **DRAM** draws its static background power for the whole window plus
  per-byte access energy (``dram_pj_per_byte``) for the traffic the
  served jobs generated — its "busy" energy is traffic-proportional, not
  residency-based, so its ``busy_s`` is reported as 0.0.
* **PCIe / SSD** draw *full-load* power only while the link is busy
  (the duty-cycle-derated watts of ``vrex_system_power`` are time
  averages and must never be charged per busy second).
* **GPU devices** are charged their measured power envelope for the
  whole window — the same convention as
  :meth:`~repro.hw.energy.EnergyModel.inference_energy_j`, which this
  report reproduces exactly in the uncontended single-stream case.

Idle energy is computed by subtraction (``total - busy``), so each row
telescopes exactly and the report's total equals the sum of its rows bit
for bit — the invariant :func:`assert_conserved` (armed under
``REPRO_SANITIZE=1``) checks, alongside non-negativity and
busy-within-window bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.config import require_number
from repro.devtools.sanitizer import ENERGY_CONSERVATION, SanitizerError, sanitize_enabled
from repro.hw.energy import EnergyModel
from repro.sim.jobtable import KIND_NAMES

#: Joules per kilowatt-hour, for the $/1M-queries conversion.
J_PER_KWH = 3.6e6


@dataclass
class EnergyInputs:
    """What a scheduler run must retain for energy accounting.

    ``priced`` is the run's per-(stream, kind) demand table (the same
    object both engines scheduled from); ``dre_busy_s`` and
    ``link_busy_s`` are the in-run O(1) busy accumulators, captured in
    grant order — both engines dispatch the identical event sequence, so
    the sums are bit-identical across them.
    """

    device: object  # DeviceSpec
    priced: list  # list[dict[str, _PricedStage]]
    dre_busy_s: float = 0.0
    link_busy_s: float = 0.0


@dataclass(frozen=True)
class ResourceEnergy:
    """Busy/idle energy of one resource over the run window."""

    name: str
    busy_power_w: float
    busy_s: float
    window_s: float
    busy_j: float
    idle_j: float

    @property
    def total_j(self) -> float:
        return self.busy_j + self.idle_j

    @property
    def utilization(self) -> float:
        """Busy fraction of the window (0.0 for an empty window)."""
        if self.window_s <= 0:
            return 0.0
        return min(1.0, self.busy_s / self.window_s)


@dataclass(frozen=True)
class EnergyReport:
    """Per-resource energy of one serving run, with derived unit costs.

    ``served`` counts every non-dropped job of any kind — a "query" in
    the $/1M-queries figure is one served job (frame, question prefill
    or generation token step).  ``total_j`` is the left-to-right sum of
    the resource rows; :func:`assert_conserved` pins it against an
    independent summation.
    """

    system: str
    window_s: float
    resources: tuple[ResourceEnergy, ...]
    served: int
    tokens: float
    flops: float
    dram_bytes: float
    usd_per_kwh: float
    #: per-bank warm-byte residency integrals (byte-seconds), when the
    #: run carried a sharded memory plane; informational — bank energy
    #: is covered by the DRAM row.
    bank_byte_s: tuple[float, ...] = field(default_factory=tuple)

    @property
    def total_j(self) -> float:
        total = 0.0
        for row in self.resources:
            total += row.busy_j + row.idle_j
        return total

    @property
    def busy_j(self) -> float:
        total = 0.0
        for row in self.resources:
            total += row.busy_j
        return total

    @property
    def idle_j(self) -> float:
        total = 0.0
        for row in self.resources:
            total += row.idle_j
        return total

    @property
    def j_per_token(self) -> float:
        if self.tokens <= 0:
            return math.inf
        return self.total_j / self.tokens

    @property
    def j_per_query(self) -> float:
        if self.served <= 0:
            return math.inf
        return self.total_j / self.served

    @property
    def usd_per_1m_queries(self) -> float:
        if self.served <= 0:
            return math.inf
        return self.j_per_query / J_PER_KWH * self.usd_per_kwh * 1e6

    @property
    def gops_per_w(self) -> float:
        return EnergyModel.efficiency_gops_per_w(self.flops, self.total_j)


def _window_s(result) -> float:
    """Last activity instant of the run (dropped jobs included: a drop
    decision is still an event inside the window)."""
    finish = result.columns.finish
    return float(finish.max()) if finish.size else 0.0


def _require_window(window_s, span_s: float) -> float:
    """``window_s`` as a float, or a ``ValueError`` naming it when it is
    negative, NaN or shorter than the run's span."""
    window = require_number("window_s", float(window_s))
    if window < span_s:
        raise ValueError(f"window_s must cover the run's span of {span_s} s, got {window}")
    return window


def bank_occupancy_integral(
    trajectory, window_s: float
) -> tuple[float, ...]:
    """Per-bank warm-byte residency integral (byte-seconds) over the run.

    ``trajectory`` is ``ScheduleResult.bank_occupancy_trajectory`` —
    ``(time, per-bank bytes)`` at every occupancy change; each segment
    holds until the next change (or the window end).
    """
    if not trajectory:
        return ()
    num_banks = len(trajectory[0][1])
    integrals = [0.0] * num_banks
    for index, (time_s, occupancy) in enumerate(trajectory):
        end_s = trajectory[index + 1][0] if index + 1 < len(trajectory) else window_s
        span = end_s - time_s
        if span <= 0:
            continue
        for bank in range(num_banks):
            integrals[bank] += occupancy[bank] * span
    return tuple(integrals)


def schedule_energy(
    result,
    inputs: EnergyInputs,
    model: EnergyModel | None = None,
    window_s: float | None = None,
    name_prefix: str = "",
) -> EnergyReport:
    """Price one finished schedule's energy from its residency accounting.

    ``window_s`` overrides the accounting window (a fleet rollup prices
    every device over the fleet-wide window, so a device idling after
    its last local job still burns static power); a window shorter than
    the run's own span raises ``ValueError``.
    """
    model = model or EnergyModel()
    device = inputs.device
    span = _window_s(result)
    window = span if window_s is None else _require_window(window_s, span)

    # served jobs' (tokens, flops, DRAM bytes, LXE busy) in sorted record
    # order, summed by a strict left fold (``np.add.accumulate``, not the
    # pairwise ``np.sum``): equal columns give bit-identical sums
    demands = []  # per (stream, kind code)
    for stages in inputs.priced:
        for kind in KIND_NAMES:
            s = stages[kind]
            busy = s.vision_s + s.compute_s + (0.0 if s.on_dre else s.prediction_s)
            demands.append((s.tokens, s.flops, s.dram_bytes, busy) if s.active else (0,) * 4)
    columns = result.columns
    served_mask = ~columns.dropped
    code = columns.stream[served_mask] * len(KIND_NAMES) + columns.kind[served_mask]
    jobs = np.array(demands, dtype=float)[code]
    totals = np.add.accumulate(np.vstack((np.zeros(4), jobs)))[-1]
    tokens, flops, dram_bytes, lxe_busy = totals.tolist()

    rows: list[ResourceEnergy] = []

    def always_on(name: str, power_w: float, busy_s: float) -> None:
        clamped = busy_s if busy_s <= window else window
        total_j = power_w * window
        busy_j = power_w * clamped
        rows.append(
            ResourceEnergy(
                name=name_prefix + name,
                busy_power_w=power_w,
                busy_s=busy_s,
                window_s=window,
                busy_j=busy_j,
                idle_j=total_j - busy_j,
            )
        )

    def busy_only(name: str, power_w: float, busy_s: float) -> None:
        rows.append(
            ResourceEnergy(
                name=name_prefix + name,
                busy_power_w=power_w,
                busy_s=busy_s,
                window_s=window,
                busy_j=power_w * busy_s,
                idle_j=0.0,
            )
        )

    if device.kind == "vrex":
        cores = device.num_cores
        always_on("lxe", model.group_power_w(cores, "LXE"), lxe_busy)
        always_on("dre", model.group_power_w(cores, "DRE"), inputs.dre_busy_s)
        # DRAM: static background draw over the whole window plus per-byte
        # access energy; its "busy" energy is traffic, not residency.
        rows.append(
            ResourceEnergy(
                name=name_prefix + "dram",
                busy_power_w=model.dram_static_w(cores),
                busy_s=0.0,
                window_s=window,
                busy_j=dram_bytes * model.dram_pj_per_byte * 1e-12,
                idle_j=model.dram_static_w(cores) * window,
            )
        )
        busy_only("pcie", model.pcie_full_load_w(cores), inputs.link_busy_s)
        if device.offload_target == "ssd":
            # The SSD streams cold KV into the link fetch, so it is active
            # exactly while the link is.
            busy_only("ssd", model.ssd_full_load_w(cores), inputs.link_busy_s)
    else:
        # GPU: the measured power envelope covers the whole board; charge
        # it always-on with no idle split (that is what tegrastats /
        # nvidia-smi measurements capture).
        always_on("device", device.power_w, window)

    trajectory = getattr(result, "bank_occupancy_trajectory", None) or ()
    report = EnergyReport(
        system=getattr(result, "system", device.name),
        window_s=window,
        resources=tuple(rows),
        served=len(jobs),
        tokens=tokens,
        flops=flops,
        dram_bytes=dram_bytes,
        usd_per_kwh=model.usd_per_kwh,
        bank_byte_s=bank_occupancy_integral(trajectory, window),
    )
    if sanitize_enabled():
        assert_conserved(report)
    return report


def merge_reports(
    reports, extra_rows=(), system: str = "fleet", window_s: float | None = None
) -> EnergyReport:
    """Concatenate per-device reports (plus e.g. an interconnect row)
    into one fleet-level report.

    Rows are kept verbatim in device order, so the merged total is the
    left-to-right sum of every constituent row — conservation survives
    the merge by construction.
    """
    reports = list(reports)
    rows: list[ResourceEnergy] = []
    served = 0
    tokens = 0.0
    flops = 0.0
    dram_bytes = 0.0
    usd_per_kwh = reports[0].usd_per_kwh if reports else EnergyModel().usd_per_kwh
    window = window_s if window_s is not None else 0.0
    bank_byte_s: list[float] = []
    for report in reports:
        rows.extend(report.resources)
        served += report.served
        tokens += report.tokens
        flops += report.flops
        dram_bytes += report.dram_bytes
        if window_s is None:
            window = max(window, report.window_s)
        bank_byte_s.extend(report.bank_byte_s)
    rows.extend(extra_rows)
    return EnergyReport(
        system=system,
        window_s=window,
        resources=tuple(rows),
        served=served,
        tokens=tokens,
        flops=flops,
        dram_bytes=dram_bytes,
        usd_per_kwh=usd_per_kwh,
        bank_byte_s=tuple(bank_byte_s),
    )


def assert_conserved(report: EnergyReport) -> None:
    """Sanitizer check: the report's energy decomposition telescopes.

    * every row's busy/idle energies and busy time are non-negative and
      finite;
    * a residency row's busy energy never exceeds what its power could
      deliver over the window (within float slack);
    * the report total equals an independent ``math.fsum`` over the same
      rows to ≤1e-12 relative — a row bypassing the accounting (or an
      idle-by-subtraction underflow) shows up here, not as a silently
      wrong $/1M-queries figure.
    """
    for row in report.resources:
        if not (
            math.isfinite(row.busy_j)
            and math.isfinite(row.idle_j)
            and math.isfinite(row.busy_s)
        ):
            raise SanitizerError(
                ENERGY_CONSERVATION,
                f"resource {row.name!r}: non-finite energy accounting "
                f"(busy {row.busy_j} J, idle {row.idle_j} J, busy {row.busy_s} s)",
            )
        if row.busy_j < 0 or row.idle_j < 0 or row.busy_s < 0:
            raise SanitizerError(
                ENERGY_CONSERVATION,
                f"resource {row.name!r}: negative energy accounting "
                f"(busy {row.busy_j} J, idle {row.idle_j} J, busy {row.busy_s} s)",
            )
        ceiling = row.busy_power_w * row.window_s
        if row.busy_power_w > 0 and row.busy_j > ceiling * (1.0 + 1e-9) + 1e-12:
            raise SanitizerError(
                ENERGY_CONSERVATION,
                f"resource {row.name!r}: busy energy {row.busy_j} J exceeds "
                f"the window ceiling {ceiling} J "
                f"({row.busy_power_w} W x {row.window_s} s)",
            )
    total = report.total_j
    independent = math.fsum(row.busy_j + row.idle_j for row in report.resources)
    scale = max(abs(total), abs(independent), 1e-30)
    if abs(total - independent) > 1e-12 * scale:
        raise SanitizerError(
            ENERGY_CONSERVATION,
            f"energy conservation violated: rows sum to {independent} J "
            f"but the report total is {total} J",
        )
    if report.total_j < 0:
        raise SanitizerError(
            ENERGY_CONSERVATION, f"negative total energy: {report.total_j} J"
        )
