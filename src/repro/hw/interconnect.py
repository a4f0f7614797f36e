"""Priced inter-device interconnect for the fleet plane.

One accelerator's KV shards live in its own banks
(:class:`~repro.hw.memory.sharding.ShardedKVHierarchy`); moving a session
to another device means shipping its whole shard footprint — hot window,
offloaded KV shards and HC-table signatures — across the link joining the
devices.  :class:`InterconnectLink` models that link as a FCFS
single-server queue (the same discipline as
:class:`~repro.hw.memory.pcie.PCIeLinkQueue`: concurrent migrations
serialize, a transfer that arrives while the link is busy waits), with
O(1) per-transfer byte and busy-time accounting and a sanitizer
conservation check over both.

:data:`FREE_INTERCONNECT` (infinite bandwidth, zero latency) is the
degenerate spec the fleet plane's M=1 bit-exactness guarantee rides on:
every transfer takes exactly ``0.0`` seconds, so a single-device fleet
can never perturb the schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.devtools.sanitizer import RESOURCE_BALANCE, SanitizerError
from repro.hw.event import QueuedService, ResourceQueue


@dataclass(frozen=True)
class InterconnectSpec:
    """Bandwidth/latency parameters of one inter-device link.

    ``bandwidth_gbps`` follows the PCIe model's convention (GB/s as
    ``×1e9`` bytes per second); ``efficiency`` derates it for protocol
    overhead.  Shard migrations move whole per-bank shards — large
    contiguous transfers — so a single flat efficiency stands in for the
    PCIe model's granularity curve.

    ``active_power_w`` is drawn while the link is moving bytes (charged
    against ``busy_s``); ``pj_per_byte`` is the per-byte switching
    energy.  Both default to 0.0 so the free interconnect — and every
    spec built before the energy plane — stays energy-neutral.
    """

    name: str
    bandwidth_gbps: float
    latency_us: float = 5.0
    efficiency: float = 0.9
    active_power_w: float = 0.0
    pj_per_byte: float = 0.0

    def __post_init__(self) -> None:
        if not self.bandwidth_gbps > 0:
            raise ValueError(
                f"bandwidth_gbps must be positive, got {self.bandwidth_gbps}"
            )
        if self.latency_us < 0:
            raise ValueError(f"latency_us must be non-negative, got {self.latency_us}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in (0, 1], got {self.efficiency}")
        if self.active_power_w < 0:
            raise ValueError(
                f"active_power_w must be non-negative, got {self.active_power_w}"
            )
        if self.pj_per_byte < 0:
            raise ValueError(f"pj_per_byte must be non-negative, got {self.pj_per_byte}")

    def transfer_time_s(self, num_bytes: float) -> float:
        """Seconds to move ``num_bytes`` device-to-device."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        occupancy = num_bytes / (self.bandwidth_gbps * 1e9 * self.efficiency)
        if occupancy == 0.0:  # simlint: exact — infinite-bandwidth spec divides to a literal 0.0
            return self.latency_us * 1e-6
        return self.latency_us * 1e-6 + occupancy


#: The degenerate free link: zero latency, infinite bandwidth.  Every
#: transfer completes instantly, so a fleet run over it prices migration
#: placement without migration *cost* — and M=1 stays bit-exact.
FREE_INTERCONNECT = InterconnectSpec(
    name="free", bandwidth_gbps=math.inf, latency_us=0.0, efficiency=1.0
)

#: NVLink-class device-to-device fabric (per-direction).  ~1 pJ/bit
#: SerDes energy plus the PHY's active envelope.
NVLINK4 = InterconnectSpec(
    name="NVLink4", bandwidth_gbps=450.0, latency_us=2.0,
    active_power_w=12.0, pj_per_byte=8.0,
)

#: PCIe-switch peer-to-peer path between co-located accelerators.
PCIE5_SWITCH = InterconnectSpec(
    name="PCIe5 switch", bandwidth_gbps=64.0, latency_us=5.0,
    active_power_w=9.0, pj_per_byte=16.0,
)

#: Datacenter Ethernet between serving hosts (RDMA-style latency).
ETHERNET_100G = InterconnectSpec(
    name="100G Ethernet", bandwidth_gbps=12.5, latency_us=50.0,
    active_power_w=18.0, pj_per_byte=40.0,
)


@dataclass(frozen=True)
class ShardTransfer:
    """One session migration's trip across the interconnect."""

    session_id: int
    src_device: int
    dst_device: int
    num_bytes: float
    service: QueuedService

    @property
    def start_s(self) -> float:
        return self.service.start_s

    @property
    def finish_s(self) -> float:
        return self.service.finish_s


class InterconnectLink(ResourceQueue):
    """The shared inter-device link serving shard migrations FCFS.

    Each migration holds the link for its full transfer time; migrations
    decided while the link is busy queue behind it.  ``total_bytes`` and
    ``busy_s()`` are O(1) accumulators (a router may poll them per
    decision); with ``record=True`` (the default) every transfer is
    retained in :attr:`transfers` and :meth:`assert_conserved` pins the
    accumulators to that list bit for bit (both sides accumulate
    left-to-right in ship order).
    """

    def __init__(
        self,
        spec: InterconnectSpec = FREE_INTERCONNECT,
        record: bool = True,
    ):
        super().__init__(name=f"interconnect:{spec.name}")
        self.spec = spec
        self.record = record
        self.transfers: list[ShardTransfer] = []
        self.total_bytes = 0.0
        self.num_transfers = 0
        self._order_floor_s = 0.0

    def ship(
        self,
        arrival_s: float,
        num_bytes: float,
        session_id: int = -1,
        src_device: int = -1,
        dst_device: int = -1,
        not_before_s: float = 0.0,
    ) -> ShardTransfer:
        """Admit one session's shard transfer; returns its scheduled trip.

        ``not_before_s`` pins the transfer's release (shards still being
        written on the source device cannot leave before they exist).
        Concurrent transfers keep **ship order**: a pinned transfer
        head-of-line blocks every transfer decided after it, so the link
        serves migrations in exactly the order the router decided them —
        no transfer overtakes an earlier decision, and the FCFS
        arrival-order invariant the sanitizer enforces holds by
        construction.
        """
        release_s = max(arrival_s, not_before_s, self._order_floor_s)
        self._order_floor_s = release_s
        service = self.enqueue(release_s, self.spec.transfer_time_s(num_bytes))
        transfer = ShardTransfer(
            session_id=session_id,
            src_device=src_device,
            dst_device=dst_device,
            num_bytes=float(num_bytes),
            service=service,
        )
        self.total_bytes += transfer.num_bytes
        self.num_transfers += 1
        if self.record:
            self.transfers.append(transfer)
        return transfer

    def transfer_energy_j(self) -> float:
        """Energy charged to shard movement on this link so far (O(1)).

        Active link power over the busy seconds plus per-byte switching
        energy; 0.0 over the free interconnect by construction.
        """
        return (
            self.spec.active_power_w * self.busy_s()
            + self.spec.pj_per_byte * self.total_bytes * 1e-12
        )

    def assert_conserved(self) -> None:
        """Sanitizer check: accumulators telescope to the retained transfers.

        The per-transfer retention list and the O(1) accumulators are
        written by the same ``ship`` calls in the same order, so summing
        the list left-to-right must reproduce the accumulators *exactly*
        — any drift means a transfer bypassed the accounting.  Requires
        ``record=True`` for the byte/busy equality; the count check runs
        always.
        """
        if self.record:
            if len(self.transfers) != self.num_transfers:
                raise SanitizerError(
                    RESOURCE_BALANCE,
                    f"interconnect {self.name!r}: {self.num_transfers} transfer(s) "
                    f"accounted but {len(self.transfers)} retained",
                )
            bytes_sum = 0.0
            busy_sum = 0.0
            for transfer in self.transfers:
                bytes_sum += transfer.num_bytes
                busy_sum += transfer.service.service_s
            bytes_drift = bytes_sum != self.total_bytes  # simlint: exact — same accumulation order
            busy_drift = busy_sum != self._busy_total_s  # simlint: exact — same accumulation order
            if bytes_drift or busy_drift:
                raise SanitizerError(
                    RESOURCE_BALANCE,
                    f"interconnect {self.name!r}: byte/busy conservation violated "
                    f"(accumulated {self.total_bytes} B / {self._busy_total_s} s, "
                    f"retained transfers sum to {bytes_sum} B / {busy_sum} s)",
                )
        elif self.num_transfers < 0:  # pragma: no cover — counter corruption guard
            raise SanitizerError(
                RESOURCE_BALANCE,
                f"interconnect {self.name!r}: negative transfer count",
            )
