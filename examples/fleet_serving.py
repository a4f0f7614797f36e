"""Multi-device fleet serving: session routing over a priced interconnect.

End-to-end walkthrough of the fleet plane:

1. size a session population that oversubscribes *one* V-Rex8 device
   (offered load 1.2), and run it through a single device — the baseline
   a fleet has to beat;
2. run the identical sessions and arrival traces through 1-, 2- and
   4-device fleets under round-robin routing and watch the p99 sojourn
   collapse toward the solo-latency floor (the M=1 row is bit-identical
   to the plain ``ServingScheduler`` run — the fleet guarantee);
3. home every session on device 0 and spread it across a PCIe5-switch
   interconnect: the router ships each migrated session's KV shard
   footprint (hot window + offloaded shards + HC-table signatures) across
   the link, and the session's frames buffer until its shards land;
4. compare routing policies on the homed population — load-blind
   round-robin ships almost everything, ``kv_residency`` keeps sessions
   on their shards until the home's *live* backlog passes its patience —
   and read the price of each choice in shipped gigabytes and tail
   milliseconds;
5. leave the stubborn infinite-patience fleet alone but turn on work
   stealing: idle devices pull whole queued sessions off the loaded
   home mid-run, paying the same shard-transfer price per move.

Run with:  python examples/fleet_serving.py [num_streams]
"""

from __future__ import annotations

import sys

from repro.analysis import format_device_table, format_fleet_table
from repro.hw.interconnect import PCIE5_SWITCH
from repro.sim.arrivals import PoissonArrivals, rate_for_load
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.fleet import FleetConfig, FleetScheduler
from repro.sim.scheduler import SchedulerConfig, ServingScheduler
from repro.sim.systems import edge_systems
from repro.sim.workload import default_llm_workload


def main(num_streams: int = 12) -> None:
    if num_streams < 2:
        raise SystemExit("fleet_serving.py needs at least two streams")
    plane = BatchLatencyModel()
    system = edge_systems(default_llm_workload().model_bytes())["V-Rex8"]
    profiles = [
        StreamProfile(kv_len=40_000, session_id=index) for index in range(num_streams)
    ]
    solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
    config = SchedulerConfig(deadline_s=3.0 * solo, max_queue_depth=6)

    # One device, oversubscribed: every stream's KV fetches fight for one
    # PCIe link, and the tail blows up.
    rate = rate_for_load(1.2, solo, num_streams)
    traces = PoissonArrivals(rate_hz=rate).generate(num_streams, 10, seed=0)
    single = ServingScheduler(plane, config).run(system, profiles, traces)
    summary = single.fleet_summary()
    print(
        f"single V-Rex8, {num_streams} sessions at load 1.2: "
        f"p50 {summary.p50_ms:.0f} ms, p99 {summary.p99_ms:.0f} ms, "
        f"{100.0 * summary.deadline_miss_rate:.0f}% deadline misses"
    )

    # The same sessions across growing fleets: identical work, shrinking
    # tail.  M=1 reproduces the single-device run bit for bit.
    results = []
    for num_devices in (1, 2, 4):
        fleet = FleetScheduler(
            plane, config, FleetConfig(num_devices=num_devices, router="round_robin")
        )
        results.append(fleet.run(system, profiles, traces))
    assert results[0].records == single.records  # the M=1 guarantee
    print()
    print(format_fleet_table(results, title="Scaling out (round_robin router)"))
    print()
    print(
        format_device_table(
            results[-1], title="Per-device view of the 4-device fleet"
        )
    )

    # Draining a loaded device: everyone lives on device 0; moving a
    # session means shipping its shard bytes across the interconnect.
    homes = {profile.session_id: 0 for profile in profiles}
    # Patience is measured against the home's *live* backlog (work still
    # queued right now), so "eager" means a fraction of one solo frame
    # sequence, not multiples of a whole session.
    homed = []
    for router, patience_s, stealing in (
        ("round_robin", float("inf"), False),
        ("kv_residency", float("inf"), False),
        ("kv_residency", 0.5 * solo, False),
        ("kv_residency", float("inf"), True),
    ):
        fleet = FleetScheduler(
            plane,
            config,
            FleetConfig(
                num_devices=4,
                router=router,
                interconnect=PCIE5_SWITCH,
                migrate_backlog_s=patience_s,
                work_stealing=stealing,
            ),
        )
        homed.append(fleet.run(system, profiles, traces, home_devices=homes))
    print()
    print(
        format_fleet_table(
            homed,
            title="Moving sessions homed on device 0 (PCIe5-switch interconnect)",
        )
    )
    stubborn, eager, stolen = homed[1], homed[2], homed[3]
    print(
        f"\nkv_residency patience: infinite ships {stubborn.interconnect_bytes / 1e9:.1f} GB "
        f"(p99 {stubborn.fleet_summary().p99_ms:.0f} ms), "
        f"eager ships {eager.interconnect_bytes / 1e9:.1f} GB "
        f"(p99 {eager.fleet_summary().p99_ms:.0f} ms)"
    )
    print(
        f"work stealing on the stubborn fleet: {stolen.steal_count} steals ship "
        f"{stolen.interconnect_bytes / 1e9:.1f} GB, "
        f"p99 {stolen.fleet_summary().p99_ms:.0f} ms"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 12)
