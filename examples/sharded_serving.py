"""Sharded device memory: residency-aware serving on banked offload targets.

End-to-end walkthrough of the sharded memory plane:

1. build a fleet of 40K-token streams on the server V-Rex48 deployment,
   whose offloaded KV shards (~3.7 GiB each) exceed what two 4.5 GiB
   CPU-memory banks can hold warm — the memory-bound regime;
2. run the event-driven scheduler with classic backlog-only admission:
   cold streams pay SSD-tier fetches, sojourns blow out, and most served
   frames miss their deadline;
3. rerun the *identical* arrivals with ``admission="residency"`` — the
   controller defers frames whose deadline is hopeless at their stream's
   current shard residency and evicts colder shards to promote streams
   that can still make it — and watch the miss rate collapse;
4. print the per-bank occupancy trajectory the run recorded (every
   registration, eviction and promotion);
5. verify the degenerate configuration (one unbounded bank) reproduces
   the memory-less scheduler exactly.

Run with:  python examples/sharded_serving.py [num_streams]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.analysis import format_bank_occupancy_table, format_latency_summary_table
from repro.hw.memory.sharding import ShardedKVHierarchy
from repro.sim.arrivals import BurstyArrivals, rate_for_load
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.scheduler import SchedulerConfig, ServingScheduler
from repro.sim.systems import server_systems
from repro.sim.workload import default_llm_workload

GiB = 1024.0**3


def main(num_streams: int = 6) -> None:
    if num_streams < 1:
        raise SystemExit("sharded_serving.py needs at least one stream")
    system = server_systems(default_llm_workload().model_bytes())["V-Rex48"]
    profiles = [
        StreamProfile(kv_len=40_000, session_id=index) for index in range(num_streams)
    ]

    # Two 4.5 GiB banks cannot hold every stream's ~3.7 GiB shard set warm.
    memory = ShardedKVHierarchy(num_banks=2, bank_budget_bytes=4.5 * GiB)
    plane = BatchLatencyModel(memory=memory)
    solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
    deadline = 2.0 * solo
    traces = BurstyArrivals.for_mean_rate(
        rate_for_load(1.2, solo, num_streams)
    ).generate(num_streams, 8, seed=7)

    results = {}
    for admission in ("backlog", "residency"):
        config = SchedulerConfig(
            deadline_s=deadline, max_queue_depth=3, admission=admission
        )
        results[admission] = ServingScheduler(plane, config).run(
            system, profiles, traces
        )

    per_stream_gib = results["backlog"].memory.offchip_bytes(0) / GiB
    print(
        f"{num_streams} streams x {per_stream_gib:.2f} GiB offloaded shards "
        f"vs 2 banks x 4.5 GiB warm capacity (deadline {deadline * 1e3:.0f} ms)"
    )

    for admission, result in results.items():
        fleet = result.fleet_summary()
        print()
        print(
            format_latency_summary_table(
                result.stream_summaries() + [fleet],
                title=(
                    f"admission={admission!r}: "
                    f"{result.served} served, {result.deferred} deferred, "
                    f"{result.evict_admissions} evict-admissions, "
                    f"{len(result.memory.evictions)} shard evictions"
                ),
            )
        )

    backlog = results["backlog"].fleet_summary()
    residency = results["residency"].fleet_summary()
    print()
    print(
        f"Residency-aware admission: deadline misses "
        f"{100 * backlog.deadline_miss_rate:.1f}% -> "
        f"{100 * residency.deadline_miss_rate:.1f}%, "
        f"p99 {backlog.p99_ms:.0f} ms -> {residency.p99_ms:.0f} ms "
        f"(doomed cold-shard frames are shed at arrival instead of served late)"
    )

    print()
    print(
        format_bank_occupancy_table(
            results["residency"].bank_occupancy_trajectory,
            title="Per-bank warm occupancy (residency run)",
        )
    )

    # The degenerate configuration is the memory-less scheduler, exactly.
    degenerate = BatchLatencyModel(memory=ShardedKVHierarchy(num_banks=1))
    config = SchedulerConfig(deadline_s=deadline, max_queue_depth=3)
    sharded = ServingScheduler(degenerate, config).run(system, profiles, traces)
    plain = ServingScheduler(BatchLatencyModel(), config).run(
        system, profiles, traces
    )
    exact = np.array_equal(plain.columns.sojourn_s(), sharded.columns.sojourn_s())
    print()
    print(
        f"Degenerate check (1 unbounded bank vs no memory plane): "
        f"{'bit-for-bit identical' if exact else 'MISMATCH'} "
        f"across {len(plain.records)} records"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
