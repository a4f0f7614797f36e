"""Sharded-memory sweep — bank count × warm capacity × admission policy.

The ROADMAP's "cache sharding" + "cache-sharding admission" unlocks: the
fleet's offloaded KV shards are partitioned cluster-wise across N memory
banks (:class:`repro.hw.memory.sharding.ShardedKVHierarchy`), and the
serving scheduler's admission control optionally trades each stream's
shard residency against the compute backlog it would join
(``SchedulerConfig(admission="residency")``).  This driver sweeps the two
knobs an operator owns:

* **bank count** — at a fixed per-bank budget, more banks buy both warm
  capacity (fewer cold SSD-tier fetches) and fetch parallelism (a
  cluster-aligned retrieval fans out into one transfer per bank);
* **admission policy** — ``"backlog"`` serves every admitted frame even
  when its shards are cold and its deadline hopeless; ``"residency"``
  defers doomed jobs and evicts colder shards to promote streams that can
  still meet their deadlines.

Each operating point reports the latency distribution (p50/p95/p99),
deadline-miss/drop/defer rates, eviction counts and the peak per-bank
occupancy.  An unbounded single-bank baseline row reproduces the
memory-less scheduler exactly (the degenerate configuration PR-pinned in
``tests/sim/test_sharded_scheduler.py``).  The sweep runs on the shared
runner in :mod:`repro.experiments._sweep`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.experiments import _sweep
from repro.experiments._sweep import (
    Scenario,
    SweepResult,
    format_rows,
    grid,
    named_system,
    percent,
    require_axis,
    schedule_row,
)
from repro.hw.memory.sharding import ShardedKVHierarchy
from repro.hw.specs import GiB
from repro.sim.batched import BatchLatencyModel

DEFAULT_BANK_COUNTS = (1, 2, 4)
ADMISSION_POLICIES = ("backlog", "residency")
BANK_BUDGET_GIB = 4.5
LOAD = 1.2

COLUMNS = (
    ("banks", lambda row: "∞" if not row["bounded"] else row["num_banks"]),
    ("GiB/bank", lambda row: "∞" if not row["bounded"] else f"{row['bank_budget_gib']:g}"),
    ("admission", "admission"),
    ("p50 ms", "p50_ms"),
    ("p95 ms", "p95_ms"),
    ("p99 ms", "p99_ms"),
    ("miss %", percent("miss_rate")),
    ("drop %", percent("drop_rate")),
    ("defers", "deferred"),
    ("evicts", "evictions"),
    ("peak GiB", "peak_bank_occupancy_gib"),
)


@dataclass(kw_only=True)
class ShardedMemoryResult(SweepResult):
    """One row per (num_banks, admission), plus the unbounded baseline."""

    key: tuple[str, ...] = ("num_banks", "admission", "bounded")

    def row(self, num_banks: int, admission: str, bounded: bool = True) -> dict:
        return super().row(num_banks, admission, bounded)


def run(
    num_streams: int = 6,
    frames_per_stream: int = 8,
    bank_counts=DEFAULT_BANK_COUNTS,
) -> ShardedMemoryResult:
    """Sweep bank count and admission policy for one memory-bound fleet."""
    base = Scenario(
        named_system("V-Rex48"),
        (40_000,) * num_streams,
        frames_per_stream,
        deadline_multiple=2.0,
        max_queue_depth=3,
        seed=7,
    )
    # the unbounded single bank first: the memory-less degenerate case
    bounded = [(n, BANK_BUDGET_GIB) for n in require_axis("bank_counts", bank_counts)]
    banks = [(1, math.inf), *bounded]
    planes = {
        point: BatchLatencyModel(
            memory=ShardedKVHierarchy(num_banks=point[0], bank_budget_bytes=point[1] * GiB)
        )
        for point in banks
    }

    def point(bank_point: tuple[int, float], admission: str) -> dict:
        schedule = base.schedule(LOAD, "bursty", plane=planes[bank_point], admission=admission)
        peak = max(
            (max(occ) for _, occ in schedule.bank_occupancy_trajectory),
            default=0.0,
        )
        num_banks, budget_gib = bank_point
        return {
            "num_banks": num_banks,
            "bounded": not math.isinf(budget_gib),
            "bank_budget_gib": budget_gib,
            "admission": admission,
            **schedule_row(schedule),
            "deferred": schedule.deferred,
            "evict_admissions": schedule.evict_admissions,
            "evictions": len(schedule.memory.evictions),
            "peak_bank_occupancy_gib": peak / GiB,
        }

    rows = grid(point, bank_counts=banks, admission=ADMISSION_POLICIES)
    return ShardedMemoryResult.of(base, rows)


def _report() -> ShardedMemoryResult:
    result = run()
    print(
        format_rows(
            COLUMNS,
            result.rows,
            title=(
                f"Sharded memory — {result.system}, {result.num_streams} streams, "
                f"{result.kv_len // 1000}K cache/stream, "
                f"deadline {result.deadline_s * 1e3:.0f} ms"
            ),
        )
    )
    bounded = [row for row in result.rows if row["bounded"]]
    best = min(bounded, key=lambda row: row["miss_rate"])
    print(
        f"  best bounded point: {best['num_banks']} banks with "
        f"{best['admission']} admission — miss {100 * best['miss_rate']:.1f}%, "
        f"p99 {best['p99_ms']:.0f} ms"
    )
    return result


def main(argv: list[str] | None = None) -> ShardedMemoryResult:
    """Print the bank-count × admission sweep for the server deployment.

    ``--sanitize`` arms the runtime sanitizer for the whole sweep.
    """
    return _sweep.main(argv, _report)


if __name__ == "__main__":
    main()
