"""Scheduled serving sweep — latency distributions under stochastic arrivals.

The ROADMAP's "arrival-process realism" unlock: instead of pricing one
lockstep tick at fixed offsets (:mod:`repro.experiments.batched_serving`),
this driver runs the event-driven scheduler
(:class:`repro.sim.scheduler.ServingScheduler`) over whole arrival *traces*
and reports what a serving operator actually monitors:

* **arrival pattern** — aligned periodic uploads (every stream in phase:
  worst-case synchronized bursts on the shared PCIe link), staggered
  periodic (admission-controlled phases), Poisson (memoryless clients) and
  bursty on-off (stalling uplinks that dump buffered frames) — all at the
  same long-run frame rate;
* **load factor** — the fleet's aggregate offered load relative to one
  stream's solo frame latency, swept toward saturation;
* **latency distributions** — per-run fleet p50/p95/p99 sojourn times,
  deadline-miss rate against a deadline of two solo latencies, and the
  share of frames the backlog admission bound dropped;
* **compute contention** — :func:`run` prices the LXE/GPU under either
  compute policy, and :func:`run_quantum_sweep` sweeps the time-sliced
  server's scheduling quantum against offered load, bracketing each
  operating point between the private-compute floor and progressively
  coarser round-robin slicing.

The sweeps run on the shared runner in :mod:`repro.experiments._sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import _sweep
from repro.experiments._sweep import (
    PATTERNS,
    Scenario,
    SweepResult,
    format_rows,
    grid,
    named_system,
    percent,
    require_axis,
    schedule_row,
)
from repro.sim.batched import DEFAULT_QUANTUM_S
from repro.sim.systems import SystemConfig

DEFAULT_LOAD_FACTORS = (0.4, 0.7, 0.9)
DEFAULT_QUANTA_S = (4e-3, 1e-3, 2.5e-4)
#: the arrival process behind each of ``PATTERNS``, all at one mean rate
_arrival_traces = _sweep.arrival_traces

PATTERN_COLUMNS = (
    ("load", "load"),
    ("pattern", "pattern"),
    ("p50 ms", "p50_ms"),
    ("p95 ms", "p95_ms"),
    ("p99 ms", "p99_ms"),
    ("miss %", percent("miss_rate")),
    ("drop %", percent("drop_rate")),
)
QUANTUM_COLUMNS = (
    ("load", "load"),
    (
        "quantum",
        lambda row: "private" if row["quantum_s"] is None else f"{row['quantum_s'] * 1e3:g} ms",
    ),
    ("p50 ms", "p50_ms"),
    ("p95 ms", "p95_ms"),
    ("p99 ms", "p99_ms"),
    ("miss %", percent("miss_rate")),
    ("makespan s", "makespan_s"),
)


@dataclass(kw_only=True)
class ScheduledServingResult(SweepResult):
    """One row per (load_factor, pattern): p50/p95/p99 ms, miss/drop rates."""

    key: tuple[str, ...] = ("load", "pattern")
    compute: str = "private"

    def tail_blowup(self, load_factor: float, pattern: str) -> float:
        """p99 / p50 at one operating point (queueing-tail amplification)."""
        row = self.row(load_factor, pattern)
        if row["p50_ms"] <= 0:
            return 1.0
        return row["p99_ms"] / row["p50_ms"]


def _scenario(system, kv_len, num_streams, frames_per_stream, max_queue_depth) -> Scenario:
    return Scenario(
        system or named_system("V-Rex8"),
        (kv_len,) * num_streams,
        frames_per_stream,
        deadline_multiple=2.0,
        max_queue_depth=max_queue_depth,
    )


def run(
    system: SystemConfig | None = None,
    num_streams: int = 8,
    frames_per_stream: int = 12,
    load_factors=DEFAULT_LOAD_FACTORS,
    max_queue_depth: int | None = 4,
    compute: str = "private",
) -> ScheduledServingResult:
    """Sweep arrival patterns and load factors for one system."""
    base = _scenario(system, 40_000, num_streams, frames_per_stream, max_queue_depth)

    def point(load: float, pattern: str) -> dict:
        schedule = base.schedule(load, pattern, compute=compute)
        return {"load": load, "pattern": pattern, **schedule_row(schedule)}

    rows = grid(point, load_factors=load_factors, patterns=PATTERNS)
    return ScheduledServingResult.of(base, rows, compute=compute)


def run_quantum_sweep(
    system: SystemConfig | None = None,
    num_streams: int = 8,
    frames_per_stream: int = 10,
    load_factors=DEFAULT_LOAD_FACTORS,
    quanta_s=DEFAULT_QUANTA_S,
    max_queue_depth: int | None = 4,
) -> SweepResult:
    """Sweep the round-robin quantum against offered load for one system.

    One row per (load_factor, quantum) under Poisson arrivals.  Every
    operating point also runs the private-compute policy (the
    ``quantum_s=None`` baseline row), whose makespan lower-brackets the
    time-sliced runs at any quantum.  The cache length (4K tokens) is short
    on purpose: with small caches the LXE/GPU — not the PCIe link — is the
    contended resource, which is the regime where compute time-slicing
    shows (at 40K-token caches the fetch path hides compute entirely and
    every quantum row collapses onto the private baseline).
    """
    base = _scenario(system, 4_000, num_streams, frames_per_stream, max_queue_depth)

    def point(load: float, quantum: float | None) -> dict:
        compute = "private" if quantum is None else "timesliced"
        schedule = base.schedule(
            load,
            compute=compute,
            quantum_s=DEFAULT_QUANTUM_S if quantum is None else quantum,
        )
        return {"load": load, "quantum_s": quantum, "compute": compute, **schedule_row(schedule)}

    quanta = (None, *require_axis("quanta_s", quanta_s))
    rows = grid(point, load_factors=load_factors, quanta_s=quanta)
    return SweepResult.of(base, rows, key=("load", "quantum_s"))


def _report() -> dict[str, ScheduledServingResult]:
    results: dict[str, ScheduledServingResult] = {}
    for name in ("V-Rex8", "AGX + FlexGen"):
        result = results[name] = run(system=named_system(name))
        print(
            format_rows(
                PATTERN_COLUMNS,
                result.rows,
                title=(
                    f"Scheduled serving — {name}, {result.num_streams} streams, "
                    f"{result.kv_len // 1000}K cache/stream, "
                    f"deadline {result.deadline_s * 1e3:.0f} ms"
                ),
            )
        )
        heaviest = max(row["load"] for row in result.rows)
        blowups = " vs ".join(
            f"{pattern} {result.tail_blowup(heaviest, pattern):.2f}x" for pattern in PATTERNS
        )
        print(f"  p99/p50 tail blow-up at load {heaviest}: {blowups}")
        print()

    sweep = run_quantum_sweep()
    print(
        format_rows(
            QUANTUM_COLUMNS,
            sweep.rows,
            title=(
                f"Time-sliced compute — {sweep.system}, {sweep.num_streams} streams, "
                "poisson arrivals (private = lower bracket)"
            ),
        )
    )
    return results


def main(argv: list[str] | None = None) -> dict[str, ScheduledServingResult]:
    """Print the sweep for the two edge systems the contention story needs.

    ``--sanitize`` arms the runtime sanitizer for the whole sweep
    (equivalent to launching under ``REPRO_SANITIZE=1``).
    """
    return _sweep.main(argv, _report)


if __name__ == "__main__":
    main()
