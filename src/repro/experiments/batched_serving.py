"""Batched serving sweep — contention between concurrent streams.

The ROADMAP's "batched performance plane" unlock: instead of Fig. 15's
single batch multiplier, this driver prices fleets of concurrent streams
through :class:`repro.sim.batched.BatchLatencyModel` and sweeps the arrival
pattern and fleet composition on the PCIe-bottlenecked edge systems:

* **aligned vs staggered arrivals** — how much per-stream exposed KV-fetch
  latency the shared PCIe link's FCFS queue adds when every stream's frame
  lands at the same instant, and how much of it admission-controlled
  staggering recovers;
* **perfect batching bound** — the no-contention mode (identical to
  ``LatencyModel`` at ``batch=N``) as the upper bound a clever scheduler
  could approach;
* **mixed cache sizes** — long-history streams pay more and queue longer;
* **mixed retriever statistics** — streams whose measured occupancy is low
  fetch at poor link efficiency and hold the link longer.

The sweep runs on the shared runner in :mod:`repro.experiments._sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import _sweep
from repro.experiments._sweep import (
    Scenario,
    SweepResult,
    format_rows,
    grid,
    named_system,
)
from repro.sim.batched import StreamProfile, aligned_arrivals, staggered_arrivals
from repro.sim.pipeline import MeasuredRetrieval
from repro.sim.systems import SystemConfig

KV_LEN = 40_000
DEFAULT_STREAM_COUNTS = (1, 2, 4, 8)

COLUMNS = (
    ("streams", "streams"),
    ("aligned fetch ms", "aligned_fetch_ms"),
    ("staggered fetch ms", "staggered_fetch_ms"),
    ("aligned fps", "aligned_fps"),
    ("staggered fps", "staggered_fps"),
    ("batched fps", "batched_fps"),
)
STREAM_COLUMNS = (
    ("stream", "stream"),
    ("kv_len", "kv_len"),
    ("latency ms", "latency_ms"),
    ("exposed fetch ms", "exposed_fetch_ms"),
    ("PCIe wait ms", "pcie_wait_ms"),
)


@dataclass(kw_only=True)
class BatchedServingResult(SweepResult):
    """One row per fleet size, plus per-stream rows of the two
    heterogeneous fleets at the largest size."""

    key: tuple[str, ...] = ("streams",)
    mixed_cache_rows: list[dict] = field(default_factory=list)
    mixed_retriever_rows: list[dict] = field(default_factory=list)

    @property
    def stream_counts(self) -> tuple[int, ...]:
        return tuple(row["streams"] for row in self.rows)

    @property
    def aligned_exposed_fetch_ms(self) -> dict[int, float]:
        """num_streams -> mean per-stream exposed KV-fetch latency (ms)."""
        return {row["streams"]: row["aligned_fetch_ms"] for row in self.rows}

    @property
    def staggered_exposed_fetch_ms(self) -> dict[int, float]:
        return {row["streams"]: row["staggered_fetch_ms"] for row in self.rows}

    def contention_penalty(self, num_streams: int) -> float:
        """Aligned-vs-staggered exposed-fetch blow-up at a fleet size."""
        staggered = self.staggered_exposed_fetch_ms[num_streams]
        if staggered <= 0:
            return 1.0
        return self.aligned_exposed_fetch_ms[num_streams] / staggered


def _mixed_cache_profiles(kv_len: int, num_streams: int) -> list[StreamProfile]:
    """Aligned fleet whose cache lengths span 0.25x .. 1x the sweep length."""
    return [
        StreamProfile(
            kv_len=int(kv_len * (0.25 + 0.75 * index / max(num_streams - 1, 1))),
            session_id=index,
        )
        for index in range(num_streams)
    ]


def _mixed_retriever_profiles(kv_len: int, num_streams: int) -> list[StreamProfile]:
    """Aligned fleet whose measured sort fractions / occupancies differ.

    Stream 0 behaves like the published averages; later streams measured
    progressively smaller cluster occupancy (worse link efficiency under
    cluster-wise mapping) and larger sort fractions (more WTU work).
    """
    profiles = []
    for index in range(num_streams):
        fraction = index / max(num_streams - 1, 1)
        profiles.append(
            StreamProfile(
                kv_len=kv_len,
                measured=MeasuredRetrieval(
                    sort_fraction=0.16 + 0.24 * fraction,
                    avg_tokens_per_cluster=32.0 - 24.0 * fraction,
                ),
                session_id=index,
            )
        )
    return profiles


def run(
    system: SystemConfig | None = None,
    stream_counts=DEFAULT_STREAM_COUNTS,
) -> BatchedServingResult:
    """Sweep fleet sizes and arrival patterns for one system."""
    base = Scenario(system or named_system("V-Rex8"), (KV_LEN,))
    plane, system = base.plane, base.system

    def fleet(offsets) -> list[StreamProfile]:
        return [
            StreamProfile(kv_len=KV_LEN, arrival_offset_s=offset, session_id=index)
            for index, offset in enumerate(offsets)
        ]

    def point(count: int) -> dict:
        aligned = fleet(aligned_arrivals(count))
        aligned_step = plane.frame_step(system, aligned)
        staggered_step = plane.frame_step(
            system, fleet(staggered_arrivals(count, base.solo_latency_s))
        )
        return {
            "streams": count,
            "aligned_fetch_ms": aligned_step.mean_exposed_fetch_s * 1e3,
            "staggered_fetch_ms": staggered_step.mean_exposed_fetch_s * 1e3,
            "aligned_fps": aligned_step.fps,
            "staggered_fps": staggered_step.fps,
            "batched_fps": plane.frame_step(system, aligned, contention=False).fps,
        }

    def stream_rows(profiles: list[StreamProfile]) -> list[dict]:
        return [
            {
                "stream": stream.session_id,
                "kv_len": stream.kv_len,
                "latency_ms": stream.total_ms,
                "exposed_fetch_ms": stream.exposed_fetch_s * 1e3,
                "pcie_wait_ms": stream.pcie_wait_s * 1e3,
            }
            for stream in plane.frame_step(system, profiles).streams
        ]

    rows = grid(point, stream_counts=stream_counts)
    largest = max(row["streams"] for row in rows)
    return BatchedServingResult.of(
        base,
        rows,
        mixed_cache_rows=stream_rows(_mixed_cache_profiles(KV_LEN, largest)),
        mixed_retriever_rows=stream_rows(_mixed_retriever_profiles(KV_LEN, largest)),
    )


def _report() -> dict[str, BatchedServingResult]:
    results: dict[str, BatchedServingResult] = {}
    for name in ("V-Rex8", "AGX + FlexGen"):
        result = results[name] = run(system=named_system(name))
        print(
            format_rows(
                COLUMNS,
                result.rows,
                title=f"Batched serving — {name}, {result.kv_len // 1000}K cache/stream",
            )
        )
        largest = max(result.stream_counts)
        print(
            f"  contention penalty at {largest} aligned streams: "
            f"{result.contention_penalty(largest):.2f}x exposed fetch"
        )
        for label, rows in (
            ("mixed cache sizes", result.mixed_cache_rows),
            ("mixed retriever statistics", result.mixed_retriever_rows),
        ):
            print(format_rows(STREAM_COLUMNS, rows, title=f"  {label} ({largest} aligned streams)"))
        print()
    return results


def main(argv: list[str] | None = None) -> dict[str, BatchedServingResult]:
    """Print the sweep for the two edge systems the contention story needs.

    ``--sanitize`` arms the runtime sanitizer for the whole sweep.
    """
    return _sweep.main(argv, _report)


if __name__ == "__main__":
    main()
