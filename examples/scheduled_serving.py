"""Event-driven serving: latency distributions under stochastic arrivals.

End-to-end walkthrough of the serving scheduler:

1. serve a few concurrent streams through one functional-plane engine, with
   frames admitted in *arrival order* (``SessionBatch.run_arrivals``) from
   a Poisson trace rather than round-robin ticks;
2. calibrate per-stream performance profiles from the measured session
   reports (``profiles_from_reports``);
3. replay the same arrival traces through the event-driven scheduler on
   the edge V-Rex8 deployment — frames queue per stream, ReSV prediction
   serializes on the shared DRE, KV fetches on the shared PCIe link — plus
   one question and a short generation per stream;
4. report per-stream and fleet p50/p95/p99 sojourn times and the
   deadline-miss rate, the distributions a makespan can't show;
5. replay the identical arrivals with ``compute="timesliced"`` — the
   LXE now round-robins between streams instead of being priced as a free
   per-stream engine — and show the bracket: the private-compute makespan
   lower-bounds the time-sliced one on every fleet.

Run with:  python examples/scheduled_serving.py [num_streams]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.analysis import format_latency_summary_table, format_schedule_record_table
from repro.config import ReSVConfig, toy_model_config
from repro.core import ReSVRetriever
from repro.model.llm import StreamingVideoLLM
from repro.model.serving import SessionBatch
from repro.sim.arrivals import PoissonArrivals
from repro.sim.batched import BatchLatencyModel, profiles_from_reports
from repro.sim.scheduler import FRAME_JOB, SchedulerConfig, ServingScheduler
from repro.sim.systems import edge_systems
from repro.sim.workload import default_llm_workload


def main(num_streams: int = 4) -> None:
    if num_streams < 1:
        raise SystemExit("scheduled_serving.py needs at least one stream")
    config = toy_model_config()
    model = StreamingVideoLLM(config, seed=0)
    engine = ReSVRetriever(
        config.num_layers,
        config.num_kv_heads,
        config.head_dim,
        ReSVConfig(hamming_threshold=7, wicsum_ratio=0.3, recent_window=8),
        use_early_exit=True,
    )
    batch = SessionBatch(model, retriever_factory=engine.spawn, num_sessions=num_streams)

    # Functional plane: admit frames in Poisson arrival order (one trace per
    # stream, seed-deterministic), then ask one question per stream.
    frames_per_stream = 8
    functional_traces = PoissonArrivals(rate_hz=2.0).generate(
        num_streams, frames_per_stream, seed=42
    )
    rng = np.random.default_rng(0)
    videos = [
        [
            rng.normal(size=(config.tokens_per_frame, config.hidden_dim))
            for _ in range(frames_per_stream)
        ]
        for _ in range(num_streams)
    ]
    schedule = batch.run_arrivals(videos, functional_traces)
    batch.ask_all(
        [rng.normal(size=(5, config.hidden_dim)) for _ in range(num_streams)]
    )
    batch.generate_all(3)
    print(
        f"Functional plane: {len(schedule)} frames admitted in arrival order "
        f"across {num_streams} streams "
        f"(first: t={schedule[0][0]:.2f}s stream {schedule[0][1]}, "
        f"last: t={schedule[-1][0]:.2f}s stream {schedule[-1][1]})"
    )

    # Performance plane: replay the same arrival processes on the edge
    # deployment, with every stream calibrated by its measured statistics.
    system = edge_systems(default_llm_workload().model_bytes())["V-Rex8"]
    reports = batch.reports()
    profiles = profiles_from_reports(reports, kv_lens=[40_000] * num_streams)
    plane = BatchLatencyModel()
    solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
    scheduler = ServingScheduler(
        plane, SchedulerConfig(deadline_s=2.0 * solo, max_queue_depth=4)
    )
    production_traces = PoissonArrivals(rate_hz=0.5 / solo).generate(
        num_streams, frames_per_stream, seed=42
    )
    question_time = max(float(trace[-1]) for trace in production_traces)
    result = scheduler.run(
        system,
        profiles,
        production_traces,
        question_arrivals=[question_time] * num_streams,
        answer_tokens=4,
    )

    print()
    print(
        format_schedule_record_table(
            result.jobs(kind=FRAME_JOB),
            title=f"First frame jobs on {system.name} (Poisson arrivals)",
            limit=8,
        )
    )
    print()
    summaries = result.stream_summaries() + [result.fleet_summary()]
    print(
        format_latency_summary_table(
            summaries,
            title=(
                f"Sojourn-time distributions (deadline {2.0 * solo * 1e3:.0f} ms, "
                f"{result.events_processed} events, "
                f"makespan {result.makespan_s:.2f} s)"
            ),
        )
    )
    fleet = result.fleet_summary()
    print()
    print(
        f"Fleet: p50 {fleet.p50_ms:.0f} ms, p95 {fleet.p95_ms:.0f} ms, "
        f"p99 {fleet.p99_ms:.0f} ms; "
        f"{100 * fleet.deadline_miss_rate:.1f}% deadline misses, "
        f"{100 * fleet.drop_rate:.1f}% dropped by admission control"
    )

    # Same arrivals, but the LXE is one shared time-sliced engine instead of
    # a free engine per stream: the compute-contention bracket.
    timesliced = ServingScheduler(
        plane,
        SchedulerConfig(
            deadline_s=2.0 * solo, max_queue_depth=4, compute="timesliced"
        ),
    ).run(
        system,
        profiles,
        production_traces,
        question_arrivals=[question_time] * num_streams,
        answer_tokens=4,
    )
    shared = timesliced.fleet_summary()
    print()
    print(
        f"Time-sliced LXE (quantum 1 ms): p50 {shared.p50_ms:.0f} ms, "
        f"p95 {shared.p95_ms:.0f} ms, p99 {shared.p99_ms:.0f} ms; "
        f"{100 * shared.deadline_miss_rate:.1f}% deadline misses"
    )
    print(
        f"Bracket: private-compute makespan {result.makespan_s:.2f} s <= "
        f"time-sliced {timesliced.makespan_s:.2f} s "
        f"(shared compute can only slow the fleet down)"
    )
    if timesliced.makespan_s - result.makespan_s < 1e-6:
        print(
            "  (tight here: at 40K-token caches the PCIe link, not the LXE, "
            "is the bottleneck and compute hides under the fetch path — "
            "rerun experiments/scheduled_serving.py for the compute-bound "
            "regime where the quantum matters)"
        )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
