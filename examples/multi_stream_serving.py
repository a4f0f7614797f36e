"""Multi-stream serving: N concurrent video streams on one shared engine.

Opens several independent retrieval sessions on a single set of model
weights — each stream gets its own KV cache and its own ReSV state spawned
from one shared engine (the hash hyperplanes are shared, the HC tables are
not) — interleaves their frames round-robin the way a serving loop would,
asks one question per stream, and prints the per-stream retrieval report.

The measured per-stream statistics then calibrate the *batched* performance
plane: each stream is priced with its own sort fraction, occupancy and
retrieval ratio on the edge V-Rex8 deployment, and the shared-PCIe-link
contention between aligned frame arrivals is compared against staggered
arrivals and the perfect-batching bound.

Run with:  python examples/multi_stream_serving.py [num_streams]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.analysis import (
    batch_summary,
    format_session_table,
    format_stream_latency_table,
    retrieval_ratio_spread,
)
from repro.config import ReSVConfig, toy_model_config
from repro.core import ReSVRetriever
from repro.model.llm import StreamingVideoLLM
from repro.model.serving import SessionBatch
from repro.sim.batched import BatchLatencyModel, profiles_from_reports, staggered_arrivals
from repro.sim.pipeline import MeasuredRetrieval
from repro.sim.systems import edge_systems
from repro.sim.workload import default_llm_workload
from repro.video.synthetic import SyntheticVideoConfig, SyntheticVideoStream


def main(num_streams: int = 4) -> None:
    if num_streams < 1:
        raise SystemExit("multi_stream_serving.py needs at least one stream")
    config = toy_model_config()
    model = StreamingVideoLLM(config, seed=0)
    engine = ReSVRetriever(
        config.num_layers,
        config.num_kv_heads,
        config.head_dim,
        ReSVConfig(hamming_threshold=7, wicsum_ratio=0.3, recent_window=8),
        use_early_exit=True,  # bucketised WTU walk -> meaningful sort fractions
    )
    batch = SessionBatch(model, retriever_factory=engine.spawn, num_sessions=num_streams)
    print(
        f"Serving {num_streams} concurrent streams through one engine "
        f"({config.num_layers} layers, {config.num_kv_heads} KV heads, "
        f"shared weights + shared hash encoder, per-stream HC tables)"
    )

    # Every user streams a different video (different seed, length, dynamics).
    rng = np.random.default_rng(0)
    streams = []
    for stream_id in range(num_streams):
        video = SyntheticVideoStream(
            SyntheticVideoConfig(
                num_frames=int(6 + 3 * stream_id),
                tokens_per_frame=config.tokens_per_frame,
                hidden_dim=config.hidden_dim,
                temporal_correlation=0.9 + 0.02 * (stream_id % 4),
                scene_change_prob=0.1,
                seed=100 + stream_id,
            )
        )
        streams.append(list(video.frames()))
    # a round-robin serving loop: stream i's frame k arrives at tick k
    batch.run_arrivals(streams, [range(len(frames)) for frames in streams])

    questions = [rng.normal(size=(5, config.hidden_dim)) for _ in range(num_streams)]
    batch.ask_all(questions)
    batch.generate_all(4)

    reports = batch.reports()
    print()
    print(format_session_table(reports, title="Per-stream retrieval report"))

    summary = batch_summary(reports)
    low, high = retrieval_ratio_spread(reports)
    print()
    print(
        f"Fleet: {summary['num_sessions']} streams, "
        f"{summary['total_cache_tokens']} cached tokens "
        f"({summary['total_cache_bytes'] / 1024:.0f} KiB KV, "
        f"{summary['total_table_bytes'] / 1024:.1f} KiB HC tables)"
    )
    print(
        f"Mean retrieval ratio: {100 * summary['mean_frame_retrieval_ratio']:.1f}% frame / "
        f"{100 * summary['mean_generation_retrieval_ratio']:.1f}% generation "
        f"(per-stream spread {100 * low:.1f}%-{100 * high:.1f}%)"
    )
    print(
        f"Mean WiCSum sort fraction: {100 * summary['mean_sort_fraction']:.1f}%, "
        f"mean occupancy: {summary['mean_tokens_per_cluster']:.1f} tokens/cluster"
    )

    # Per-stream calibration of the performance plane: the busiest stream's
    # measured statistics replace the paper's published averages.
    busiest = max(reports, key=lambda r: r.cache_tokens)
    measured = MeasuredRetrieval.from_session_report(busiest)
    print(
        f"Calibration from stream {busiest.session_id}: "
        f"sort fraction {measured.sort_fraction:.3f}, "
        f"{measured.avg_tokens_per_cluster:.1f} tokens/cluster "
        "(feed into LatencyModel(measured=...) for per-session latency estimates)"
    )

    # Batched performance plane: price the whole fleet on the edge V-Rex8
    # deployment, each stream calibrated with its own measured statistics.
    # The toy functional caches hold a few hundred tokens, so every stream
    # is projected onto a production cache proportional to what it streamed.
    system = edge_systems(default_llm_workload().model_bytes())["V-Rex8"]
    max_cache = max(r.cache_tokens for r in reports)
    kv_lens = [max(int(40_000 * r.cache_tokens / max_cache), 5_000) for r in reports]
    profiles = profiles_from_reports(reports, kv_lens=kv_lens)
    plane = BatchLatencyModel()
    aligned = plane.frame_step(system, profiles)
    print()
    print(
        format_stream_latency_table(
            aligned.streams,
            title=f"Per-stream frame latency on {system.name} (aligned arrivals)",
        )
    )
    solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
    for profile, offset in zip(profiles, staggered_arrivals(len(profiles), solo), strict=True):
        profile.arrival_offset_s = offset
    staggered = plane.frame_step(system, profiles)
    batched = plane.frame_step(system, profiles, contention=False)
    print()
    print(
        f"Fleet frame step: aligned {aligned.total_ms:.1f} ms makespan "
        f"({aligned.mean_exposed_fetch_s * 1e3:.1f} ms mean exposed fetch), "
        f"staggered {staggered.mean_exposed_fetch_s * 1e3:.1f} ms exposed fetch, "
        f"perfect batching {batched.total_ms:.1f} ms"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
