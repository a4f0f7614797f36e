"""Quickstart: stream a synthetic video, ask a question, compare retrievers.

Runs the functional substrate end to end: a synthetic COIN-like episode is
streamed frame by frame through the small transformer, a question about an
earlier step is asked, and the answer plus retrieval statistics are printed
for the vanilla model and for ReSV.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.config import ReSVConfig
from repro.core import ReSVRetriever
from repro.model.llm import StreamingVideoLLM
from repro.model.streaming import FRAME_STAGE, GENERATION_STAGE, StreamingSession
from repro.video.coin import CoinBenchmark, CoinBenchmarkConfig, CoinTask
from repro.video.qa import QA_ATTN_MIX, QA_FFN_MIX, QA_IDENTITY_BIAS, default_qa_model_config


def run_session(model, benchmark, episode, retriever=None) -> None:
    """Stream one episode through a fresh session and answer its questions."""
    session = StreamingSession(model, retriever)
    for frame_id, frame in enumerate(episode.frames):
        session.process_frame(frame, frame_id=frame_id)

    for probe in episode.probes:
        hidden = session.ask(probe.question_embeddings)
        answer = benchmark.decode_answer(hidden[-1] - probe.question_embeddings[-1])
        session.generate(2)
        status = "correct" if answer == probe.answer_code else "wrong"
        print(
            f"    question about step {probe.target_step}: "
            f"predicted value code {answer} (expected {probe.answer_code}) -> {status}"
        )

    stats = session.stats
    print(
        f"    cache: {session.cache_length} tokens "
        f"({session.kv_cache_bytes() / 1024:.0f} KiB), "
        f"retrieval ratio frame/generation: "
        f"{100 * stats.retrieval_ratio(FRAME_STAGE):.1f}% / "
        f"{100 * stats.retrieval_ratio(GENERATION_STAGE):.1f}%"
    )


def main() -> None:
    config = default_qa_model_config()
    benchmark = CoinBenchmark(
        CoinBenchmarkConfig(hidden_dim=config.hidden_dim, tokens_per_frame=config.tokens_per_frame)
    )
    episode = benchmark.generate_episode(CoinTask.RETRIEVAL_AT_FRAME, seed=0)
    print(f"Episode: {episode.num_frames} frames, {episode.num_steps} steps, "
          f"{len(episode.probes)} question(s)")

    model = StreamingVideoLLM(
        config,
        seed=0,
        identity_bias=QA_IDENTITY_BIAS,
        attn_mix=QA_ATTN_MIX,
        ffn_mix=QA_FFN_MIX,
        query_transform=benchmark.query_transform,
    )

    print("\n[1] Vanilla full attention (VideoLLM-Online style)")
    run_session(model, benchmark, episode)

    print("\n[2] ReSV dynamic KV cache retrieval (hash-bit clustering + WiCSum)")
    run_session(
        model,
        benchmark,
        episode,
        ReSVRetriever(config.num_layers, config.num_kv_heads, config.head_dim, ReSVConfig()),
    )


if __name__ == "__main__":
    main()
