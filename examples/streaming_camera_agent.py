"""A streaming camera agent: raw RGB frames through the full pipeline.

Demonstrates the complete VideoLLM-Online-style stack on raw pixels: a
moving-blob RGB video is encoded by the vision tower, projected into the
LLM space, prefilled frame by frame with ReSV attached, and queried twice
(multi-turn) while the hierarchical KV manager offloads old entries once a
small device budget is exceeded — the edge scenario the paper motivates.

Run with:  python examples/streaming_camera_agent.py
"""

from __future__ import annotations

import numpy as np

from repro.config import ModelConfig, ReSVConfig, toy_vision_config
from repro.core import ReSVRetriever
from repro.hw.memory.hierarchy import HierarchicalKVManager
from repro.model.llm import StreamingVideoLLM
from repro.model.streaming import FRAME_STAGE, StreamingSession
from repro.model.tokenizer import ToyTokenizer
from repro.model.vision import MLPProjector, VisionTower
from repro.video.synthetic import generate_raw_frames

NUM_FRAMES = 24
DEVICE_KV_BUDGET_BYTES = 24 * 1024  # deliberately tiny so offloading kicks in


def main() -> None:
    vision_config = toy_vision_config()
    model_config = ModelConfig(
        name="camera-agent",
        num_layers=4,
        hidden_dim=64,
        num_heads=4,
        num_kv_heads=2,
        ffn_dim=256,
        tokens_per_frame=vision_config.output_tokens,
    )

    tower = VisionTower(vision_config, seed=0)
    projector = MLPProjector(vision_config.embed_dim, model_config.hidden_dim, seed=0)
    tokenizer = ToyTokenizer(model_config.vocab_size)
    retriever = ReSVRetriever(
        model_config.num_layers,
        model_config.num_kv_heads,
        model_config.head_dim,
        ReSVConfig(n_hyperplanes=16, hamming_threshold=4, wicsum_ratio=0.4),
    )
    model = StreamingVideoLLM(model_config, seed=0)
    session = StreamingSession(model, retriever)
    memory = HierarchicalKVManager(
        bytes_per_token=model_config.kv_bytes_per_token(),
        device_budget_bytes=DEVICE_KV_BUDGET_BYTES,
    )

    print(f"Streaming {NUM_FRAMES} raw {vision_config.image_size}x{vision_config.image_size} frames...")
    for frame_id, frame in enumerate(generate_raw_frames(NUM_FRAMES, vision_config.image_size)):
        visual_tokens = projector.project(tower.encode(frame))
        session.process_frame(visual_tokens, frame_id=frame_id)
        evicted = memory.append(visual_tokens.shape[0])
        if evicted:
            print(f"  frame {frame_id:2d}: offloaded {evicted} old tokens to storage "
                  f"({memory.offloaded_bytes() / 1024:.0f} KiB off-device)")

    for turn, question in enumerate(
        ("what is moving in the scene", "where was the object at the beginning"), start=1
    ):
        question_ids = tokenizer.encode(question)
        hidden = session.ask(model.embed_tokens(question_ids))
        answer_hidden = session.generate(4, start_embedding=hidden[-1])
        stats = session.stats
        print(
            f"turn {turn}: asked {question_ids.size} tokens, generated {answer_hidden.shape[0]} tokens | "
            f"cache {session.cache_length} tokens, "
            f"frame-stage retrieval ratio {100 * stats.retrieval_ratio(FRAME_STAGE):.1f}%"
        )

    clusters = np.mean(
        [retriever.table(layer, head).num_clusters
         for layer in range(model_config.num_layers)
         for head in range(model_config.num_kv_heads)]
    )
    print(f"\nReSV clustered {session.cache_length} cached tokens into ~{clusters:.0f} clusters per head "
          f"({retriever.mean_tokens_per_cluster():.1f} tokens/cluster on average).")
    print(f"Hierarchical memory: {memory.resident_tokens} tokens resident, "
          f"{memory.offloaded_tokens} offloaded.")


if __name__ == "__main__":
    main()
