"""Fig. 20 — retrieval ratio per layer and per attention head.

Streams a COIN-like video through the functional substrate with ReSV and
with the fixed-ratio baselines (InfiniGenP, ReKV) attached, and reports the
fraction of cached tokens each layer and each KV head actually fetched.
The paper's observation: ReSV's ratios vary widely (roughly 4%–44% across
layers) while fixed top-k baselines are flat, letting ReSV retrieve ~3x
fewer tokens on average than ReKV at matched accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ReSVConfig
from repro.core.baselines import make_infinigen_p, make_rekv
from repro.core.resv import ReSVRetriever
from repro.model.llm import StreamingVideoLLM
from repro.model.streaming import FRAME_STAGE, StreamingSession
from repro.video.coin import CoinBenchmark, CoinBenchmarkConfig, CoinTask
from repro.video.qa import QA_ATTN_MIX, QA_FFN_MIX, QA_IDENTITY_BIAS, default_qa_model_config


@dataclass
class Fig20Result:
    """Per-layer / per-head retrieval ratios for each method."""

    per_layer: dict[str, dict[int, float]] = field(default_factory=dict)
    per_head: dict[str, dict[int, float]] = field(default_factory=dict)
    average: dict[str, float] = field(default_factory=dict)

    def ratio_spread(self, method: str) -> tuple[float, float]:
        """(min, max) per-layer retrieval ratio of a method."""
        values = list(self.per_layer[method].values())
        return (float(min(values)), float(max(values))) if values else (0.0, 0.0)

    def reduction_vs(self, method: str, baseline: str) -> float:
        """How many times fewer tokens ``method`` retrieves than ``baseline``."""
        if self.average[method] <= 0:
            return float("inf")
        return self.average[baseline] / self.average[method]


def run(num_steps: int = 8, seed: int = 0, wicsum_ratio: float = 0.3) -> Fig20Result:
    """Stream one episode per method and collect selection statistics."""
    model_config = default_qa_model_config()
    benchmark = CoinBenchmark(
        CoinBenchmarkConfig(
            hidden_dim=model_config.hidden_dim,
            tokens_per_frame=model_config.tokens_per_frame,
            num_steps=num_steps,
            seed=seed,
        )
    )
    episode = benchmark.generate_episode(CoinTask.RETRIEVAL_AT_FRAME, seed=seed)

    def resv_factory():
        return ReSVRetriever(
            model_config.num_layers,
            model_config.num_kv_heads,
            model_config.head_dim,
            ReSVConfig(wicsum_ratio=wicsum_ratio),
        )

    methods = {
        "ReSV": resv_factory,
        "InfiniGenP": make_infinigen_p,
        "ReKV": make_rekv,
    }
    model = StreamingVideoLLM(
        model_config,
        seed=seed,
        identity_bias=QA_IDENTITY_BIAS,
        attn_mix=QA_ATTN_MIX,
        ffn_mix=QA_FFN_MIX,
        query_transform=benchmark.query_transform,
    )
    result = Fig20Result()
    for name, factory in methods.items():
        session = StreamingSession(model, factory())
        for frame_id, frame in enumerate(episode.frames):
            session.process_frame(frame, frame_id=frame_id)
        for probe in episode.probes:
            session.ask(probe.question_embeddings)
        stats = session.stats
        result.per_layer[name] = stats.retrieval_ratio_per_layer(FRAME_STAGE)
        result.per_head[name] = stats.retrieval_ratio_per_head(FRAME_STAGE)
        result.average[name] = stats.retrieval_ratio(FRAME_STAGE)
    return result


def main() -> Fig20Result:
    """Print per-layer and per-head ratios."""
    result = run()
    print("Fig. 20 — retrieval ratio per layer / per head (frame processing stage)")
    for method, per_layer in result.per_layer.items():
        layers = " ".join(f"L{layer}:{100 * ratio:.0f}%" for layer, ratio in per_layer.items())
        heads = " ".join(f"H{head}:{100 * ratio:.0f}%" for head, ratio in result.per_head[method].items())
        print(f"  {method:11s} avg {100 * result.average[method]:5.1f}% | {layers} | {heads}")
    lo, hi = result.ratio_spread("ReSV")
    print(f"  ReSV per-layer spread: {100 * lo:.1f}%-{100 * hi:.1f}% (paper: 4.2%-44.0%)")
    print(f"  ReSV retrieves {result.reduction_vs('ReSV', 'ReKV'):.1f}x fewer tokens than ReKV "
          "(paper: 3.0x)")
    return result


if __name__ == "__main__":
    main()
