"""Fig. 7 — spatial-temporal key similarity and hash-bit fidelity.

(a) Cosine-similarity structure of key tokens across adjacent frames of a
    COIN-like video (high similarity between corresponding tokens).
(b) Correlation between cosine similarity and hash-bit Hamming distance —
    the paper reports ~0.8, which justifies clustering on the cheap
    signatures instead of full-precision keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.metrics import pearson_correlation
from repro.core.hashbit import HashBitEncoder, cosine_similarity_matrix, pairwise_hamming
from repro.model.llm import StreamingVideoLLM
from repro.video.coin import CoinBenchmark, CoinBenchmarkConfig, CoinTask
from repro.video.qa import QA_ATTN_MIX, QA_FFN_MIX, QA_IDENTITY_BIAS, default_qa_model_config


@dataclass
class Fig07Result:
    """Similarity heat-map and cosine-vs-Hamming correlation."""

    layer: int
    n_hyperplanes: int
    adjacent_cosine_mean: float
    cosine_matrix: np.ndarray = field(repr=False, default=None)
    hamming_matrix: np.ndarray = field(repr=False, default=None)
    correlation: float = 0.0


def run(
    layer: int = 2,
    kv_head: int = 0,
    n_hyperplanes: int = 32,
    num_frames: int = 12,
    seed: int = 0,
) -> Fig07Result:
    """Collect layer keys from the substrate model and compare metrics.

    The paper measures the 3rd layer's keys on COIN; the substrate streams a
    synthetic COIN episode through the functional model and inspects the
    same layer's accumulated key cache.
    """
    model_config = default_qa_model_config()
    benchmark = CoinBenchmark(
        CoinBenchmarkConfig(
            hidden_dim=model_config.hidden_dim,
            tokens_per_frame=model_config.tokens_per_frame,
            num_steps=max(num_frames // 4, 2),
            seed=seed,
        )
    )
    episode = benchmark.generate_episode(CoinTask.RETRIEVAL_AT_FRAME, seed=seed)
    model = StreamingVideoLLM(
        model_config,
        seed=seed,
        identity_bias=QA_IDENTITY_BIAS,
        attn_mix=QA_ATTN_MIX,
        ffn_mix=QA_FFN_MIX,
        query_transform=benchmark.query_transform,
    )
    state = model.new_session_state()
    for frame_id, frame in enumerate(episode.frames[:num_frames]):
        model.prefill_frame(frame, frame_id, state)

    keys = state.cache.layer(layer).keys[kv_head]
    tokens_per_frame = model_config.tokens_per_frame
    adjacent = []
    for start in range(0, keys.shape[0] - 2 * tokens_per_frame + 1, tokens_per_frame):
        current = keys[start : start + tokens_per_frame]
        following = keys[start + tokens_per_frame : start + 2 * tokens_per_frame]
        cos = cosine_similarity_matrix(current, following)
        adjacent.append(float(np.mean(np.diag(cos))))

    cosine_matrix = cosine_similarity_matrix(keys, keys)
    encoder = HashBitEncoder(keys.shape[1], n_hyperplanes, seed=seed)
    bits = encoder.encode(keys)
    hamming_matrix = pairwise_hamming(bits, bits)

    upper = np.triu_indices(keys.shape[0], k=1)
    # Hamming distance should be anti-correlated with cosine similarity;
    # report the magnitude (the paper quotes "0.8 correlation").
    correlation = -pearson_correlation(cosine_matrix[upper], hamming_matrix[upper])

    return Fig07Result(
        layer=layer,
        n_hyperplanes=n_hyperplanes,
        adjacent_cosine_mean=float(np.mean(adjacent)) if adjacent else 0.0,
        cosine_matrix=cosine_matrix,
        hamming_matrix=hamming_matrix,
        correlation=correlation,
    )


def main() -> Fig07Result:
    """Print the Fig. 7 headline numbers."""
    result = run()
    print("Fig. 7 — key similarity and hash-bit fidelity")
    print(f"  layer {result.layer}, {result.n_hyperplanes} hash bits")
    print(f"  mean cosine similarity of corresponding tokens in adjacent frames: "
          f"{result.adjacent_cosine_mean:.3f}")
    print(f"  |correlation(cosine similarity, Hamming distance)|: {result.correlation:.3f} "
          "(paper: ~0.8)")
    return result


if __name__ == "__main__":
    main()
