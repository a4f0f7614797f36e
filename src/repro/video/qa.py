"""Accuracy evaluation harness for the synthetic COIN benchmark.

The harness streams an episode's frames through a fresh
:class:`repro.model.streaming.StreamingSession` (with whatever retrieval
algorithm the method under test supplies), asks the episode's questions, decodes
the answers from the model's final hidden states, and reports top-1 accuracy
together with the frame-stage and generation-stage retrieval ratios — the
quantities Table II of the paper compares across methods.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.config import ModelConfig
from repro.model.llm import StreamingVideoLLM
from repro.model.streaming import FRAME_STAGE, GENERATION_STAGE, StreamingSession
from repro.video.coin import CoinBenchmark, CoinBenchmarkConfig, CoinEpisode, CoinTask

RetrieverFactory = Callable[[ModelConfig], object]


@dataclass
class EpisodeResult:
    """Per-episode evaluation outcome."""

    task: CoinTask
    correct: int
    total: int
    frame_retrieval_ratio: float
    generation_retrieval_ratio: float
    peak_cache_bytes: int


@dataclass
class MethodResult:
    """Aggregated evaluation of one retrieval method on one task."""

    method: str
    task: CoinTask
    episodes: list[EpisodeResult] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        correct = sum(e.correct for e in self.episodes)
        total = sum(e.total for e in self.episodes)
        return correct / total if total else 0.0

    @property
    def frame_retrieval_ratio(self) -> float:
        if not self.episodes:
            return 1.0
        return float(np.mean([e.frame_retrieval_ratio for e in self.episodes]))

    @property
    def generation_retrieval_ratio(self) -> float:
        if not self.episodes:
            return 1.0
        return float(np.mean([e.generation_retrieval_ratio for e in self.episodes]))


#: Calibrated substrate hyperparameters (README, "Experiments, ablations and
#: substitutions"): the identity bias and residual mixing weights are tuned
#: so that the *vanilla* model answers roughly 90 % of synthetic COIN probes
#: correctly, leaving headroom for retrieval methods to degrade it —
#: mirroring the paper's Table II setup.
QA_IDENTITY_BIAS = 2.5
QA_ATTN_MIX = 0.2
QA_FFN_MIX = 0.1


def default_qa_model_config(hidden_dim: int = 128, tokens_per_frame: int = 8) -> ModelConfig:
    """Model configuration used by the accuracy experiments.

    RoPE is disabled for the QA substrate: with untrained random weights the
    position rotation destroys long-range needle retrieval that a trained
    model would handle, and the accuracy experiments only compare retrieval
    methods against each other (README, "Experiments, ablations and
    substitutions").
    """
    return ModelConfig(
        name="qa-toy",
        num_layers=4,
        hidden_dim=hidden_dim,
        num_heads=4,
        num_kv_heads=4,
        ffn_dim=4 * hidden_dim,
        vocab_size=512,
        tokens_per_frame=tokens_per_frame,
        use_rope=False,
    )


def evaluate_episode(
    session: StreamingSession,
    episode: CoinEpisode,
    benchmark: CoinBenchmark,
    answer_tokens: int = 2,
) -> EpisodeResult:
    """Stream one episode through a fresh session and score its probes."""
    for frame_id, frame in enumerate(episode.frames):
        session.process_frame(frame, frame_id=frame_id)

    correct = 0
    for probe in episode.probes:
        hidden = session.ask(probe.question_embeddings)
        # The probe token's own embedding rides the residual stream with
        # weight one; subtracting it isolates what attention retrieved.
        readout = hidden[-1] - probe.question_embeddings[-1]
        predicted = benchmark.decode_answer(readout)
        if predicted == probe.answer_code:
            correct += 1
        if answer_tokens > 0:
            session.generate(answer_tokens, start_embedding=hidden[-1])

    stats = session.stats
    return EpisodeResult(
        task=episode.task,
        correct=correct,
        total=len(episode.probes),
        frame_retrieval_ratio=stats.retrieval_ratio(FRAME_STAGE),
        generation_retrieval_ratio=stats.retrieval_ratio(GENERATION_STAGE),
        peak_cache_bytes=stats.peak_cache_bytes,
    )


def evaluate_method(
    method_name: str,
    retriever_factory: RetrieverFactory | None,
    task: CoinTask,
    num_episodes: int = 4,
    model_config: ModelConfig | None = None,
    benchmark: CoinBenchmark | None = None,
    answer_tokens: int = 2,
    seed: int = 0,
) -> MethodResult:
    """Evaluate one retrieval method on ``num_episodes`` episodes of a task.

    ``retriever_factory`` receives the model config and returns a fresh
    retriever (or ``None`` for the vanilla full-attention baseline).  The
    model weights are shared across methods for a given seed, so accuracy
    differences are attributable to retrieval alone.
    """
    model_config = model_config or default_qa_model_config()
    benchmark = benchmark or CoinBenchmark(
        CoinBenchmarkConfig(
            hidden_dim=model_config.hidden_dim,
            tokens_per_frame=model_config.tokens_per_frame,
        )
    )
    if benchmark.config.hidden_dim != model_config.hidden_dim:
        raise ValueError("benchmark and model hidden_dim must match")

    model = StreamingVideoLLM(
        model_config,
        seed=seed,
        identity_bias=QA_IDENTITY_BIAS,
        attn_mix=QA_ATTN_MIX,
        ffn_mix=QA_FFN_MIX,
        query_transform=benchmark.query_transform,
    )
    retriever = retriever_factory(model_config) if retriever_factory is not None else None

    result = MethodResult(method=method_name, task=task)
    for episode_index in range(num_episodes):
        episode = benchmark.generate_episode(task, seed=seed * 1000 + episode_index)
        if retriever is not None:
            retriever.reset()
        session = StreamingSession(model, retriever)
        result.episodes.append(
            evaluate_episode(session, episode, benchmark, answer_tokens=answer_tokens)
        )
    return result
