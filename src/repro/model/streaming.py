"""Streaming session orchestration: iterative prefill + generation.

A :class:`StreamingSession` is one user's stream and the only owner of its
state: it builds a private KV cache, position counter and retriever binding
on the shared, weights-only model, and drives it the way the paper's
workload does (Fig. 2/3): video frames arrive one by one and are prefilled
into the KV cache; at some point a user question arrives, its tokens are
prefilled, and answer tokens are generated autoregressively.  The session
records retrieval statistics per stage, layer and head — these feed
Table II (retrieval ratios) and Fig. 20 (per-layer / per-head ratios) — and
summarises them, with its retriever's engine statistics, in a
:class:`SessionReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import require_number
from repro.model.llm import StreamingVideoLLM

FRAME_STAGE = "frame"
GENERATION_STAGE = "generation"


@dataclass
class RetrievalRecord:
    """Selection statistics of a single attention call."""

    stage: str
    layer: int
    past_tokens: int
    selected_per_head: tuple[int, ...]

    @property
    def ratio(self) -> float:
        """Fraction of past tokens fetched, averaged across KV heads."""
        if self.past_tokens == 0:
            return 1.0
        if not self.selected_per_head:
            return 1.0
        return float(np.mean(self.selected_per_head)) / self.past_tokens


@dataclass
class StreamStats:
    """Aggregated statistics of one streaming session."""

    records: list[RetrievalRecord] = field(default_factory=list)
    cache_lengths: list[int] = field(default_factory=list)
    cache_bytes: list[int] = field(default_factory=list)
    frames_processed: int = 0
    questions_asked: int = 0
    tokens_generated: int = 0

    def add(self, stage: str, layer_stats, cache_length: int, cache_bytes: int) -> None:
        """Record per-layer attention stats from one chunk."""
        for stats in layer_stats:
            self.records.append(
                RetrievalRecord(
                    stage=stage,
                    layer=stats.layer_index,
                    past_tokens=stats.past_tokens,
                    selected_per_head=tuple(stats.selected_tokens_per_head),
                )
            )
        self.cache_lengths.append(cache_length)
        self.cache_bytes.append(cache_bytes)

    def _stage_records(self, stage: str) -> list[RetrievalRecord]:
        return [r for r in self.records if r.stage == stage and r.past_tokens > 0]

    def retrieval_ratio(self, stage: str) -> float:
        """Mean retrieval ratio over all attention calls of a stage."""
        records = self._stage_records(stage)
        if not records:
            return 1.0
        return float(np.mean([r.ratio for r in records]))

    def retrieval_ratio_per_layer(self, stage: str) -> dict[int, float]:
        """Mean retrieval ratio keyed by layer index."""
        per_layer: dict[int, list[float]] = {}
        for record in self._stage_records(stage):
            per_layer.setdefault(record.layer, []).append(record.ratio)
        return {layer: float(np.mean(vals)) for layer, vals in sorted(per_layer.items())}

    def retrieval_ratio_per_head(self, stage: str) -> dict[int, float]:
        """Mean retrieval ratio keyed by KV-head index (averaged over layers)."""
        per_head: dict[int, list[float]] = {}
        for record in self._stage_records(stage):
            for head, selected in enumerate(record.selected_per_head):
                per_head.setdefault(head, []).append(selected / record.past_tokens)
        return {head: float(np.mean(vals)) for head, vals in sorted(per_head.items())}

    @property
    def peak_cache_bytes(self) -> int:
        return max(self.cache_bytes) if self.cache_bytes else 0


@dataclass
class SessionReport:
    """Per-stream summary of one serving session."""

    session_id: int
    frames_processed: int
    questions_asked: int
    tokens_generated: int
    cache_tokens: int
    cache_bytes: int
    frame_retrieval_ratio: float
    generation_retrieval_ratio: float
    sort_fraction: float = 0.0
    clusters_considered: int = 0
    wicsum_score_elements: int = 0
    num_clusters: int = 0
    mean_tokens_per_cluster: float = 0.0
    table_bytes: int = 0


class StreamingSession:
    """Drives a :class:`StreamingVideoLLM` through one stream's workload.

    The session builds its own :class:`repro.model.llm.LLMSessionState`
    (empty KV cache, position 0, ``retriever`` bound to every layer, or
    full attention when ``None``), so any number of sessions can share one
    model; :class:`repro.model.serving.SessionBatch` serves many of them.
    """

    def __init__(self, model: StreamingVideoLLM, retriever=None, session_id: int = 0):
        self.model = model
        self.session_id = session_id
        self.state = model.new_session_state(retriever)
        self.stats = StreamStats()

    @property
    def retriever(self):
        """Retriever attached to this session's state (may be ``None``)."""
        return self.state.retriever

    @property
    def cache_length(self) -> int:
        """Tokens currently held in this session's KV cache."""
        return len(self.state.cache)

    def kv_cache_bytes(self) -> int:
        """KV cache footprint of this session in model-precision bytes."""
        return self.state.cache.memory_bytes()

    def _set_stage(self, stage: str) -> None:
        """Tell the attached retriever which stage we are in (if it cares)."""
        retriever = self.state.retriever
        if retriever is not None and hasattr(retriever, "stage"):
            retriever.stage = stage

    def process_frame(self, frame_embeddings: np.ndarray, frame_id: int | None = None) -> np.ndarray:
        """Iterative-prefill one frame's visual tokens; returns hidden states."""
        if frame_id is None:
            frame_id = self.stats.frames_processed
        self._set_stage(FRAME_STAGE)
        hidden, layer_stats = self.model.prefill_frame(frame_embeddings, frame_id, state=self.state)
        self.stats.frames_processed += 1
        self.stats.add(FRAME_STAGE, layer_stats, self.cache_length, self.kv_cache_bytes())
        return hidden

    def ask(self, question_embeddings: np.ndarray) -> np.ndarray:
        """Prefill question tokens; returns their final hidden states."""
        self._set_stage(FRAME_STAGE)
        hidden, layer_stats = self.model.prefill_text(question_embeddings, state=self.state)
        self.stats.questions_asked += 1
        self.stats.add(FRAME_STAGE, layer_stats, self.cache_length, self.kv_cache_bytes())
        return hidden

    def generate(self, num_tokens: int, start_embedding: np.ndarray | None = None) -> np.ndarray:
        """Generate ``num_tokens`` answer tokens greedily.

        Each step feeds back the embedding of the argmax token of the
        previous step; the first step uses ``start_embedding`` (or the BOS
        embedding if omitted).  Returns the final hidden state of each
        generated position, shape ``(num_tokens, hidden_dim)``.
        """
        require_number("num_tokens", num_tokens, integer=True)
        if num_tokens == 0:
            return np.zeros((0, self.model.config.hidden_dim))
        if start_embedding is None:
            start_embedding = self.model.embedding[1]  # BOS row of the toy vocabulary
        self._set_stage(GENERATION_STAGE)
        current = np.asarray(start_embedding, dtype=np.float64)
        outputs = []
        for _ in range(num_tokens):
            hidden, layer_stats = self.model.decode_step(current, state=self.state)
            self.stats.tokens_generated += 1
            self.stats.add(
                GENERATION_STAGE, layer_stats, self.cache_length, self.kv_cache_bytes()
            )
            outputs.append(hidden[0])
            logits = self.model.logits(hidden[-1:])
            next_id = int(np.argmax(logits[0]))
            current = self.model.embedding[next_id]
        return np.stack(outputs, axis=0)

    def report(self) -> SessionReport:
        """Summarise this stream's retrieval behaviour."""
        stats = self.stats
        report = SessionReport(
            session_id=self.session_id,
            frames_processed=stats.frames_processed,
            questions_asked=stats.questions_asked,
            tokens_generated=stats.tokens_generated,
            cache_tokens=self.cache_length,
            cache_bytes=self.kv_cache_bytes(),
            frame_retrieval_ratio=stats.retrieval_ratio(FRAME_STAGE),
            generation_retrieval_ratio=stats.retrieval_ratio(GENERATION_STAGE),
        )
        retriever = self.retriever
        engine_stats = getattr(retriever, "stats", None)
        if engine_stats is not None:
            report.sort_fraction = engine_stats.sort_fraction
            report.clusters_considered = engine_stats.clusters_considered
            report.wicsum_score_elements = engine_stats.total_elements
        occupancy_fn = getattr(retriever, "occupancy", None)
        if occupancy_fn is not None:
            occupancy = occupancy_fn()
            report.num_clusters = occupancy.num_clusters
            report.mean_tokens_per_cluster = occupancy.mean_tokens_per_cluster
            report.table_bytes = occupancy.table_bytes
        return report
