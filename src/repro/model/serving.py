"""Multi-stream serving: N independent retrieval sessions on one engine.

The paper's deployment target is a serving system where many users stream
video concurrently.  This module provides the batching layer on top of the
session-state split in :mod:`repro.model.llm`:

* :class:`RetrievalSession` — one user's stream: its own KV cache,
  position counter and retriever state (spawned from a shared prototype),
  driven by the shared model weights.
* :class:`SessionBatch` — a set of sessions served round-robin; frames are
  interleaved across streams the way a serving loop would, and per-stream
  statistics (retrieval ratio, WiCSum sort fraction, clusters considered,
  HC-table occupancy) are collected into :class:`SessionReport` rows.

The functional substrate executes streams sequentially (numpy is
single-process); what the batch models is the *state isolation* and the
per-stream statistics a real async serving loop needs, which is exactly
what the performance plane consumes for batched latency estimates.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.model.llm import StreamingVideoLLM
from repro.model.streaming import FRAME_STAGE, GENERATION_STAGE, StreamingSession


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


class RetrievalSession(StreamingSession):
    """A :class:`StreamingSession` bound to its own private session state."""

    def __init__(self, model: StreamingVideoLLM, retriever=None, session_id: int = 0):
        super().__init__(model, state=model.new_session_state(retriever))
        self.session_id = session_id

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


class SessionBatch:
    """Serves N independent streams through one shared model.

    Parameters
    ----------
    model:
        The shared :class:`StreamingVideoLLM` (weights only are shared;
        every session gets fresh state).
    retriever:
        Optional retriever *prototype*; each session receives
        ``prototype.spawn()`` so streams never share mutable state.
    retriever_factory:
        Alternative to ``retriever``: a zero-argument callable returning a
        fresh retriever per session.  Mutually exclusive with ``retriever``.
    num_sessions:
        How many sessions to open immediately (more can be added later).
    """

    def __init__(
        self,
        model: StreamingVideoLLM,
        retriever=None,
        retriever_factory: Callable[[], object] | None = None,
        num_sessions: int = 0,
    ):
        if retriever is not None and retriever_factory is not None:
            raise ValueError("pass either a retriever prototype or a factory, not both")
        self.model = model
        self._prototype = retriever
        self._factory = retriever_factory
        self.sessions: list[RetrievalSession] = []
        for _ in range(num_sessions):
            self.add_session()

    def __len__(self) -> int:
        return len(self.sessions)

    def _new_retriever(self):
        if self._factory is not None:
            return self._factory()
        if self._prototype is not None:
            return self._prototype.spawn()
        return None

    def add_session(self, retriever=None) -> RetrievalSession:
        """Open a new stream; returns its session."""
        if retriever is None:
            retriever = self._new_retriever()
        session = RetrievalSession(self.model, retriever, session_id=len(self.sessions))
        self.sessions.append(session)
        return session

    # ------------------------------------------------------------------ #
    # batched serving steps (round-robin across streams)
    # ------------------------------------------------------------------ #
    def process_frames(
        self, frames: Sequence[np.ndarray | None], frame_id: int | None = None
    ) -> list[np.ndarray | None]:
        """One serving tick: prefill one frame per stream (``None`` skips).

        ``frames[i]`` is the next frame of stream ``i``; streams that have
        no frame this tick (stalled upload, ended video) pass ``None``.
        """
        if len(frames) != len(self.sessions):
            raise ValueError(
                f"expected one frame slot per session ({len(self.sessions)}), got {len(frames)}"
            )
        outputs: list[np.ndarray | None] = []
        for session, frame in zip(self.sessions, frames, strict=True):
            if frame is None:
                outputs.append(None)
            else:
                outputs.append(session.process_frame(frame, frame_id=frame_id))
        return outputs

    def run_arrivals(
        self,
        streams: Sequence[Sequence[np.ndarray]],
        arrivals: Sequence[Sequence[float]],
    ) -> list[tuple[float, int, int]]:
        """Process frames in global arrival order (arrival-aware stepping).

        ``streams[i]`` holds stream ``i``'s frames and ``arrivals[i]`` the
        matching finite, nondecreasing arrival times — the traces
        :mod:`repro.sim.arrivals` generates.  Instead of the round-robin
        tick of :meth:`run_streams`, frames are prefilled one at a time in
        nondecreasing arrival time (ties broken by stream index), the
        admission order an event-driven scheduler would use; each stream
        still sees its own frames in order.  Returns the processed
        ``(arrival_time, stream_index, frame_index)`` schedule, which is
        what the performance-plane scheduler consumes as ground truth.
        """
        if len(streams) != len(self.sessions):
            raise ValueError(
                f"expected one stream per session ({len(self.sessions)}), got {len(streams)}"
            )
        if len(arrivals) != len(self.sessions):
            raise ValueError(
                f"expected one arrival trace per session ({len(self.sessions)}), "
                f"got {len(arrivals)}"
            )
        events: list[tuple[float, int, int]] = []
        frame_lists = [list(frames) for frames in streams]
        for stream_index, (frames, times) in enumerate(zip(frame_lists, arrivals, strict=True)):
            times = [float(t) for t in times]
            if len(times) != len(frames):
                raise ValueError(
                    f"stream {stream_index} has {len(frames)} frames but "
                    f"{len(times)} arrival times"
                )
            if not all(math.isfinite(time) for time in times):
                raise ValueError(f"arrival trace of stream {stream_index} must be finite")
            if any(later < earlier for earlier, later in zip(times, times[1:], strict=False)):
                raise ValueError(
                    f"arrival trace of stream {stream_index} must be nondecreasing"
                )
            events.extend(
                (time, stream_index, frame_index)
                for frame_index, time in enumerate(times)
            )
        events.sort()
        for _time, stream_index, frame_index in events:
            self.sessions[stream_index].process_frame(frame_lists[stream_index][frame_index])
        return events

    def run_streams(self, streams: Sequence[Iterable[np.ndarray]]) -> None:
        """Interleave whole videos round-robin until every stream is drained.

        A stream may yield ``None`` for a stalled tick (no frame this round)
        without being considered finished; only iterator exhaustion ends it.
        """
        if len(streams) != len(self.sessions):
            raise ValueError(
                f"expected one stream per session ({len(self.sessions)}), got {len(streams)}"
            )
        exhausted = object()
        iterators = [iter(stream) for stream in streams]
        live = [True] * len(iterators)
        while any(live):
            frames: list[np.ndarray | None] = []
            for index, iterator in enumerate(iterators):
                if not live[index]:
                    frames.append(None)
                    continue
                frame = next(iterator, exhausted)
                if frame is exhausted:
                    live[index] = False
                    frames.append(None)
                else:
                    frames.append(frame)
            if any(frame is not None for frame in frames):
                self.process_frames(frames)

    def ask_all(self, questions: Sequence[np.ndarray | None]) -> list[np.ndarray | None]:
        """Prefill one question per stream (``None`` skips a stream)."""
        if len(questions) != len(self.sessions):
            raise ValueError(
                f"expected one question per session ({len(self.sessions)}), got {len(questions)}"
            )
        return [
            None if question is None else session.ask(question)
            for session, question in zip(self.sessions, questions, strict=True)
        ]

    def generate_all(
        self, num_tokens: int | Sequence[int | None]
    ) -> list[np.ndarray | None]:
        """Generate answer tokens per stream.

        A scalar generates the same number of tokens for every stream; a
        sequence gives each stream its own count, with ``None`` (or 0)
        skipping a stream the way ``ask_all`` does — a batch where only some
        streams asked a question must not generate (or record stats for)
        answer tokens on the idle ones.
        """
        if isinstance(num_tokens, (int, np.integer)):
            counts: list[int | None] = [int(num_tokens)] * len(self.sessions)
        else:
            counts = list(num_tokens)
            if len(counts) != len(self.sessions):
                raise ValueError(
                    f"expected one token count per session ({len(self.sessions)}), "
                    f"got {len(counts)}"
                )
        return [
            None if count is None else session.generate(int(count))
            for session, count in zip(self.sessions, counts, strict=True)
        ]

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def reports(self) -> list[SessionReport]:
        """Per-stream statistics for every open session."""
        return [session.report() for session in self.sessions]
