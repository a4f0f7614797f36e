"""Multi-stream serving: N independent streams on one weights-only model.

The paper's deployment target is a serving system where many users stream
video concurrently.  A :class:`SessionBatch` holds one
:class:`repro.model.streaming.StreamingSession` per stream — each owns its
KV cache, position counter and retriever (from a per-session factory, e.g.
a shared prototype's ``spawn``), and all share the model's weights.  Frames
are prefilled in global arrival order (:meth:`SessionBatch.run_arrivals`),
questions and answers per stream, and per-stream statistics (retrieval
ratio, WiCSum sort fraction, clusters considered, HC-table occupancy) are
collected into :class:`repro.model.streaming.SessionReport` rows.

The functional substrate executes streams sequentially (numpy is
single-process); what the batch models is the *state isolation* and the
per-stream statistics a real async serving loop needs, which is exactly
what the performance plane consumes for batched latency estimates.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from repro.config import require_number
from repro.model.llm import StreamingVideoLLM
from repro.model.streaming import SessionReport, StreamingSession


class SessionBatch:
    """Serves N independent streams through one shared model.

    Parameters
    ----------
    model:
        The shared :class:`StreamingVideoLLM` (weights only are shared;
        every session builds fresh state).
    retriever_factory:
        A zero-argument callable returning a fresh retriever per session
        (``prototype.spawn`` shares a prototype's hash encoder but no
        mutable state); ``None`` serves every stream with full attention.
    num_sessions:
        How many sessions to open immediately (more can be added later).
    """

    def __init__(
        self,
        model: StreamingVideoLLM,
        retriever_factory: Callable[[], object] | None = None,
        num_sessions: int = 0,
    ):
        require_number("num_sessions", num_sessions, integer=True)
        self.model = model
        self._factory = retriever_factory
        self.sessions: list[StreamingSession] = []
        for _ in range(num_sessions):
            self.add_session()

    def __len__(self) -> int:
        return len(self.sessions)

    def add_session(self) -> StreamingSession:
        """Open a new stream; returns its session."""
        retriever = self._factory() if self._factory is not None else None
        session = StreamingSession(self.model, retriever, session_id=len(self.sessions))
        self.sessions.append(session)
        return session

    def run_arrivals(
        self,
        streams: Sequence[Sequence[np.ndarray]],
        arrivals: Sequence[Sequence[float]],
    ) -> list[tuple[float, int, int]]:
        """Process frames in global arrival order (arrival-aware stepping).

        ``streams[i]`` holds stream ``i``'s frames and ``arrivals[i]`` the
        matching finite, nondecreasing arrival times — the traces
        :mod:`repro.sim.arrivals` generates, or tick indices for a
        round-robin serving loop.  Frames are prefilled one at a time in
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
            require_number("num_tokens", num_tokens, integer=True)
            counts: list[int | None] = [num_tokens] * len(self.sessions)
        else:
            counts = list(num_tokens)
            if len(counts) != len(self.sessions):
                raise ValueError(
                    f"expected one token count per session ({len(self.sessions)}), "
                    f"got {len(counts)}"
                )
            for index, count in enumerate(counts):
                if count is not None:
                    require_number(f"num_tokens[{index}]", count, integer=True)
        return [
            None if count is None else session.generate(count)
            for session, count in zip(self.sessions, counts, strict=True)
        ]

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def reports(self) -> list[SessionReport]:
        """Per-stream statistics for every open session."""
        return [session.report() for session in self.sessions]
