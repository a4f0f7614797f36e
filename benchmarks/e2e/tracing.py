"""In-memory span recorder for the e2e benchmark.

Spans are recorded *from outside the program*: the harness opens one around
every call into a layer's public API (and wraps a few public callables so
nested calls — a retriever's ``select`` inside ``run_arrivals``, a device's
``ServingScheduler.run`` inside ``FleetScheduler.run`` — become child
spans).  Nothing under ``src/`` knows it is being traced.

A span is ``(name, start_s, end_s, parent index, pass id)``.  A layer's
*self time* is its span minus the part its direct children cover, so the
self times of a pass sum to the pass's wall time exactly; whatever the root
span keeps for itself is the harness's own unattributed glue.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

#: name of the span that brackets one traced pass (the timed region)
ROOT = "pass"


@dataclass
class Span:
    name: str
    start_s: float
    end_s: float
    parent: int  # index into Tracer.spans, -1 for a root
    pass_id: int

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class NullTracer:
    """The tracer of untraced passes: every hook is a no-op."""

    _NO_SPAN = nullcontext()

    def span(self, name: str):
        return self._NO_SPAN

    def wrap(self, name: str, fn: Callable) -> Callable:
        return fn


class Tracer:
    """Records nested spans on one thread; written out after the run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.pass_id)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            span.end_s = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a ``name`` span."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    def self_times(self, pass_id: int) -> dict[str, float]:
        """Per-name self time of one pass: span minus direct children."""
        own = [s.duration_s if s.pass_id == pass_id else 0.0 for s in self.spans]
        for span in self.spans:
            if span.pass_id == pass_id and span.parent >= 0:
                own[span.parent] -= span.duration_s
        totals: dict[str, float] = {}
        for span, self_s in zip(self.spans, own, strict=True):
            if span.pass_id == pass_id:
                totals[span.name] = totals.get(span.name, 0.0) + self_s
        return totals

    def totals(self, pass_id: int) -> dict[str, tuple[float, int]]:
        """Per-name (inclusive seconds, call count) of one pass."""
        out: dict[str, tuple[float, int]] = {}
        for span in self.spans:
            if span.pass_id == pass_id:
                seconds, calls = out.get(span.name, (0.0, 0))
                out[span.name] = (seconds + span.duration_s, calls + 1)
        return out

    def write_chrome_trace(self, path: Path) -> None:
        """Dump every span as a Chrome trace-event ``X`` (complete) event."""
        origin = self.spans[0].start_s if self.spans else 0.0
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start_s - origin) * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": span.parent, "pass": span.pass_id},
            }
            for index, span in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
