"""Oracles the suite checks the package against — a reference retriever, a
lookup into an energy report's per-resource rows and a scheduler run's
intervals as named tasks — and the one way a test edits a scheduler run's
priced stage table.

``tests/`` is on ``sys.path`` (pytest prepends the directory of the root
``conftest.py``), so any test module can ``from oracles import ...``.
"""

from __future__ import annotations

import numpy as np

from repro.core.retrieval_base import KVRetriever, Selection
from repro.model.kvcache import LayerKVCache


class FullRetriever(KVRetriever):
    """Fetches the entire cache — functionally identical to no retrieval.

    The vanilla baseline: it exercises the light-attention code path while
    producing the substrate's reference outputs.
    """

    name = "full"

    def observe_keys(
        self, layer: int, keys: np.ndarray, positions: np.ndarray, frame_id: int
    ) -> None:
        del layer, keys, positions, frame_id

    def select(self, layer: int, queries: np.ndarray, cache: LayerKVCache) -> Selection:
        del layer, queries
        return Selection.full(cache.num_kv_heads, len(cache))


def energy_row(report, name: str):
    """The row of ``report.resources`` named ``name`` (``KeyError`` if absent)."""
    for row in report.resources:
        if row.name == name:
            return row
    raise KeyError(name)


def run_intervals(result):
    """A scheduler run's intervals as named tasks, in run order.

    Each row of the job table's interval columns (``JobTable._intervals``)
    becomes a :class:`~repro.hw.event.TimelineTask` named
    ``s<session>/<kind><index>`` on ``vision:s<stream>``, ``compute:s<stream>``
    (one shared ``compute`` under time-sliced compute), ``dre`` or ``pcie``.
    """
    from repro.hw.event import TimelineTask
    from repro.sim.jobtable import KIND_NAMES

    table = result._table
    job, code, start, duration = table._intervals()
    resources = ("vision:s{}", "compute" if table.timesliced else "compute:s{}", "dre", "pcie")
    return [
        TimelineTask(
            f"s{table.session[j]}/{KIND_NAMES[table.kind[j]]}{table.index[j]}",
            resources[c].format(table.stream[j]),
            t,
            d,
        )
        for j, c, t, d in zip(job.tolist(), code.tolist(), start.tolist(), duration.tolist())
    ]


def assert_intervals_equal(a, b):
    """Two scheduler runs' interval columns are equal, dtype and all."""
    for column_a, column_b in zip(a._table._intervals(), b._table._intervals(), strict=True):
        assert column_a.dtype == column_b.dtype
        assert np.array_equal(column_a, column_b)


def patch_stages(monkeypatch, **kinds):
    """Let every scheduler run's priced stage table take new column values.

    ``kind={field: value}`` sets column ``field`` of the
    :class:`~repro.sim.scheduler.StageTable` on every stream's row of job
    kind ``kind`` (``frame``, ``question`` or ``generation``); a callable
    value is called with the stream index.
    """
    from repro.sim.jobtable import KIND_NAMES
    from repro.sim.scheduler import ServingScheduler

    priced = ServingScheduler._priced_stages

    def patched(self, *args):
        stages = priced(self, *args)
        for kind, fields in kinds.items():
            for field, value in fields.items():
                column = getattr(stages, field)
                for stream, b in enumerate(range(KIND_NAMES.index(kind), len(column), 3)):
                    column[b] = value(stream) if callable(value) else value
        return stages

    monkeypatch.setattr(ServingScheduler, "_priced_stages", patched)
