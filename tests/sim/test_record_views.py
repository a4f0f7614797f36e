"""Property tests for the record plane's two views of a run's columns.

* **The grouped summariser** (:class:`TestGroupedSummaries`):
  ``stream_summaries``, ``fleet_summary`` and ``device_summaries`` come
  from one vectorised pass over all groups.  On random record columns —
  empty streams, all-dropped streams, one-job streams, tied sojourns,
  deadlines on and off, ``q`` in ``{0, 100}`` plus random values — every
  field equals, bit for bit, an oracle that calls ``np.percentile`` /
  ``.mean()`` / ``.max()`` once per group on that group's rows.  A numpy
  release that changes its ``linear`` interpolation fails here.
* **The record sequence** (:class:`TestRecordSequence`): ``.records``
  builds rows on access.  It must equal the eager list-of-rows build
  element-wise, index and slice like a list, and compare like one.
* **The API boundary** (:class:`TestBoundary`): percentiles outside
  ``[0, 100]`` and unknown job kinds raise a ``ValueError`` naming the
  argument, whatever the run served.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.devtools.differential import diff_records
from repro.sim.fleet import DeviceRun, FleetConfig, FleetResult
from repro.sim.jobtable import ADMISSION_NAMES, KIND_NAMES, RecordColumns
from repro.sim.scheduler import (
    JobRecord,
    LatencySummary,
    RecordSequence,
    ScheduleResult,
    SchedulerConfig,
)

SOJOURNS = (0.0, 0.25, 0.5, 1.5)  # a small pool, so ties are common

#: dtype of each ``RecordColumns.FIELDS`` column, in order
_DTYPES = (np.int64,) * 4 + (float,) * 3 + (bool, np.int64) + (float,) * 3


def _columns_from_rows(rows: list[tuple], deadline_s: float | None) -> RecordColumns:
    """Sorted columns of ``FIELDS``-ordered row tuples in record order."""
    fields = zip(RecordColumns.FIELDS, _DTYPES, strict=True)
    columns = {
        name: np.array([row[position] for row in rows], dtype=dtype)
        for position, (name, dtype) in enumerate(fields)
    }
    return RecordColumns.merged([RecordColumns(deadline_s=deadline_s, **columns)])


@st.composite
def record_columns(draw, max_streams: int = 5, max_jobs: int = 7):
    """``(num_streams, sorted RecordColumns)``; a stream may have no jobs."""
    num_streams = draw(st.integers(0, max_streams))
    rows = []
    for stream in range(num_streams):
        drop = draw(st.sampled_from(("none", "all", "some")))
        for index in range(draw(st.integers(0, max_jobs))):
            dropped = drop == "all" or (drop == "some" and draw(st.booleans()))
            arrival = draw(st.floats(0.0, 100.0))
            sojourn = draw(st.sampled_from(SOJOURNS) | st.floats(0.0, 10.0))
            rows.append(
                (
                    stream,
                    100 + stream,
                    draw(st.integers(0, len(KIND_NAMES) - 1)),
                    index,
                    arrival,
                    arrival,
                    arrival + sojourn,
                    dropped,
                    draw(st.integers(0, len(ADMISSION_NAMES) - 1)),
                    draw(st.floats(0.0, 1.0)),
                    0.0,
                    draw(st.floats(0.0, 1.0)),
                )
            )
    deadline = draw(st.none() | st.sampled_from(SOJOURNS[1:]))
    return num_streams, _columns_from_rows(rows, deadline)


percentile_sets = st.lists(
    st.floats(0.0, 100.0) | st.integers(0, 100), max_size=3
).map(lambda extra: (0.0, 100, *extra))


def _oracle(scope: str, columns: RecordColumns, mask: np.ndarray, percentiles, **ids):
    """One group's summary: numpy once per statistic on the group's own rows."""
    served = mask & ~columns.dropped
    sojourns = columns.finish[served] - columns.arrival[served]
    jobs, count = int(mask.sum()), int(served.sum())
    nan = float("nan")
    return LatencySummary(
        scope=scope,
        jobs=jobs,
        served=count,
        dropped=jobs - count,
        percentiles_ms={
            f"p{q:g}": float(np.percentile(sojourns, q)) * 1e3 if count else nan
            for q in percentiles
        },
        mean_ms=float(sojourns.mean()) * 1e3 if count else nan,
        max_ms=float(sojourns.max()) * 1e3 if count else nan,
        deadline_miss_rate=int(columns.missed[served].sum()) / count if count else 0.0,
        drop_rate=(jobs - count) / jobs if jobs else 0.0,
        **ids,
    )


def _schedule(num_streams: int, columns: RecordColumns) -> ScheduleResult:
    return ScheduleResult("test", SchedulerConfig(), num_streams, columns)


class TestGroupedSummaries:
    @given(record_columns(), percentile_sets, st.sampled_from((None, *KIND_NAMES)))
    def test_stream_and_fleet_summaries_match_per_group_numpy(self, drawn, percentiles, kind):
        num_streams, columns = drawn
        result = _schedule(num_streams, columns)
        of_kind = np.ones(len(columns), dtype=bool)
        if kind is not None:
            of_kind = columns.kind == KIND_NAMES.index(kind)
        expected = []
        for stream in range(num_streams):
            mask = of_kind & (columns.stream == stream)
            expected.append(
                _oracle(
                    f"stream {stream}",
                    columns,
                    mask,
                    percentiles,
                    stream_index=stream,
                    session_id=100 + stream if mask.any() else None,
                )
            )
        # repr is exact for floats (and spells NaN one way), so this is bit for bit
        assert repr(result.stream_summaries(percentiles, kind=kind)) == repr(expected)
        assert repr(result.fleet_summary(percentiles, kind=kind)) == repr(
            _oracle("fleet", columns, of_kind, percentiles)
        )

    @given(st.lists(st.none() | record_columns(max_streams=3), min_size=1, max_size=4),
           st.none() | st.sampled_from(SOJOURNS[1:]), percentile_sets)  # fmt: skip
    def test_device_summaries_match_per_device_numpy(self, drawn, deadline, percentiles):
        """``None`` is an idle device; each summary is over its own columns."""
        devices = []
        for device, part in enumerate(drawn):
            if part is None:
                devices.append(DeviceRun(device, [], None))
                continue
            num_streams, columns = part
            columns = RecordColumns(  # one fleet, one deadline
                deadline_s=deadline,
                **{name: getattr(columns, name) for name in RecordColumns.FIELDS},
            )
            devices.append(DeviceRun(device, [], _schedule(num_streams, columns), columns))
        if all(run.schedule is None for run in devices):
            return  # a fleet with no records at all has no columns to read
        fleet = FleetResult(
            "test",
            SchedulerConfig(),
            FleetConfig(num_devices=len(devices)),
            devices,
            placement={},
            stream_devices=[],
            migrations=[],
            interconnect=None,
        )
        expected = []
        for run in devices:
            columns = run.columns if run.schedule is not None else fleet.columns
            mask = np.full(len(columns), run.schedule is not None)
            expected.append(_oracle(f"device {run.device}", columns, mask, percentiles))
        assert repr(fleet.device_summaries(percentiles)) == repr(expected)

    def test_linear_rule_at_the_interpolation_branches(self):
        """Spot values on both sides of ``gamma = 0.5`` and at the ends.

        On these sojourns the two ``_lerp`` branches round differently at
        q = 70 (gamma 0.1, numpy takes ``a + d * g``) and q = 90 (gamma
        0.7, numpy takes ``b - d * (1 - g)``), so using either branch
        everywhere fails here.
        """
        sojourns = [0.1, 0.7, 0.2, 1.3]
        columns = _columns_from_rows(
            [(0, 0, 0, i, 1.0, 1.0, 1.0 + s, False, 0, 0.0, 0.0, 0.0)
             for i, s in enumerate(sojourns)],
            None,
        )  # fmt: skip
        percentiles = (0, 10, 49.9, 50, 50.1, 70, 83.3, 90, 99, 100)
        summary = _schedule(1, columns).fleet_summary(percentiles)
        finish_minus_arrival = np.array([1.0 + s for s in sojourns]) - 1.0
        for q in percentiles:
            assert summary.percentile_ms(q) == float(
                np.percentile(finish_minus_arrival, q)
            ) * 1e3


def _records_from_columns(columns: RecordColumns) -> list[JobRecord]:
    """The eager build: every row, field by field, from per-column lists."""
    fields = {name: getattr(columns, name).tolist() for name in (*columns.FIELDS, "missed")}
    return [
        JobRecord(
            stream_index=fields["stream"][i],
            session_id=fields["session"][i],
            kind=KIND_NAMES[fields["kind"][i]],
            job_index=fields["index"][i],
            arrival_s=fields["arrival"][i],
            start_s=fields["start"][i],
            finish_s=fields["finish"][i],
            dropped=fields["dropped"][i],
            deadline_missed=fields["missed"][i],
            pcie_wait_s=fields["pcie_wait"][i],
            dre_wait_s=fields["dre_wait"][i],
            compute_wait_s=fields["compute_wait"][i],
            admission=ADMISSION_NAMES[fields["admission"][i]],
        )
        for i in range(len(columns))
    ]


class TestRecordSequence:
    @given(record_columns(max_streams=4, max_jobs=5), st.data())
    def test_rows_indices_and_slices_match_the_eager_list(self, drawn, data):
        _, columns = drawn
        view, rows = RecordSequence(columns), _records_from_columns(columns)
        assert len(view) == len(rows)
        assert list(view) == rows
        for position in range(-len(rows), len(rows)):
            assert view[position] == rows[position]
        for position in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                view[position]
        window = data.draw(st.slices(len(rows) + 2))
        assert isinstance(view[window], RecordSequence)
        assert list(view[window]) == rows[window]
        assert view[window] == rows[window] and rows[window] == view[window]

    def test_iteration_crosses_row_batches(self):
        count = 10_000  # more than one batch of rows
        columns = _columns_from_rows(
            [(i % 7, i % 7, i % 3, i, 0.0, 0.0, float(i), i % 5 == 0, i % 4, 0.0, 0.0, 0.0)
             for i in range(count)],
            deadline_s=1000.0,
        )  # fmt: skip
        assert list(RecordSequence(columns)) == _records_from_columns(columns)

    @given(record_columns(max_streams=4, max_jobs=5), st.data())
    def test_equality_both_operand_orders(self, drawn, data):
        _, columns = drawn
        view, rows = RecordSequence(columns), _records_from_columns(columns)
        twin = RecordSequence(columns.replaced())
        for left, right in ((view, twin), (view, rows), (rows, view)):
            assert left == right and not left != right
        assert view != rows[:-1] or not rows
        assert view != tuple(rows)  # only lists compare row by row, as a list would
        if not rows:
            return
        position = data.draw(st.integers(0, len(rows) - 1))
        finish = columns.finish.copy()
        finish[position] += 1.0
        moved = RecordSequence(columns.replaced(finish=finish))
        moved_rows = [*rows[:position], replace(rows[position], finish_s=finish[position]),
                      *rows[position + 1:]]  # fmt: skip
        for left, right in ((view, moved), (moved, view), (view, moved_rows),
                            (moved_rows, view)):  # fmt: skip
            assert left != right and not left == right

    @given(record_columns(max_streams=3, max_jobs=4).filter(lambda d: len(d[1])), st.data())
    def test_a_nan_field_never_compares_equal(self, drawn, data):
        """As two independently built row lists: NaN == NaN is False."""
        _, columns = drawn
        position = data.draw(st.integers(0, len(columns) - 1))
        dre = columns.dre_wait.copy()
        dre[position] = math.nan
        columns = columns.replaced(dre_wait=dre)
        view = RecordSequence(columns)
        assert _records_from_columns(columns) != _records_from_columns(columns)
        for left, right in ((view, view), (view, RecordSequence(columns)),
                            (view, _records_from_columns(columns)),
                            (_records_from_columns(columns), view)):  # fmt: skip
            assert left != right and not left == right
        assert math.isnan(view[position].dre_wait_s)

    @given(record_columns(max_streams=3, max_jobs=4), st.data())
    def test_diff_of_sequences_matches_diff_of_lists(self, drawn, data):
        _, columns = drawn
        start = columns.start.copy()
        flipped = data.draw(st.sets(st.integers(0, max(len(start) - 1, 0))))
        for position in flipped & set(range(len(start))):
            start[position] = -1.0
        other = columns.replaced(start=start)
        of_views = diff_records(RecordSequence(columns), RecordSequence(other))
        of_lists = diff_records(_records_from_columns(columns), _records_from_columns(other))
        assert of_views == of_lists

    @given(record_columns(max_streams=4, max_jobs=5),
           st.none() | st.integers(0, 4), st.none() | st.sampled_from(KIND_NAMES))  # fmt: skip
    def test_jobs_selects_the_matching_rows(self, drawn, stream, kind):
        num_streams, columns = drawn
        expected = [
            row
            for row in _records_from_columns(columns)
            if (stream is None or row.stream_index == stream) and (kind is None or row.kind == kind)
        ]
        assert _schedule(num_streams, columns).jobs(stream, kind) == expected


def _run(dropped: list[bool]) -> ScheduleResult:
    columns = _columns_from_rows(
        [(0, 0, 0, i, 0.0, 0.0, 1.0 + i, gone, 2 if gone else 0, 0.0, 0.0, 0.0)
         for i, gone in enumerate(dropped)],
        deadline_s=None,
    )  # fmt: skip
    return _schedule(1, columns)


class TestBoundary:
    @pytest.mark.parametrize("dropped", [[True, True], [False, True]], ids=["none_served", "served"])
    @pytest.mark.parametrize("q", [150, -1, math.nan, math.inf])
    def test_percentiles_outside_0_100_raise_naming_the_argument(self, dropped, q):
        result = _run(dropped)
        for summarize in (result.fleet_summary, result.stream_summaries):
            with pytest.raises(ValueError, match="percentiles"):
                summarize(percentiles=(50, q))

    def test_device_summaries_validate_percentiles(self):
        result = _run([False])
        fleet = FleetResult(
            "test",
            SchedulerConfig(),
            FleetConfig(),
            [DeviceRun(0, [0], result, result.columns)],
            placement={},
            stream_devices=[0],
            migrations=[],
            interconnect=None,
        )
        with pytest.raises(ValueError, match="percentiles"):
            fleet.device_summaries(percentiles=(101,))

    @pytest.mark.parametrize(
        "view",
        [
            lambda r: r.jobs(kind="bogus"),
            lambda r: r.fleet_summary(kind="bogus"),
            lambda r: r.stream_summaries(kind="bogus"),
        ],
        ids=["jobs", "fleet_summary", "stream_summaries"],
    )
    def test_unknown_kind_raises_naming_the_argument(self, view):
        with pytest.raises(ValueError, match="unknown kind 'bogus'"):
            view(_run([False, True]))
