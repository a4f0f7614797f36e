"""Tests for the stochastic arrival-process generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.arrivals import (
    BurstyArrivals,
    DeterministicArrivals,
    PoissonArrivals,
    rate_for_load,
)
from repro.sim.batched import aligned_arrivals, staggered_arrivals

ALL_PROCESSES = [
    DeterministicArrivals(period_s=0.5, spacing_s=0.1),
    PoissonArrivals(rate_hz=3.0),
    BurstyArrivals(burst_rate_hz=10.0, mean_burst_frames=4.0, mean_idle_s=0.5),
]


def _ids(processes):
    return [type(process).__name__ for process in processes]


class TestSeededDeterminism:
    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=_ids(ALL_PROCESSES))
    def test_same_seed_identical_trace(self, process):
        first = process.generate(4, 20, seed=7)
        second = process.generate(4, 20, seed=7)
        assert len(first) == len(second) == 4
        for a, b in zip(first, second, strict=True):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "process", ALL_PROCESSES[1:], ids=_ids(ALL_PROCESSES[1:])
    )
    def test_different_seeds_differ(self, process):
        first = process.generate(2, 20, seed=1)
        second = process.generate(2, 20, seed=2)
        assert any(
            not np.array_equal(a, b) for a, b in zip(first, second, strict=True)
        )

    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=_ids(ALL_PROCESSES))
    def test_no_global_rng_state(self, process):
        """Traces depend only on the seed argument, never on np.random."""
        np.random.seed(123)  # simlint: ignore[SIM001] — proving global-RNG independence
        first = process.generate(3, 10, seed=5)
        np.random.seed(999)  # simlint: ignore[SIM001] — proving global-RNG independence
        second = process.generate(3, 10, seed=5)
        for a, b in zip(first, second, strict=True):
            np.testing.assert_array_equal(a, b)
        # and generating does not consume/perturb the global stream
        np.random.seed(42)  # simlint: ignore[SIM001] — proving global-RNG independence
        expected = np.random.random(4)  # simlint: ignore[SIM001] — proving global-RNG independence
        np.random.seed(42)  # simlint: ignore[SIM001] — proving global-RNG independence
        process.generate(3, 10, seed=5)
        np.testing.assert_array_equal(np.random.random(4), expected)  # simlint: ignore[SIM001] — proving global-RNG independence

    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=_ids(ALL_PROCESSES))
    def test_streams_are_independent_of_fleet_size(self, process):
        """Stream k's trace is the same whether 2 or 8 streams are drawn."""
        small = process.generate(2, 12, seed=3)
        large = process.generate(8, 12, seed=3)
        for stream in range(2):
            np.testing.assert_array_equal(small[stream], large[stream])


class TestTraceShape:
    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=_ids(ALL_PROCESSES))
    def test_nondecreasing_and_nonnegative(self, process):
        for trace in process.generate(4, 30, seed=11):
            assert trace.shape == (30,)
            assert trace[0] >= 0.0
            assert np.all(np.diff(trace) >= 0.0)

    def test_deterministic_period_and_spacing(self):
        traces = DeterministicArrivals(period_s=0.25, spacing_s=0.1).generate(3, 4)
        np.testing.assert_allclose(traces[0], [0.0, 0.25, 0.5, 0.75])
        np.testing.assert_allclose(traces[2], [0.2, 0.45, 0.7, 0.95])

    def test_aligned_degenerate(self):
        """Zero period + zero spacing = the batched plane's aligned arrivals."""
        traces = DeterministicArrivals(period_s=0.0).generate(4, 1)
        assert [float(trace[0]) for trace in traces] == aligned_arrivals(4)

    def test_poisson_mean_rate(self):
        traces = PoissonArrivals(rate_hz=10.0).generate(1, 4000, seed=0)
        mean_gap = float(np.mean(np.diff(traces[0])))
        assert mean_gap == pytest.approx(0.1, rel=0.1)

    def test_bursty_matches_target_mean_rate(self):
        process = BurstyArrivals.for_mean_rate(5.0, mean_burst_frames=4.0)
        # tight tolerance: a cycle model that miscounts the gaps per
        # burst cycle biases the realized rate by ~6% and must fail here
        empirical = []
        for seed in range(5):
            trace = process.generate(1, 20_000, seed=seed)[0]
            empirical.append(trace.size / float(trace[-1] - trace[0]))
        assert float(np.mean(empirical)) == pytest.approx(5.0, rel=0.02)

    def test_bursty_has_tighter_gaps_inside_bursts(self):
        process = BurstyArrivals(burst_rate_hz=100.0, mean_burst_frames=8.0, mean_idle_s=1.0)
        gaps = np.diff(process.generate(1, 500, seed=1)[0])
        # bimodal: many tiny intra-burst gaps, some large idle gaps
        assert np.percentile(gaps, 50) < 0.05
        assert gaps.max() > 0.2

    def test_zero_frames_allowed(self):
        traces = PoissonArrivals(rate_hz=1.0).generate(2, 0)
        assert all(trace.size == 0 for trace in traces)


class TestValidation:
    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=_ids(ALL_PROCESSES))
    @pytest.mark.parametrize("num_streams", [0, -1])
    def test_generators_reject_bad_fleet(self, process, num_streams):
        with pytest.raises(ValueError):
            process.generate(num_streams, 4)

    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=_ids(ALL_PROCESSES))
    def test_generators_reject_negative_frames(self, process):
        with pytest.raises(ValueError):
            process.generate(2, -1)

    def test_negative_rates_and_spacings_rejected(self):
        with pytest.raises(ValueError):
            DeterministicArrivals(period_s=-0.1)
        with pytest.raises(ValueError):
            DeterministicArrivals(period_s=0.1, spacing_s=-0.5)
        with pytest.raises(ValueError):
            DeterministicArrivals(period_s=0.1, start_s=-1.0)
        with pytest.raises(ValueError):
            PoissonArrivals(rate_hz=0.0)
        with pytest.raises(ValueError):
            PoissonArrivals(rate_hz=-2.0)
        with pytest.raises(ValueError):
            BurstyArrivals(burst_rate_hz=-1.0)
        with pytest.raises(ValueError):
            BurstyArrivals(burst_rate_hz=1.0, mean_burst_frames=0.5)
        with pytest.raises(ValueError):
            BurstyArrivals(burst_rate_hz=1.0, mean_idle_s=-0.1)

    def test_for_mean_rate_validation(self):
        with pytest.raises(ValueError):
            BurstyArrivals.for_mean_rate(0.0)
        with pytest.raises(ValueError):
            BurstyArrivals.for_mean_rate(1.0, burstiness=1.0)

    def test_staggered_arrivals_validation(self):
        with pytest.raises(ValueError):
            staggered_arrivals(0, 1.0)
        with pytest.raises(ValueError):
            staggered_arrivals(-3, 1.0)
        with pytest.raises(ValueError):
            staggered_arrivals(4, -0.1)
        with pytest.raises(ValueError):
            aligned_arrivals(0)

    @pytest.mark.parametrize(
        ("call", "argument"),
        [
            (lambda: aligned_arrivals(2.5), "num_streams"),
            (lambda: aligned_arrivals(True), "num_streams"),
            (lambda: staggered_arrivals(2.5, 1.0), "num_streams"),
            (lambda: staggered_arrivals(2, float("nan")), "spacing_s"),
            (lambda: staggered_arrivals(3, float("inf")), "spacing_s"),
        ],
        ids=["aligned-2.5", "aligned-True", "staggered-2.5", "nan", "inf"],
    )
    def test_arrival_helpers_name_a_bad_argument(self, call, argument):
        """A fractional or boolean count and a NaN or infinite spacing raise a
        ``ValueError`` naming the argument, not a ``TypeError`` from inside
        the list they would build, one stream, or NaN arrivals."""
        with pytest.raises(ValueError, match=argument):
            call()

    def test_arrival_helpers_take_numpy_integers(self):
        assert aligned_arrivals(np.int64(2)) == [0.0, 0.0]
        assert staggered_arrivals(np.int64(3), 0.5) == [0.0, 0.5, 1.0]

    def test_rate_for_load_validation(self):
        assert rate_for_load(0.5, 2.0, num_streams=4) == pytest.approx(0.0625)
        with pytest.raises(ValueError):
            rate_for_load(0.0, 1.0)
        with pytest.raises(ValueError):
            rate_for_load(0.5, 0.0)
        with pytest.raises(ValueError):
            rate_for_load(0.5, 1.0, num_streams=0)
