"""Stochastic frame-arrival processes for the serving scheduler.

The batched performance plane (:mod:`repro.sim.batched`) prices one serving
tick at fixed arrival offsets; a production fleet's frames arrive as
*processes* — steady uploads, Poisson-spaced mobile clients, bursty on-off
sources whose uplink stalls and catches up.  This module generates
per-stream arrival-time traces for :class:`repro.sim.scheduler.ServingScheduler`:

* :class:`DeterministicArrivals` — a fixed frame period per stream with an
  optional per-stream phase stagger (spacing 0 reproduces the batched
  plane's aligned arrivals; spacing > 0 its admission-controlled stagger).
* :class:`PoissonArrivals` — exponential inter-arrival times at a given
  rate, the memoryless baseline of serving-load models.
* :class:`BurstyArrivals` — an on-off modulated process: geometric bursts
  of closely spaced frames separated by exponential idle gaps, the shape of
  a stalling uplink that dumps buffered frames at once.

Every generator is **seed-deterministic and free of global RNG state**:
``generate(num_streams, frames_per_stream, seed)`` derives one independent
``numpy`` Generator per stream from ``(seed, stream)`` so the same seed
always yields the identical trace, regardless of how many other streams are
drawn or what ``np.random`` the caller has touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import require_number


def rate_for_load(load_factor: float, service_s: float, num_streams: int = 1) -> float:
    """Per-stream arrival rate (Hz) that drives a fleet at a target load.

    ``load_factor`` is the fleet's offered load relative to one stream's
    solo service time: ``num_streams`` streams each arriving at the
    returned rate present ``load_factor / service_s`` frames per second in
    aggregate.
    """
    require_number("load_factor", load_factor, exclusive=True, finite=True)
    require_number("service_s", service_s, exclusive=True, finite=True)
    require_number("num_streams", num_streams, 1, integer=True)
    return load_factor / (service_s * num_streams)


class ArrivalProcess:
    """Base class: per-stream frame arrival-time traces.

    Subclasses implement :meth:`_stream_times`; :meth:`generate` handles
    fleet validation and the per-stream seeding contract.
    """

    def generate(
        self, num_streams: int, frames_per_stream: int, seed: int = 0
    ) -> list[np.ndarray]:
        """One nondecreasing arrival-time array per stream."""
        require_number("num_streams", num_streams, 1, integer=True)
        require_number("frames_per_stream", frames_per_stream, integer=True)
        traces = []
        for stream in range(num_streams):
            rng = np.random.default_rng((int(seed), stream))
            times = np.asarray(
                self._stream_times(rng, frames_per_stream, stream), dtype=float
            )
            traces.append(times)
        return traces

    def _stream_times(
        self, rng: np.random.Generator, frames: int, stream: int
    ) -> np.ndarray:
        raise NotImplementedError

    @property
    def mean_rate_hz(self) -> float:
        """Long-run mean frame rate of one stream."""
        raise NotImplementedError


@dataclass(frozen=True)
class DeterministicArrivals(ArrivalProcess):
    """Fixed-period frames, optionally phase-staggered across streams.

    ``period_s == 0`` with ``spacing_s == 0`` degenerates to perfectly
    aligned arrivals (every frame of every stream at ``start_s``), the
    configuration under which the scheduler must reproduce the batched
    plane's contention mode exactly.
    """

    period_s: float
    spacing_s: float = 0.0
    start_s: float = 0.0

    def __post_init__(self) -> None:
        require_number("period_s", self.period_s, finite=True)
        require_number("spacing_s", self.spacing_s, finite=True)
        require_number("start_s", self.start_s, finite=True)

    def _stream_times(
        self, rng: np.random.Generator, frames: int, stream: int
    ) -> np.ndarray:
        del rng  # deterministic: the seed contract still holds trivially
        phase = self.start_s + stream * self.spacing_s
        return phase + np.arange(frames, dtype=float) * self.period_s

    @property
    def mean_rate_hz(self) -> float:
        if self.period_s <= 0:
            return float("inf")
        return 1.0 / self.period_s


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless frame arrivals at ``rate_hz`` per stream."""

    rate_hz: float
    start_s: float = 0.0

    def __post_init__(self) -> None:
        require_number("rate_hz", self.rate_hz, exclusive=True, finite=True)
        require_number("start_s", self.start_s, finite=True)

    def _stream_times(
        self, rng: np.random.Generator, frames: int, stream: int
    ) -> np.ndarray:
        del stream
        gaps = rng.exponential(scale=1.0 / self.rate_hz, size=frames)
        return self.start_s + np.cumsum(gaps)

    @property
    def mean_rate_hz(self) -> float:
        return self.rate_hz


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """On-off arrivals: geometric bursts separated by exponential idle gaps.

    Within a burst, frames arrive at ``burst_rate_hz``; burst sizes are
    geometric with mean ``mean_burst_frames``; bursts are separated by
    exponential idle gaps of mean ``mean_idle_s``.  With
    ``mean_burst_frames=1`` the process degenerates to (shifted) Poisson.
    """

    burst_rate_hz: float
    mean_burst_frames: float = 4.0
    mean_idle_s: float = 1.0
    start_s: float = 0.0

    def __post_init__(self) -> None:
        require_number("burst_rate_hz", self.burst_rate_hz, exclusive=True, finite=True)
        require_number("mean_burst_frames", self.mean_burst_frames, 1, finite=True)
        require_number("mean_idle_s", self.mean_idle_s, finite=True)
        require_number("start_s", self.start_s, finite=True)

    def _stream_times(
        self, rng: np.random.Generator, frames: int, stream: int
    ) -> np.ndarray:
        del stream
        times: list[float] = []
        now = self.start_s
        while len(times) < frames:
            burst = int(rng.geometric(p=1.0 / self.mean_burst_frames))
            take = min(burst, frames - len(times))
            for position in range(take):
                times.append(now)
                # intra-burst gaps separate frames *within* a burst only; the
                # last frame of a burst is followed by the idle gap, keeping
                # the realized rate equal to ``mean_rate_hz``'s cycle model.
                if position + 1 < take:
                    now += float(rng.exponential(scale=1.0 / self.burst_rate_hz))
            if self.mean_idle_s > 0:
                now += float(rng.exponential(scale=self.mean_idle_s))
        return np.asarray(times, dtype=float)

    @property
    def mean_rate_hz(self) -> float:
        """Mean rate of the on-off cycle (burst duration + idle gap)."""
        burst_span_s = (self.mean_burst_frames - 1.0) / self.burst_rate_hz
        cycle_s = burst_span_s + self.mean_idle_s
        if cycle_s <= 0:
            return float("inf")
        return self.mean_burst_frames / cycle_s

    @classmethod
    def for_mean_rate(
        cls,
        rate_hz: float,
        mean_burst_frames: float = 4.0,
        burstiness: float = 4.0,
        start_s: float = 0.0,
    ) -> "BurstyArrivals":
        """A bursty process with the same long-run rate as a Poisson one.

        Frames inside a burst arrive ``burstiness`` times faster than the
        target mean rate; the idle gap is solved so the on-off cycle still
        delivers ``rate_hz`` on average — the apples-to-apples comparison
        the load sweeps need.
        """
        require_number("rate_hz", rate_hz, exclusive=True, finite=True)
        require_number("burstiness", burstiness, 1, exclusive=True, finite=True)
        burst_rate = burstiness * rate_hz
        idle_s = mean_burst_frames / rate_hz - (mean_burst_frames - 1.0) / burst_rate
        return cls(
            burst_rate_hz=burst_rate,
            mean_burst_frames=mean_burst_frames,
            mean_idle_s=idle_s,
            start_s=start_s,
        )
