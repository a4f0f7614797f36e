"""Tests for the configuration dataclasses."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import (
    ModelConfig,
    ReSVConfig,
    StreamingConfig,
    TopKConfig,
    llama3_8b_config,
    require_choice,
    require_number,
    toy_model_config,
    toy_vision_config,
)
from repro.hw.event import EventLoop, PreemptiveResource
from repro.sim.arrivals import BurstyArrivals, PoissonArrivals
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.fleet import FleetConfig
from repro.sim.pipeline import MeasuredRetrieval
from repro.sim.scheduler import SchedulerConfig, ServingScheduler
from repro.sim.systems import edge_systems
from repro.sim.workload import default_llm_workload


def _vrex8():
    return edge_systems(default_llm_workload().model_bytes())["V-Rex8"]


def _one_stream():
    return [StreamProfile(kv_len=10_000)]


class TestModelConfig:
    def test_toy_defaults(self):
        cfg = toy_model_config()
        assert cfg.head_dim * cfg.num_heads == cfg.hidden_dim
        assert cfg.num_heads // cfg.num_kv_heads == 1

    def test_llama3_dimensions(self):
        cfg = llama3_8b_config()
        assert cfg.num_layers == 32
        assert cfg.hidden_dim == 4096
        assert cfg.num_kv_heads == 8
        assert cfg.head_dim == 128
        assert cfg.ffn_dim == 14336

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(hidden_dim=65, num_heads=4)
        with pytest.raises(ValueError):
            ModelConfig(num_heads=4, num_kv_heads=3)

    def test_replace_and_overrides(self):
        cfg = toy_model_config(num_layers=7)
        assert cfg.num_layers == 7

    def test_kv_bytes_per_token(self):
        cfg = toy_model_config()
        expected = cfg.num_layers * 2 * cfg.num_kv_heads * cfg.head_dim * cfg.dtype_bytes
        assert cfg.kv_bytes_per_token() == expected


class TestAlgorithmConfigs:
    def test_resv_defaults_match_paper(self):
        cfg = ReSVConfig()
        assert cfg.n_hyperplanes == 32
        assert cfg.hamming_threshold == 7
        assert cfg.wicsum_ratio == pytest.approx(0.3)

    def test_resv_validation(self):
        with pytest.raises(ValueError):
            ReSVConfig(n_hyperplanes=0)
        with pytest.raises(ValueError):
            ReSVConfig(wicsum_ratio=0.0)
        with pytest.raises(ValueError):
            ReSVConfig(hamming_threshold=-1)
        with pytest.raises(ValueError):
            ReSVConfig(recent_window=-1)

    def test_topk_validation(self):
        with pytest.raises(ValueError):
            TopKConfig(prefill_ratio=0.0)
        with pytest.raises(ValueError):
            TopKConfig(generation_ratio=1.5)

    def test_streaming_defaults_match_coin_scenario(self):
        cfg = StreamingConfig()
        assert cfg.frames_per_query == 26
        assert cfg.question_tokens == 25
        assert cfg.answer_tokens == 39


    def test_vision_config_patches(self):
        cfg = toy_vision_config()
        assert cfg.num_patches == (cfg.image_size // cfg.patch_size) ** 2


class TestRequireNumber:
    """The one range check behind the simulator's configuration objects."""

    def test_returns_the_value_in_range(self):
        assert require_number("x", 0) == 0
        assert require_number("x", 2.5, 1) == 2.5
        assert require_number("x", math.inf, exclusive=True) == math.inf
        assert require_number("x", np.int64(3), 1, integer=True) == 3
        assert require_number("x", 1.0, maximum=1) == 1.0

    @pytest.mark.parametrize(
        "kwargs, value, wording",
        [
            ({}, -1, "x must be non-negative, got -1"),
            ({}, math.nan, "x must be non-negative, got nan"),
            ({"exclusive": True}, 0.0, "x must be positive, got 0.0"),
            ({"exclusive": True}, math.nan, "x must be positive, got nan"),
            ({"minimum": 1}, 0, "x must be at least 1, got 0"),
            ({"minimum": 1, "exclusive": True}, 1, "x must be greater than 1, got 1"),
            ({"finite": True}, math.inf, "x must be finite and non-negative, got inf"),
            ({"integer": True}, 2.5, "x must be an integer, got 2.5"),
            ({"integer": True}, 2.0, "x must be an integer, got 2.0"),
            ({"integer": True}, True, "x must be an integer, got True"),
            ({"integer": True}, False, "x must be an integer, got False"),
            ({"maximum": 1}, 7.0, r"x must be in \[0, 1\], got 7.0"),
            ({"maximum": 1}, math.nan, r"x must be in \[0, 1\], got nan"),
            ({"maximum": 1}, -0.5, r"x must be in \[0, 1\], got -0.5"),
        ],
    )
    def test_out_of_range_names_the_argument(self, kwargs, value, wording):
        with pytest.raises(ValueError, match=f"^{wording}$"):
            require_number("x", value, **kwargs)

    # Regression (ISSUE 18): every input below used to construct.  NaN slid
    # through ``value <= 0`` guards (every comparison with NaN is false), and a
    # NaN quantum then hung ``ServingScheduler.run`` and ``frame_step``; a NaN
    # deadline silently disabled every deadline; ``PoissonArrivals(rate_hz=nan
    # | inf)`` emitted all-NaN / all-zero traces; ``kv_len=-5`` priced as 92 ms.
    @pytest.mark.parametrize(
        "construct, argument",
        [
            (lambda: SchedulerConfig(compute="timesliced", quantum_s=math.nan), "quantum_s"),
            (lambda: BatchLatencyModel(quantum_s=math.nan), "quantum_s"),
            (lambda: PreemptiveResource(EventLoop(), quantum_s=math.nan), "quantum_s"),
            # ISSUE 23: ``remaining <= quantum`` is never true of nan or inf
            # work, so each of these used to spin the event loop forever.
            (lambda: PreemptiveResource(EventLoop()).submit(math.nan), "work_s"),
            (lambda: PreemptiveResource(EventLoop()).submit(math.inf), "work_s"),
            (lambda: PreemptiveResource(EventLoop()).submit(-1e-9), "work_s"),
            (lambda: SchedulerConfig(deadline_s=math.nan), "deadline_s"),
            (
                lambda: SchedulerConfig(
                    admission="energy", energy_budget_j_per_token=math.nan
                ),
                "energy_budget_j_per_token",
            ),
            (lambda: SchedulerConfig(max_queue_depth=2.5), "max_queue_depth"),
            (lambda: FleetConfig(migrate_backlog_s=math.nan), "migrate_backlog_s"),
            (lambda: FleetConfig(steal_backlog_s=math.nan), "steal_backlog_s"),
            # A seed numpy cannot take used to construct and then raise from
            # SeedSequence inside run() (power_of_two with M >= 2 only).
            (lambda: FleetConfig(seed=-1), "seed"),
            (lambda: FleetConfig(seed=1.5), "seed"),
            (lambda: FleetConfig(seed=math.nan), "seed"),
            (lambda: FleetConfig(num_devices=2.5), "num_devices"),
            (lambda: PoissonArrivals(rate_hz=math.nan), "rate_hz"),
            (lambda: PoissonArrivals(rate_hz=math.inf), "rate_hz"),
            (lambda: BurstyArrivals.for_mean_rate(math.nan), "rate_hz"),
            (lambda: StreamProfile(kv_len=-5), "kv_len"),
            (lambda: StreamProfile(kv_len=math.nan), "kv_len"),
            # ISSUE 22: the calibration fields became demand-table keys.  These
            # used to price a frame from a negative token count (77 ms), fetch
            # seven caches (5.0 s), or die deep in pricing on an integer
            # conversion / ZeroDivisionError; a NaN key would never hit.
            (lambda: StreamProfile(kv_len=2.5), "kv_len"),
            (lambda: StreamProfile(kv_len=40_000, frame_ratio=-0.5), "frame_ratio"),
            (lambda: StreamProfile(kv_len=40_000, frame_ratio=7.0), "frame_ratio"),
            (lambda: StreamProfile(kv_len=40_000, frame_ratio=math.nan), "frame_ratio"),
            (lambda: StreamProfile(kv_len=40_000, generation_ratio=1.5), "generation_ratio"),
            (lambda: StreamProfile(kv_len=40_000, generation_ratio=math.nan), "generation_ratio"),
            (lambda: MeasuredRetrieval(avg_tokens_per_cluster=0.0), "avg_tokens_per_cluster"),
            (lambda: MeasuredRetrieval(avg_tokens_per_cluster=math.nan), "avg_tokens_per_cluster"),
            (lambda: MeasuredRetrieval(avg_tokens_per_cluster=math.inf), "avg_tokens_per_cluster"),
            (lambda: MeasuredRetrieval(sort_fraction=-0.1), "sort_fraction"),
            (lambda: MeasuredRetrieval(sort_fraction=1.5), "sort_fraction"),
            (lambda: MeasuredRetrieval(sort_fraction=math.nan), "sort_fraction"),
            # ``bool`` is an ``int`` subclass: each of these used to construct
            (lambda: SchedulerConfig(max_queue_depth=True), "max_queue_depth"),
            (lambda: FleetConfig(num_devices=True), "num_devices"),
            (lambda: FleetConfig(seed=True), "seed"),
            (lambda: StreamProfile(kv_len=True), "kv_len"),
            # a fractional session id used to run and report as its int64
            # truncation; a NaN arrival offset made the contended step NaN
            (lambda: StreamProfile(kv_len=1000, session_id=1.5), "session_id"),
            (lambda: StreamProfile(kv_len=1000, session_id=-1), "session_id"),
            (lambda: StreamProfile(kv_len=1000, session_id=True), "session_id"),
            (lambda: StreamProfile(kv_len=1000, arrival_offset_s=math.nan), "arrival_offset_s"),
            (lambda: StreamProfile(kv_len=1000, arrival_offset_s=math.inf), "arrival_offset_s"),
            (lambda: StreamProfile(kv_len=1000, arrival_offset_s=-0.5), "arrival_offset_s"),
        ],
    )
    def test_hostile_inputs_rejected_at_construction(self, construct, argument):
        with pytest.raises(ValueError, match=f"^{argument} must be "):
            construct()

    def test_legitimate_calibration_edges_survive(self):
        # a measured ratio or sort fraction of exactly 0.0 is real data, a
        # ratio of 1.0 is FlexGen's, and numpy integers are integers
        profile = StreamProfile(kv_len=np.int64(40_000), frame_ratio=0.0, generation_ratio=1.0)
        assert profile.ratio_override("frame") == 0.0
        assert MeasuredRetrieval(sort_fraction=0.0).sort_fraction == 0.0
        assert MeasuredRetrieval(sort_fraction=1.0, avg_tokens_per_cluster=0.5)

    def test_documented_inf_meanings_survive(self):
        fleet = FleetConfig(
            migrate_backlog_s=math.inf,  # never migrate
            steal_backlog_s=math.inf,  # never steal
        )
        assert fleet.migrate_backlog_s == math.inf
        # an infinite quantum is FCFS: every job runs to completion
        assert SchedulerConfig(compute="timesliced", quantum_s=math.inf).quantum_s == math.inf


class TestRequireChoice:
    """The one membership check behind the named policies, modes and engines."""

    def test_returns_the_value_or_lists_the_choices(self):
        assert require_choice("mode", "a", ("a", "b")) == "a"
        with pytest.raises(
            ValueError, match=r"^unknown mode 'c'; expected one of \('a', 'b'\)$"
        ):
            require_choice("mode", "c", ("a", "b"))

    @pytest.mark.parametrize(
        "construct, wording",
        [
            (lambda: SchedulerConfig(compute="shared"), "unknown compute policy 'shared'"),
            (
                lambda: BatchLatencyModel().frame_step(_vrex8(), _one_stream(), compute="shared"),
                "unknown compute policy 'shared'",
            ),
            # A truthy non-bool used to turn the flag on silently: "no"
            # stole work, and "no" priced the contended mode.
            (lambda: FleetConfig(work_stealing="no"), "unknown work_stealing 'no'"),
            (
                lambda: BatchLatencyModel().frame_step(_vrex8(), _one_stream(), contention="no"),
                "unknown contention 'no'",
            ),
            (lambda: SchedulerConfig(admission="vip"), "unknown admission policy 'vip'"),
            (lambda: ServingScheduler(engine="gpu"), "unknown engine 'gpu'"),
            (lambda: FleetConfig(router="random"), "unknown router policy 'random'"),
        ],
    )
    def test_every_named_choice_is_judged_by_it(self, construct, wording):
        with pytest.raises(ValueError, match=f"^{wording}; expected one of "):
            construct()
