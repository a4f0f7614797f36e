"""Shared fixtures for the V-Rex reproduction test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

# Property-test effort profiles: "dev" keeps the tier-1 suite fast; "ci"
# (selected with --hypothesis-profile=ci or HYPOTHESIS_PROFILE=ci) runs
# more examples with a fixed derandomized seed so CI failures reproduce.
settings.register_profile("dev", max_examples=25, deadline=None)
settings.register_profile(
    "ci", max_examples=120, deadline=None, derandomize=True, print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from repro.config import ModelConfig, ReSVConfig
from repro.core.resv import ReSVRetriever
from repro.model.llm import StreamingVideoLLM
from repro.video.coin import CoinBenchmark, CoinBenchmarkConfig
from repro.video.synthetic import SyntheticVideoConfig, SyntheticVideoStream


@pytest.fixture
def tiny_model_config() -> ModelConfig:
    """Very small model used by most functional tests."""
    return ModelConfig(
        name="tiny",
        num_layers=2,
        hidden_dim=32,
        num_heads=4,
        num_kv_heads=2,
        ffn_dim=64,
        vocab_size=64,
        tokens_per_frame=4,
    )


@pytest.fixture
def tiny_model(tiny_model_config) -> StreamingVideoLLM:
    """A tiny model with no retriever attached."""
    return StreamingVideoLLM(tiny_model_config, seed=0)


@pytest.fixture
def tiny_resv(tiny_model_config) -> ReSVRetriever:
    """ReSV retriever sized for the tiny model."""
    return ReSVRetriever(
        tiny_model_config.num_layers,
        tiny_model_config.num_kv_heads,
        tiny_model_config.head_dim,
        ReSVConfig(n_hyperplanes=16, hamming_threshold=4, wicsum_ratio=0.5),
    )


@pytest.fixture
def tiny_video() -> SyntheticVideoStream:
    """Short synthetic video in the tiny model's embedding space."""
    return SyntheticVideoStream(
        SyntheticVideoConfig(num_frames=6, tokens_per_frame=4, hidden_dim=32, seed=1)
    )


@pytest.fixture
def small_benchmark() -> CoinBenchmark:
    """Small COIN benchmark (smaller episodes than the default)."""
    return CoinBenchmark(
        CoinBenchmarkConfig(
            hidden_dim=128,
            tokens_per_frame=8,
            num_steps=4,
            frames_per_step=2,
            seed=0,
        )
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests that need random data."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def assert_summary_matches_records():
    """Oracle for ``LatencySummary`` rows: plain numpy over ``JobRecord`` lists.

    Shares no code with the column summariser it checks
    (:func:`repro.sim.scheduler._summarize`).
    """

    def check(summary, records):
        """``summary`` is exactly numpy over ``records`` (in their given order)."""
        served = [r for r in records if not r.dropped]
        assert summary.jobs == len(records)
        assert summary.served == len(served)
        assert summary.dropped == len(records) - len(served)
        if not served:
            assert np.isnan(summary.mean_ms) and np.isnan(summary.max_ms)
            assert all(np.isnan(value) for value in summary.percentiles_ms.values())
            assert summary.deadline_miss_rate == 0.0
            return
        sojourns = np.asarray([r.sojourn_s for r in served])
        for q in (50.0, 95.0, 99.0):
            assert summary.percentile_ms(q) == float(np.percentile(sojourns, q)) * 1e3
        assert summary.mean_ms == float(np.mean(sojourns)) * 1e3
        assert summary.max_ms == float(np.max(sojourns)) * 1e3
        missed = sum(1 for r in served if r.deadline_missed)
        assert summary.deadline_miss_rate == missed / len(served)

    return check
