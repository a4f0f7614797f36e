"""Synthetic streaming-video workloads and the COIN-like QA benchmark."""

from repro.video.coin import (
    ALL_TASKS,
    CoinBenchmark,
    CoinBenchmarkConfig,
    CoinEpisode,
    CoinTask,
    QAProbe,
)
from repro.video.qa import (
    EpisodeResult,
    MethodResult,
    default_qa_model_config,
    evaluate_episode,
    evaluate_method,
)
from repro.video.synthetic import (
    SyntheticVideoConfig,
    SyntheticVideoStream,
    generate_raw_frames,
)

__all__ = [
    "ALL_TASKS",
    "CoinBenchmark",
    "CoinBenchmarkConfig",
    "CoinEpisode",
    "CoinTask",
    "EpisodeResult",
    "MethodResult",
    "QAProbe",
    "SyntheticVideoConfig",
    "SyntheticVideoStream",
    "default_qa_model_config",
    "evaluate_episode",
    "evaluate_method",
    "generate_raw_frames",
]
