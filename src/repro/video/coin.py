"""Synthetic COIN-like streaming video QA benchmark.

The paper evaluates accuracy on five COIN benchmark variants (Table II).
COIN videos are instructional: a task (e.g. "make French toast") is a
sequence of steps, each step spanning several seconds of video, and the
model is asked questions whose answers live in specific past steps.

This module generates a synthetic analogue with the same *dependency
structure*: an episode is a sequence of steps; every frame of a step carries
an *event token* that embeds the step's key code (what the step is about)
and value code (the content a question about it should recover); questions
probe a step's key code and are answered correctly only if the
corresponding value code can be recovered from the KV cache — i.e. only if
retrieval kept the right tokens.  The five task variants differ in how far
back the probed step lies, how long the episode is, and how many turns are
asked, which is what drives the per-task retrieval-ratio differences the
paper reports.

This is a documented substitution for the real COIN dataset (README,
"Experiments, ablations and substitutions").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.video.synthetic import SyntheticVideoConfig, SyntheticVideoStream


class CoinTask(str, Enum):
    """Synthetic analogues of the paper's five COIN benchmark variants."""

    RETRIEVAL_AT_FRAME = "retrieval_at_frame"
    NEXT_STEP = "next_step"
    STEP_PROC = "step_proc"
    PROC_PLUS = "proc_plus"
    TASK_PROC = "task_proc"


ALL_TASKS = tuple(CoinTask)


@dataclass
class QAProbe:
    """One question about a past step of an episode."""

    question_embeddings: np.ndarray  # (question_tokens, hidden_dim)
    answer_code: int
    target_step: int
    target_frame: int


@dataclass
class CoinEpisode:
    """One synthetic instructional-video episode."""

    task: CoinTask
    frames: list[np.ndarray]
    probes: list[QAProbe]
    step_of_frame: list[int]
    key_code_of_step: list[int]
    value_code_of_step: list[int]

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def num_steps(self) -> int:
        return len(self.key_code_of_step)


@dataclass(frozen=True)
class CoinBenchmarkConfig:
    """Knobs of the synthetic COIN benchmark generator."""

    hidden_dim: int = 128
    tokens_per_frame: int = 8
    num_codes: int = 32
    num_steps: int = 6
    frames_per_step: int = 4
    question_tokens: int = 4
    key_scale: float = 6.0
    value_scale: float = 6.0
    question_scale: float = 4.0
    event_noise: float = 0.1
    temporal_correlation: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_codes < self.num_steps:
            raise ValueError("num_codes must be at least num_steps (unique key per step)")
        if self.tokens_per_frame < 2:
            raise ValueError("tokens_per_frame must be at least 2 (event + background)")
        if self.question_tokens < 1:
            raise ValueError("question_tokens must be at least 1")


@dataclass
class _TaskShape:
    """How a task variant selects its probes."""

    num_steps: int
    probes: int
    target_fraction_range: tuple[float, float]


class CoinBenchmark:
    """Generates :class:`CoinEpisode` instances and decodes answers."""

    def __init__(self, config: CoinBenchmarkConfig | None = None):
        self.config = config or CoinBenchmarkConfig()
        rng = np.random.default_rng(self.config.seed)
        dim = self.config.hidden_dim
        # Random unit-norm codebooks; keys and values live in (nearly)
        # independent random directions so the answer cannot be read off the
        # question itself.
        self.key_codebook = self._unit_rows(rng.normal(size=(self.config.num_codes, dim)))
        self.value_codebook = self._unit_rows(rng.normal(size=(self.config.num_codes, dim)))
        # Fixed orthogonal query/key alignment.  A trained attention head
        # maps "what a question asks for" onto "what a frame contains" with
        # learned, asymmetric projections; the substrate models this with a
        # shared rotation: the model biases its query projection toward
        # ``query_transform`` and the benchmark phrases questions in the
        # pre-image of the probed key code (see ``_make_probe``).
        self.query_transform, _ = np.linalg.qr(rng.normal(size=(dim, dim)))

    @staticmethod
    def _unit_rows(matrix: np.ndarray) -> np.ndarray:
        return matrix / np.maximum(np.linalg.norm(matrix, axis=1, keepdims=True), 1e-12)

    # ------------------------------------------------------------------ #
    # episode generation
    # ------------------------------------------------------------------ #
    def _task_shape(self, task: CoinTask) -> _TaskShape:
        base = self.config.num_steps
        shapes = {
            CoinTask.RETRIEVAL_AT_FRAME: _TaskShape(base, probes=1, target_fraction_range=(0.0, 1.0)),
            CoinTask.NEXT_STEP: _TaskShape(base, probes=1, target_fraction_range=(0.7, 1.0)),
            CoinTask.STEP_PROC: _TaskShape(base, probes=2, target_fraction_range=(0.3, 0.8)),
            CoinTask.PROC_PLUS: _TaskShape(base + 2, probes=1, target_fraction_range=(0.0, 0.35)),
            CoinTask.TASK_PROC: _TaskShape(base, probes=3, target_fraction_range=(0.0, 1.0)),
        }
        return shapes[task]

    def generate_episode(self, task: CoinTask, seed: int = 0) -> CoinEpisode:
        """Generate one episode of the given task variant."""
        cfg = self.config
        shape = self._task_shape(task)
        # Derive a per-task stream deterministically (Python's built-in hash
        # is salted per process and would break reproducibility).
        task_digest = int.from_bytes(hashlib.sha256(task.value.encode("utf-8")).digest()[:2], "big")
        rng = np.random.default_rng(task_digest * 100_003 + seed)

        num_frames = shape.num_steps * cfg.frames_per_step
        background = SyntheticVideoStream(
            SyntheticVideoConfig(
                num_frames=num_frames,
                tokens_per_frame=cfg.tokens_per_frame,
                hidden_dim=cfg.hidden_dim,
                temporal_correlation=cfg.temporal_correlation,
                scene_change_prob=0.0,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
        ).frames()

        key_codes = rng.choice(cfg.num_codes, size=shape.num_steps, replace=False)
        value_codes = rng.choice(cfg.num_codes, size=shape.num_steps, replace=True)

        frames: list[np.ndarray] = []
        step_of_frame: list[int] = []
        for frame_index in range(num_frames):
            step = frame_index // cfg.frames_per_step
            frame = background[frame_index].copy()
            event = (
                cfg.key_scale * self.key_codebook[key_codes[step]]
                + cfg.value_scale * self.value_codebook[value_codes[step]]
                + rng.normal(0.0, cfg.event_noise, size=cfg.hidden_dim)
            )
            frame[0] = event
            frames.append(frame)
            step_of_frame.append(step)

        probes = [
            self._make_probe(rng, shape, key_codes, value_codes, cfg)
            for _ in range(shape.probes)
        ]
        return CoinEpisode(
            task=task,
            frames=frames,
            probes=probes,
            step_of_frame=step_of_frame,
            key_code_of_step=[int(code) for code in key_codes],
            value_code_of_step=[int(code) for code in value_codes],
        )

    def _make_probe(
        self,
        rng: np.random.Generator,
        shape: _TaskShape,
        key_codes: np.ndarray,
        value_codes: np.ndarray,
        cfg: CoinBenchmarkConfig,
    ) -> QAProbe:
        low, high = shape.target_fraction_range
        low_step = int(np.floor(low * (shape.num_steps - 1)))
        high_step = int(np.ceil(high * (shape.num_steps - 1)))
        target_step = int(rng.integers(low_step, high_step + 1))
        question = rng.normal(0.0, 0.5, size=(cfg.question_tokens, cfg.hidden_dim))
        # The probe token is phrased so that, after the model's query
        # projection (biased toward ``query_transform``), it matches the
        # probed step's key code.
        question[-1] = cfg.question_scale * (
            self.key_codebook[key_codes[target_step]] @ self.query_transform.T
        )
        target_frame = target_step * cfg.frames_per_step
        return QAProbe(
            question_embeddings=question,
            answer_code=int(value_codes[target_step]),
            target_step=target_step,
            target_frame=target_frame,
        )

    # ------------------------------------------------------------------ #
    # answer decoding
    # ------------------------------------------------------------------ #
    def decode_answer(self, hidden: np.ndarray) -> int:
        """Decode the answered value code from a hidden state.

        The answer is the value-codebook entry most aligned (cosine) with
        the final hidden state of the last question token.
        """
        hidden = np.asarray(hidden, dtype=np.float64).reshape(-1)
        norms = np.linalg.norm(hidden)
        if norms == 0:
            return -1
        scores = self.value_codebook @ (hidden / norms)
        return int(np.argmax(scores))
