"""Synthetic streaming video sources.

The COIN dataset the paper evaluates on is a collection of instructional
videos; what matters to the retrieval algorithms is that tokens of adjacent
frames are highly similar (Fig. 7a) while scene changes introduce new
content.  The generators here produce exactly that structure, either
directly in the LLM embedding space (fast path used by most experiments) or
as raw RGB frames to exercise the vision tower + projector path.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SyntheticVideoConfig:
    """Parameters of a synthetic embedding-space video stream."""

    num_frames: int = 32
    tokens_per_frame: int = 16
    hidden_dim: int = 64
    temporal_correlation: float = 0.95
    scene_change_prob: float = 0.05
    token_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.temporal_correlation <= 1.0:
            raise ValueError("temporal_correlation must lie in [0, 1]")
        if not 0.0 <= self.scene_change_prob <= 1.0:
            raise ValueError("scene_change_prob must lie in [0, 1]")
        if self.num_frames <= 0 or self.tokens_per_frame <= 0 or self.hidden_dim <= 0:
            raise ValueError("num_frames, tokens_per_frame and hidden_dim must be positive")


class SyntheticVideoStream:
    """AR(1) embedding-space video: adjacent frames are highly correlated.

    Each visual token follows ``x_f = rho * x_{f-1} + sqrt(1 - rho^2) * eps``
    with occasional scene changes that redraw the whole frame.  The per-token
    processes are independent, which mimics spatial patches evolving mostly
    independently over time.
    """

    def __init__(self, config: SyntheticVideoConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._frames: list[np.ndarray] | None = None

    def _generate(self) -> None:
        cfg = self.config
        rho = cfg.temporal_correlation
        innovation = np.sqrt(max(1.0 - rho * rho, 0.0))
        frames = []
        current = self._rng.normal(0.0, cfg.token_scale, size=(cfg.tokens_per_frame, cfg.hidden_dim))
        frames.append(current.copy())
        for _ in range(1, cfg.num_frames):
            if self._rng.random() < cfg.scene_change_prob:
                current = self._rng.normal(
                    0.0, cfg.token_scale, size=(cfg.tokens_per_frame, cfg.hidden_dim)
                )
            else:
                noise = self._rng.normal(
                    0.0, cfg.token_scale, size=(cfg.tokens_per_frame, cfg.hidden_dim)
                )
                current = rho * current + innovation * noise
            frames.append(current.copy())
        self._frames = frames

    def frames(self) -> list[np.ndarray]:
        """All frames as ``(tokens_per_frame, hidden_dim)`` arrays."""
        if self._frames is None:
            self._generate()
        return [frame.copy() for frame in self._frames]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.frames())

    def __len__(self) -> int:
        return self.config.num_frames


def generate_raw_frames(
    num_frames: int,
    image_size: int = 32,
    motion_speed: float = 1.0,
    seed: int = 0,
) -> list[np.ndarray]:
    """Generate RGB frames with a moving blob for the vision-tower path.

    Frames are ``(image_size, image_size, 3)`` float arrays in ``[0, 1]``
    containing a Gaussian blob drifting smoothly across a static textured
    background, so consecutive frames are nearly identical — the property
    the hash-bit clustering exploits.
    """
    rng = np.random.default_rng(seed)
    background = rng.uniform(0.0, 0.3, size=(image_size, image_size, 3))
    ys, xs = np.mgrid[0:image_size, 0:image_size]
    frames = []
    cx, cy = image_size / 4.0, image_size / 2.0
    vx, vy = motion_speed, motion_speed * 0.5
    sigma = image_size / 8.0
    for _ in range(num_frames):
        blob = np.exp(-(((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma)))
        frame = background.copy()
        frame[..., 0] += 0.7 * blob
        frame[..., 1] += 0.4 * blob
        frames.append(np.clip(frame, 0.0, 1.0))
        cx = (cx + vx) % image_size
        cy = (cy + vy) % image_size
    return frames
