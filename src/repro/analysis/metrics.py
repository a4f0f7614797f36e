"""Derived metrics: FPS, TPOT, speedups, energy efficiency, real-time checks."""

from __future__ import annotations

import numpy as np

#: The paper calls >= 2 FPS "real-time" for streaming video inference.
REAL_TIME_FPS = 2.0


def fps_from_latency_ms(latency_ms: float, batch: int = 1) -> float:
    """Frames per second given a per-frame latency."""
    if latency_ms <= 0:
        return 0.0
    return batch * 1000.0 / latency_ms


def speedup_range(speedups: dict[int, float]) -> tuple[float, float]:
    """(min, max) of a speedup series (how the paper quotes ranges like 2.2-7.3x)."""
    values = list(speedups.values())
    if not values:
        return (0.0, 0.0)
    return (float(min(values)), float(max(values)))


def pearson_correlation(x, y) -> float:
    """Pearson correlation coefficient (used for the Fig. 7 hash-bit study)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size or x.size < 2:
        raise ValueError("inputs must be equal-length with at least two samples")
    x_centered = x - x.mean()
    y_centered = y - y.mean()
    denom = np.sqrt((x_centered**2).sum() * (y_centered**2).sum())
    if denom == 0:
        return 0.0
    return float((x_centered * y_centered).sum() / denom)
