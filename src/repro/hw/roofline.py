"""Roofline model utilities (paper Fig. 18)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RooflinePoint:
    """One system's position on the roofline plot."""

    name: str
    operational_intensity: float
    achieved_tflops: float
    peak_tflops: float

    @property
    def achieved_fraction(self) -> float:
        """Fraction of the theoretical maximum actually achieved."""
        ceiling = self.peak_tflops
        if ceiling <= 0:
            return 0.0
        return self.achieved_tflops / ceiling


def attainable_tflops(
    operational_intensity: float, peak_tflops: float, memory_bandwidth_gbps: float
) -> float:
    """Classic roofline: min(peak, OI * bandwidth)."""
    if operational_intensity < 0:
        raise ValueError("operational_intensity must be non-negative")
    bandwidth_tflops = operational_intensity * memory_bandwidth_gbps * 1e9 / 1e12
    return min(peak_tflops, bandwidth_tflops)
