"""WiCSum threshold unit (WTU) timing/energy model with early-exit sorting.

The WTU (paper Sec. V-B, Fig. 11) selects clusters per score row via a
bucketised early-exit sort: a preprocess pass computes the weighted sum,
min/max and threshold of every row, and the token-selection pass walks
buckets from the highest score range, terminating as soon as the cumulative
weighted sum crosses the threshold.  Because a small number of large scores
carries most of the weighted sum (~16 % of a row on average in the paper),
most of the sorting work is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.compute import _as_float
from repro.hw.specs import VRexCoreConfig


@dataclass(frozen=True)
class WTUWork:
    """One thresholding invocation over a ``rows x clusters`` score matrix.

    ``clusters`` may be an int64 column: the work and its times are then
    columns, element for element the scalar values.
    """

    rows: int
    clusters: int
    sort_fraction: float = 0.16
    early_exit: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.sort_fraction <= 1.0:
            raise ValueError("sort_fraction must lie in [0, 1]")

    @property
    def preprocess_elements(self) -> float:
        """Elements touched by the weighted-sum / min-max preprocess pass."""
        return _as_float(self.rows * self.clusters)

    @property
    def selection_elements(self) -> float:
        """Elements actually bucket-sorted during token selection."""
        fraction = self.sort_fraction if self.early_exit else 1.0
        return _as_float(self.rows * self.clusters) * fraction


class WTUModel:
    """Latency/energy model of the WTU across all cores."""

    def __init__(self, core: VRexCoreConfig | None = None, num_cores: int = 1, power_w: float = 0.03904):
        self.core = core or VRexCoreConfig()
        self.num_cores = max(num_cores, 1)
        self.power_w = power_w  # Table III: 39.04 mW per core

    def cycles(self, work: WTUWork) -> float:
        """Clock cycles for preprocess + token-selection passes."""
        throughput = self.core.wtu_elements_per_cycle * self.num_cores
        return (work.preprocess_elements + work.selection_elements) / throughput

    def time_s(self, work: WTUWork) -> float:
        """Seconds for one thresholding invocation."""
        return self.cycles(work) / self.core.frequency_hz

    def early_exit_speedup(self, work: WTUWork) -> float:
        """Speedup of early-exit sorting over a full sort for this work."""
        full = WTUWork(work.rows, work.clusters, sort_fraction=1.0, early_exit=False)
        exit_time = self.time_s(work)
        if exit_time == 0:
            return 1.0
        return self.time_s(full) / exit_time
