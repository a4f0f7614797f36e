"""Compare two collections of benchmark sets (``--compare`` / ``--selfcheck``).

A results file holds ``{"sets": [...]}``, one set per all-workload run of
``run.py``.  Each side of a comparison is summarised per workload x metric
by its median and quartiles: over the sets' medians when a side has at
least four sets (the ten alternating parent/change pairs the README asks
for), otherwise over the pooled per-pass samples of the sets it has.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

MIN_SETS_FOR_SET_MEDIANS = 4

REGRESSED = "REGRESSED"
UNRESOLVED = "unresolved"
WITHIN = "within bound"


def load_sets(path: Path) -> list[dict]:
    return json.loads(path.read_text())["sets"]


def _samples(sets: list[dict], workload: str, metric: str) -> list[float]:
    runs = [
        run["metrics"][metric]
        for one in sets
        for run in one["runs"]
        if run["workload"] == workload and metric in run["metrics"]
    ]
    if len(sets) >= MIN_SETS_FOR_SET_MEDIANS:
        return [run["value"] for run in runs]
    return [sample for run in runs for sample in run["samples"]]


def _summary(samples: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile); degenerate for < 2 samples."""
    median = statistics.median(samples)
    if len(samples) < 2:
        return median, median, median
    low, _, high = statistics.quantiles(samples, n=4)
    return median, low, high


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """Judge side ``b`` against side ``a``; returns (verdict, worse-by share of a's median)."""
    sign = 1.0 if better == "lower" else -1.0
    a_median, a_low, a_high = _summary(a)
    b_median, b_low, b_high = _summary(b)
    worse_by = sign * (b_median - a_median) / abs(a_median)
    if worse_by > bound:
        return REGRESSED, worse_by
    spread = max((a_high - a_low) / abs(a_median), (b_high - b_low) / abs(b_median))
    every_b_better = max(sign * x for x in b) < min(sign * x for x in a)
    if spread > bound and not every_b_better:
        return UNRESOLVED, worse_by
    return WITHIN, worse_by


def compare_sets(a: list[dict], b: list[dict], spec: dict, labels=("A", "B")) -> int:
    """Print both tables; returns 1 when any end-to-end metric regressed."""
    workloads = [w["name"] for w in spec["workloads"]]
    regressed = 0
    print(f"\nend-to-end: {labels[1]} against {labels[0]} (median [q1, q3], n)")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            side_a, side_b = _samples(a, workload, name), _samples(b, workload, name)
            if not side_a or not side_b:
                print(f"  {workload:<18}{name:<14} missing on one side")
                continue
            outcome, worse_by = verdict(side_a, side_b, metric["better"], metric["bound"])
            regressed += outcome == REGRESSED
            cells = "   ".join(
                "{:.5g} [{:.5g}, {:.5g}] n={}".format(*_summary(side), len(side))
                for side in (side_a, side_b)
            )
            print(
                f"  {workload:<18}{name:<14}{cells}   {worse_by:+.1%} worse "
                f"(bound {metric['bound']:.0%}): {outcome}"
            )
    print(f"\nper-layer medians ({labels[0]}, {labels[1]}, ratio); no bounds apply")
    for workload in workloads:
        for metric in spec["per_layer"]:
            name = metric["name"]
            side_a, side_b = _samples(a, workload, name), _samples(b, workload, name)
            if side_a and side_b:
                med_a, med_b = statistics.median(side_a), statistics.median(side_b)
                ratio = f"{med_b / med_a:.3f}" if med_a else "-"
                print(f"  {workload:<18}{name:<52}{med_a:>14.6g}{med_b:>14.6g}{ratio:>9}")
    print(f"\n{regressed} end-to-end metric x workload pairs regressed")
    return 1 if regressed else 0


def compare_files(a: Path, b: Path, spec: dict) -> int:
    return compare_sets(load_sets(a), load_sets(b), spec, (a.name, b.name))
