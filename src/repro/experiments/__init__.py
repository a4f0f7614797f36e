"""Experiment drivers — one module per table/figure of the paper's evaluation.

Each module exposes a ``run(...)`` function returning a structured result
(dataclass or dict) and a ``main()`` entry point that prints the same rows
or series the paper reports.  The benchmark harness under ``benchmarks/``
wraps these drivers with pytest-benchmark so every figure/table can be
regenerated with a single command (the index is the README section
"Experiments, ablations and substitutions").

Five further drivers are serving sweeps, not paper figures:
``batched_serving``, ``scheduled_serving``, ``sharded_memory``,
``fleet_serving`` and ``energy_serving``.  Each declares a base scenario
plus the axes it varies, and all five run on the one private sweep runner
in :mod:`repro.experiments._sweep` (scenario derivation, row lookup by key,
table printing, and a ``main(argv)`` that takes ``--sanitize``).
"""

from repro.experiments import (  # noqa: F401
    batched_serving,
    fig04_motivation,
    fig07_similarity,
    fig13_latency_energy,
    fig14_e2e_breakdown,
    fig15_throughput_oaken,
    fig16_ablation_hw,
    fig17_bandwidth,
    fig18_roofline,
    fig19_resv_ablation,
    fig20_retrieval_ratio,
    fleet_serving,
    scheduled_serving,
    sharded_memory,
    table02_accuracy,
    table03_area_power,
)

__all__ = [
    "batched_serving",
    "fig04_motivation",
    "fig07_similarity",
    "fig13_latency_energy",
    "fig14_e2e_breakdown",
    "fig15_throughput_oaken",
    "fig16_ablation_hw",
    "fig17_bandwidth",
    "fig18_roofline",
    "fig19_resv_ablation",
    "fig20_retrieval_ratio",
    "fleet_serving",
    "scheduled_serving",
    "sharded_memory",
    "table02_accuracy",
    "table03_area_power",
]
