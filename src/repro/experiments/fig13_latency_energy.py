"""Fig. 13 — latency and energy-efficiency comparison against GPUs.

Sweeps KV cache lengths 1K-40K for the edge (AGX Orin) and server (A100)
line-ups: FlexGen, InfiniGen, InfiniGenP, ReKV and V-Rex, reporting
per-frame latency, TPOT, energy efficiency (GOPS/W) and the headline
speedup / efficiency-gain ranges the paper quotes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.metrics import speedup_range
from repro.analysis.reporting import format_series, format_table
from repro.devtools.sanitizer import arm_from_argv
from repro.sim.pipeline import LatencyModel
from repro.sim.systems import DEFAULT_KV_LENGTHS, edge_systems, server_systems
from repro.sim.workload import default_llm_workload

#: ``(system, stage, batch)`` -> ``{kv_len: value}``: one sweep's series
_Series = dict[tuple[str, str, int], dict[int, float]]


@dataclass
class Fig13Result:
    """Sweeps and headline ranges for one platform (edge or server).

    ``latency_ms`` and ``efficiency_gops_w`` hold every swept series:
    per-step latency and energy efficiency, keyed by ``(system, stage,
    batch)``.
    """

    platform: str
    baseline: str
    vrex: str
    latency_ms: _Series
    efficiency_gops_w: _Series
    frame_speedup_b1: dict[int, float] = field(default_factory=dict)
    frame_speedup_large_batch: dict[int, float] = field(default_factory=dict)
    tpot_speedup_b1: dict[int, float] = field(default_factory=dict)
    energy_gain_frame_b1: dict[int, float] = field(default_factory=dict)
    energy_gain_tpot_b1: dict[int, float] = field(default_factory=dict)
    vrex_frame_latency_ms: dict[int, float] = field(default_factory=dict)
    vrex_fps: dict[int, float] = field(default_factory=dict)


def _gain_series(
    vrex_eff: dict[int, float],
    base_eff: dict[int, float],
    stage: str,
    baseline: str,
) -> dict[int, float]:
    """Efficiency-gain ratios, logging any KV point the filter drops.

    A baseline efficiency of exactly 0.0 means "no energy measured" for
    that point (see ``EnergyModel.efficiency_gops_per_w``); dividing by
    it is meaningless, but silently narrowing the headline range over it
    would violate the no-silent-caps rule — so every dropped point is
    printed.
    """
    dropped = sorted(k for k in base_eff if not base_eff[k] > 0)
    if dropped:
        print(
            f"  [fig13] {stage}: dropping kv={dropped} from the "
            f"efficiency-gain range — {baseline} reported no energy there"
        )
    return {k: vrex_eff[k] / base_eff[k] for k in base_eff if base_eff[k] > 0}


def _sweep(model: LatencyModel, systems: dict, kv_lengths, batches) -> tuple[_Series, _Series]:
    """Latency and GOPS/W of a frame and a generation step at every
    system x batch x KV length."""
    latency: _Series = {}
    efficiency: _Series = {}
    for system in systems.values():
        for batch in batches:
            for kv_len in kv_lengths:
                for step in (
                    model.frame_step(system, kv_len, batch),
                    model.generation_step(system, kv_len, batch),
                ):
                    key = (system.name, step.stage, batch)
                    latency.setdefault(key, {})[step.kv_len] = step.total_ms
                    efficiency.setdefault(key, {})[step.kv_len] = (
                        model.step_efficiency_gops_w(system, step)
                    )
    return latency, efficiency


def _platform_result(
    platform: str,
    systems: dict,
    baseline: str,
    vrex: str,
    large_batch: int,
    kv_lengths,
    model: LatencyModel,
) -> Fig13Result:
    latency, efficiency = _sweep(model, systems, kv_lengths, (1, large_batch))
    result = Fig13Result(platform, baseline, vrex, latency, efficiency)

    def speedup(stage: str, batch: int) -> dict[int, float]:
        """kv_len -> latency speedup of V-Rex over the baseline."""
        base = latency.get((baseline, stage, batch), {})
        other = latency.get((vrex, stage, batch), {})
        return {k: base[k] / other[k] for k in sorted(set(base) & set(other)) if other[k] > 0}

    result.frame_speedup_b1 = speedup("frame", 1)
    result.frame_speedup_large_batch = speedup("frame", large_batch)
    result.tpot_speedup_b1 = speedup("generation", 1)
    result.energy_gain_frame_b1, result.energy_gain_tpot_b1 = (
        _gain_series(
            efficiency.get((vrex, stage, 1), {}),
            efficiency.get((baseline, stage, 1), {}),
            f"{platform}/{stage}",
            baseline,
        )
        for stage in ("frame", "generation")
    )
    result.vrex_frame_latency_ms = latency.get((vrex, "frame", 1), {})
    result.vrex_fps = {k: 1000.0 / v for k, v in result.vrex_frame_latency_ms.items() if v > 0}
    return result


def run(kv_lengths=DEFAULT_KV_LENGTHS) -> dict[str, Fig13Result]:
    """Run both platform comparisons."""
    model_bytes = default_llm_workload().model_bytes()
    model = LatencyModel()
    return {
        "edge": _platform_result(
            "edge", edge_systems(model_bytes), "AGX + FlexGen", "V-Rex8", 4, kv_lengths, model
        ),
        "server": _platform_result(
            "server", server_systems(model_bytes), "A100 + FlexGen", "V-Rex48", 8, kv_lengths, model
        ),
    }


def main(argv: list[str] | None = None) -> dict[str, Fig13Result]:
    """Print per-system latency series and the paper's headline ranges."""
    arm_from_argv(argv)
    results = run()
    for platform, result in results.items():
        systems = sorted({system for system, _stage, _batch in result.latency_ms})
        kv_lengths = sorted({k for series in result.latency_ms.values() for k in series})
        rows = []
        for system in systems:
            frame = result.latency_ms[(system, "frame", 1)]
            tpot = result.latency_ms[(system, "generation", 1)]
            rows.append(
                [system]
                + [round(frame.get(k, float("nan")), 1) for k in kv_lengths]
                + [round(tpot.get(k, float("nan")), 1) for k in kv_lengths]
            )
        headers = (
            ["system"]
            + [f"frame@{k//1000}K (ms)" for k in kv_lengths]
            + [f"tpot@{k//1000}K (ms)" for k in kv_lengths]
        )
        print(format_table(headers, rows, title=f"Fig. 13 ({platform}) — latency, batch 1"))
        lo, hi = speedup_range(result.frame_speedup_b1)
        print(f"  frame speedup vs {result.baseline} (batch 1): {lo:.1f}-{hi:.1f}x")
        lo, hi = speedup_range(result.frame_speedup_large_batch)
        print(f"  frame speedup vs {result.baseline} (large batch): {lo:.1f}-{hi:.1f}x")
        lo, hi = speedup_range(result.tpot_speedup_b1)
        print(f"  TPOT speedup vs {result.baseline} (batch 1): {lo:.1f}-{hi:.1f}x")
        lo, hi = speedup_range(result.energy_gain_frame_b1)
        print(f"  energy-efficiency gain, frame stage: {lo:.1f}-{hi:.1f}x")
        lo, hi = speedup_range(result.energy_gain_tpot_b1)
        print(f"  energy-efficiency gain, generation stage: {lo:.1f}-{hi:.1f}x")
        print(format_series(result.vrex_fps, f"  {result.vrex} FPS (batch 1)"))
        print()
    return results


if __name__ == "__main__":
    main()
