"""Fig. 14 — end-to-end latency breakdown: AGX baselines vs V-Rex8.

Normalised end-to-end latency of the COIN working scenario (26 frames,
25-token question, 39-token answer) split into vision/prefill/generation,
as the KV cache grows from 1K to 40K.  The paper reports up to 5.4x
end-to-end reduction with a widening gap as the cache grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.reporting import format_table
from repro.sim.pipeline import LatencyModel, ScenarioResult
from repro.sim.systems import DEFAULT_KV_LENGTHS, edge_systems
from repro.sim.workload import default_llm_workload


@dataclass
class Fig14Result:
    """Scenario latencies per system and cache length."""

    scenarios: dict[str, dict[int, ScenarioResult]] = field(default_factory=dict)
    normalised: dict[str, dict[int, float]] = field(default_factory=dict)
    vrex_reduction: dict[int, float] = field(default_factory=dict)


def run(kv_lengths=DEFAULT_KV_LENGTHS, batch: int = 1) -> Fig14Result:
    """Compute the end-to-end scenario for every edge system."""
    model = LatencyModel()
    systems = edge_systems(default_llm_workload().model_bytes())
    result = Fig14Result()
    for name, system in systems.items():
        result.scenarios[name] = {
            kv_len: model.e2e_scenario(system, kv_len, batch) for kv_len in kv_lengths
        }

    reference = result.scenarios["V-Rex8"]
    baseline = result.scenarios["AGX + FlexGen"]
    normaliser = {kv: reference[kv].total_s for kv in kv_lengths}
    for name, per_len in result.scenarios.items():
        result.normalised[name] = {
            kv: per_len[kv].total_s / normaliser[kv] for kv in kv_lengths if normaliser[kv] > 0
        }
    result.vrex_reduction = {
        kv: baseline[kv].total_s / reference[kv].total_s for kv in kv_lengths
        if reference[kv].total_s > 0
    }
    return result


def main() -> Fig14Result:
    """Print normalised end-to-end latencies and stage fractions."""
    result = run()
    kv_lengths = sorted(next(iter(result.normalised.values())).keys())
    rows = [
        [name] + [round(result.normalised[name][kv], 2) for kv in kv_lengths]
        for name in result.normalised
    ]
    print(
        format_table(
            ["system"] + [f"{kv//1000}K" for kv in kv_lengths],
            rows,
            title="Fig. 14 — end-to-end latency normalised to V-Rex8",
        )
    )
    print("  V-Rex8 end-to-end reduction vs AGX + FlexGen:",
          {kv: round(v, 1) for kv, v in result.vrex_reduction.items()})
    vrex = result.scenarios["V-Rex8"]
    for kv in kv_lengths:
        fr = vrex[kv].breakdown_fractions()
        print(
            f"  V-Rex8 @ {kv//1000}K: vision {100 * fr['vision']:.0f}% / "
            f"prefill {100 * fr['prefill']:.0f}% / generation {100 * fr['generation']:.0f}%"
        )
    return result


if __name__ == "__main__":
    main()
