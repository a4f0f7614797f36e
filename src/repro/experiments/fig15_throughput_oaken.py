"""Fig. 15 — throughput comparison against a SOTA LLM accelerator (Oaken).

Frame throughput at batch 16 for: AGX Orin running FlexGen *without* KV
offloading (the cache must stay resident), Oaken (online 4-bit KV cache
quantisation, still resident), and V-Rex8 (ReSV retrieval with hierarchical
offloading).  The resident-cache systems hit out-of-memory as the cache
grows — AGX Orin first, Oaken beyond 20K — while V-Rex keeps operating.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.reporting import format_table
from repro.sim.pipeline import LatencyModel
from repro.sim.systems import DEFAULT_KV_LENGTHS, throughput_systems
from repro.sim.workload import default_llm_workload


@dataclass
class Fig15Result:
    """FPS (or OOM) per system and KV cache length."""

    batch: int
    fps: dict[str, dict[int, float]] = field(default_factory=dict)
    oom: dict[str, dict[int, bool]] = field(default_factory=dict)

    def first_oom_length(self, system: str) -> int | None:
        """Smallest KV length at which a system runs out of memory."""
        for kv_len, is_oom in sorted(self.oom[system].items()):
            if is_oom:
                return kv_len
        return None


def run(kv_lengths=DEFAULT_KV_LENGTHS, batch: int = 16) -> Fig15Result:
    """Sweep throughput for the three Fig. 15 systems."""
    model = LatencyModel()
    systems = throughput_systems(default_llm_workload().model_bytes())
    result = Fig15Result(batch=batch)
    for name, system in systems.items():
        result.fps[name] = {}
        result.oom[name] = {}
        for kv_len in kv_lengths:
            step = model.frame_step(system, kv_len, batch)
            result.oom[name][kv_len] = step.oom
            result.fps[name][kv_len] = 0.0 if step.oom else step.fps
    return result


def main() -> Fig15Result:
    """Print the throughput table with OOM markers."""
    result = run()
    kv_lengths = sorted(next(iter(result.fps.values())).keys())
    rows = []
    for name in result.fps:
        cells = []
        for kv_len in kv_lengths:
            cells.append("OOM" if result.oom[name][kv_len] else f"{result.fps[name][kv_len]:.1f}")
        rows.append([name] + cells)
    print(
        format_table(
            ["system"] + [f"{kv//1000}K" for kv in kv_lengths],
            rows,
            title=f"Fig. 15 — frame throughput (FPS), batch {result.batch}",
        )
    )
    for name in result.fps:
        first = result.first_oom_length(name)
        print(f"  {name}: first OOM at {first if first else 'never (within sweep)'}")
    return result


if __name__ == "__main__":
    main()
