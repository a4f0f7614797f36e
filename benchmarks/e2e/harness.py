"""Measurement loop of the e2e benchmark: passes, metrics, the printed tables.

Host time is what the simulator takes; simulated time is what the modelled
V-Rex hardware would take.  Every metric here is host-side unless its name
starts with ``model.``.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import probes
from tracing import ROOT, NullTracer, Tracer
from workloads import WORKLOADS, Workload, build_inputs, run_extras, run_pass

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SPEC_PATH = HERE.parents[1] / "BENCHMARK.json"

MIN_PASSES = 3  # per kind (untraced, traced), however short --seconds is
SMOKE_MIN_PASSES = 2


@dataclass
class Metric:
    value: float
    unit: str
    samples: list[float] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"value": self.value, "unit": self.unit}


@dataclass
class Result:
    workload: str
    seed: int
    size: str  # "full" or "smoke"
    end_to_end: dict[str, Metric]
    per_layer: dict[str, Metric] | None  # traced runs only
    outcomes: list[checks.Check]
    passes: int

    @property
    def metrics(self) -> dict[str, Metric]:
        """What the contract asks a run to report: per-layer iff traced."""
        return self.end_to_end if self.per_layer is None else self.per_layer

    @property
    def failed(self) -> int:
        return sum(1 for check in self.outcomes if not check.ok)

    def last_line(self) -> str:
        """The driver's contract: one JSON object, exactly these keys."""
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": len(self.outcomes),
                "failed": self.failed,
                "metrics": {name: m.to_json() for name, m in self.metrics.items()},
            }
        )

    def detail(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "size": self.size,
            "passes": self.passes,
            "failed_checks": [c.name for c in self.outcomes if not c.ok],
            "metrics": {
                name: {"value": m.value, "unit": m.unit, "samples": m.samples}
                for name, m in {**self.end_to_end, **(self.per_layer or {})}.items()
            },
        }


@dataclass
class _Sample:
    """Host-side cost of one pass."""

    setup_s: float
    wall_s: float
    cpu_s: float
    reference_s: float  # mean of the reference kernel just before and just after


def _timed_pass(spec: Workload, seed: int, tracer, with_extras: bool):
    """Build inputs from the seed, then time one pass on fresh objects."""
    start = time.perf_counter()
    inputs = build_inputs(spec, seed, tracer)
    gc.collect()
    setup_s = time.perf_counter() - start
    before = probes.reference_kernel_s()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    with tracer.span(ROOT):
        out = run_pass(spec, inputs, tracer)
    wall_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_start
    reference_s = 0.5 * (before + probes.reference_kernel_s())
    extras = run_extras(spec, inputs, out, tracer) if with_extras else None
    return inputs, out, extras, _Sample(setup_s, wall_s, cpu_s, reference_s)


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    repin: bool = False,
    import_s: float = 0.0,
) -> Result:
    """Warm up, check the outputs, then time passes for ``seconds``."""
    spec = WORKLOADS[workload].smoke() if smoke else WORKLOADS[workload]
    size = "smoke" if smoke else "full"
    declared = json.loads(SPEC_PATH.read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    # warm-up pass: untimed, and the one whose outputs are checked in full
    inputs, out, extras, _ = _timed_pass(spec, seed, NullTracer(), with_extras=True)
    measured = checks.digest(inputs, out, extras)
    if repin:
        for line in checks.repin(workload, seed, size, measured) or ["(golden unchanged)"]:
            print(f"repin {workload} seed {seed} [{size}]: {line}")
    done = checks.run_checks(
        spec, inputs, out, extras, measured, checks.load_golden(workload, seed, size)
    )
    expected = checks.fingerprint(inputs, out)
    del inputs, out, extras

    untraced: list[_Sample] = []
    traced: list[_Sample] = []
    layer_rows: list[dict[str, float]] = []
    tracer = Tracer()
    started = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - started

    min_passes = SMOKE_MIN_PASSES if smoke else MIN_PASSES
    untraced_budget = seconds / 2 if trace else seconds
    while len(untraced) < min_passes or elapsed() < untraced_budget:
        inputs, out, _, sample = _timed_pass(spec, seed, NullTracer(), with_extras=False)
        untraced.append(sample)
        same = checks.fingerprint(inputs, out) == expected
        done.append(checks.Check(f"pass_{len(untraced)}_deterministic", same))
        del inputs, out
    end_to_end = _end_to_end(untraced, import_s, units)
    while trace and (len(traced) < min_passes or elapsed() < seconds):
        tracer.pass_id = len(traced)
        inputs, out, _, sample = _timed_pass(spec, seed, tracer, with_extras=True)
        traced.append(sample)
        layer_rows.append(_layer_metrics(spec, tracer, tracer.pass_id, out))
        del inputs, out

    per_layer = None
    if trace:
        per_layer = _per_layer(layer_rows, untraced, traced, done, smoke, units)
        if not smoke:  # smoke runs leave no files behind
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write_chrome_trace(OUT_DIR / f"trace_{workload}.json")
        _print_layer_table(workload, tracer, len(traced) - 1, traced[-1].wall_s, per_layer)
    return Result(workload, seed, size, end_to_end, per_layer, done, len(untraced) + len(traced))


# ---------------------------------------------------------------------- #
# end-to-end metrics (untraced passes)
# ---------------------------------------------------------------------- #
def _end_to_end(samples: list[_Sample], import_s: float, units: dict) -> dict[str, Metric]:
    def median_of(name: str, values: list[float]) -> Metric:
        return Metric(statistics.median(values), units[name], values)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": median_of("wall_s", [s.wall_s for s in samples]),
        "cpu_s": median_of("cpu_s", [s.cpu_s for s in samples]),
        "wall_per_ref": median_of("wall_per_ref", [s.wall_s / s.reference_s for s in samples]),
        "peak_rss_mb": Metric(peak_mb, units["peak_rss_mb"], [peak_mb]),
        # imports are paid once per process; input generation and model
        # construction are repeated before every pass and enter as a median
        "setup_s": median_of("setup_s", [import_s + s.setup_s for s in samples]),
    }


# ---------------------------------------------------------------------- #
# per-layer metrics (traced passes)
# ---------------------------------------------------------------------- #
def _layer_metrics(spec: Workload, tracer: Tracer, pass_id: int, out) -> dict[str, float]:
    totals = tracer.totals(pass_id)

    def seconds(name: str) -> float:
        return totals[name][0]

    def calls_per_s(name: str) -> float:
        total_s, calls = totals[name]
        return calls / total_s

    reports = out.reports
    schedule, fleet = out.schedule, out.fleet_result
    run_s, fleet_run_s = seconds("sim.scheduler.run"), seconds("sim.fleet.run")
    device_runs_s = seconds("sim.fleet.device_run")
    events_per_s = schedule.events_processed / run_s

    def mean(values) -> float:
        return statistics.fmean(values)

    return {
        "model.serving.frames_s": seconds("model.serving.frames"),
        "model.serving.frames_per_s": spec.func_streams
        * spec.func_frames
        / seconds("model.serving.frames"),
        "model.serving.qa_s": seconds("model.serving.qa"),
        "model.serving.reports_s": seconds("model.serving.reports"),
        "core.resv.observe_s": seconds("core.resv.observe"),
        "core.resv.select_s": seconds("core.resv.select"),
        "core.resv.selects": totals["core.resv.select"][1],
        "core.resv.frame_retrieval_ratio": mean(r.frame_retrieval_ratio for r in reports),
        "core.resv.generation_retrieval_ratio": mean(
            r.generation_retrieval_ratio for r in reports
        ),
        "core.resv.sort_fraction": mean(r.sort_fraction for r in reports),
        "core.resv.tokens_per_cluster": mean(r.mean_tokens_per_cluster for r in reports),
        "sim.batched.profiles_from_reports_s": seconds("sim.batched.profiles_from_reports"),
        "sim.batched.sweep_s": seconds("sim.batched.sweep"),
        **{
            f"sim.batched.frame_step_contention_evals_per_s_n{size}": calls_per_s(
                f"sim.batched.frame_step.contention_n{size}"
            )
            for size in (4, 16, 48)
        },
        "sim.batched.frame_step_batched_evals_per_s_n48": calls_per_s(
            "sim.batched.frame_step.batched_n48"
        ),
        "sim.batched.frame_step_timesliced_evals_per_s_n16": calls_per_s(
            "sim.batched.frame_step.timesliced_n16"
        ),
        "sim.batched.scenario_estimates_s": seconds("sim.batched.scenario_estimates"),
        "sim.batched.shard_bytes_calls_per_s": calls_per_s("sim.batched.session_shard_bytes"),
        "sim.scheduler.run_s": run_s,
        "sim.scheduler.rerun_s": seconds("sim.scheduler.rerun"),
        "sim.scheduler.price_cold_minus_warm_s": run_s - seconds("sim.scheduler.rerun"),
        "sim.scheduler.events": schedule.events_processed,
        "sim.scheduler.events_per_s": events_per_s,
        "sim.scheduler.jobs_per_s": len(schedule.records) / run_s,
        "sim.scheduler.records_s": seconds("sim.scheduler.records"),
        "sim.scheduler.summaries_s": seconds("sim.scheduler.summaries"),
        "sim.scheduler.served": schedule.served,
        "sim.scheduler.dropped": schedule.dropped,
        "sim.scheduler.deferred": schedule.deferred,
        "sim.scheduler.evict_admissions": schedule.evict_admissions,
        "sim.scheduler.memory_evictions": checks.memory_evictions(schedule),
        "sim.fleet.run_s": fleet_run_s,
        "sim.fleet.device_runs_s": device_runs_s,
        "sim.fleet.route_self_s": fleet_run_s - device_runs_s,
        "sim.fleet.route_share": (fleet_run_s - device_runs_s) / fleet_run_s,
        "sim.fleet.events_per_s": fleet.events_processed / fleet_run_s,
        "sim.fleet.m1_run_s": seconds("sim.fleet.m1_run"),
        "sim.fleet.m_over_m1": fleet_run_s / seconds("sim.fleet.m1_run"),
        "sim.fleet.records_s": seconds("sim.fleet.records"),
        "sim.fleet.migrations": fleet.migration_count,
        "sim.fleet.steals": fleet.steal_count,
        "sim.fleet.rebalances": fleet.rebalance_count,
        "sim.fleet.interconnect_gb": fleet.interconnect_bytes / 1e9,
        "sim.fleet.predicted_sheds": fleet.predicted_sheds,
        "sim.energy.schedule_energy_s": seconds("sim.energy.schedule"),
        "sim.energy.fleet_energy_s": seconds("sim.energy.fleet"),
        "model.j_per_query": out.energy.j_per_query,
        "model.j_per_token": out.energy.j_per_token,
        "model.sim_p50_ms": out.summary.p50_ms,
        "model.sim_p99_ms": out.summary.p99_ms,
        "model.deadline_miss_rate": out.summary.deadline_miss_rate,
        "model.makespan_s": schedule.makespan_s,
        "model.sim_fps": out.solo_fps,
        "harness.unattributed_s": tracer.self_times(pass_id)[ROOT],
    }


def _per_layer(
    rows: list[dict[str, float]],
    untraced: list[_Sample],
    traced: list[_Sample],
    done: list[checks.Check],
    smoke: bool,
    units: dict,
) -> dict[str, Metric]:
    values = {name: [row[name] for row in rows] for name in rows[0]}
    ceilings = probes.run_all(scale=0.05 if smoke else 1.0)
    values.update({name: [rate] for name, rate in ceilings.items()})
    ring = ceilings["hw.event.index_ring_cycles_per_s"]
    values["sim.scheduler.frac_of_ring_ceiling"] = [
        rate / ring for rate in values["sim.scheduler.events_per_s"]
    ]
    traced_wall = statistics.median(s.wall_s for s in traced)
    untraced_wall = statistics.median(s.wall_s for s in untraced)
    values["trace.overhead_share"] = [traced_wall / untraced_wall - 1.0]
    values["harness.check_fail_share"] = [sum(1 for c in done if not c.ok) / len(done)]
    return {
        name: Metric(statistics.median(samples), units[name], list(samples))
        for name, samples in values.items()
    }


# ---------------------------------------------------------------------- #
# printing
# ---------------------------------------------------------------------- #
#: span name prefix -> the ceiling its layer is read against, as
#: (achieved-rate metric, ceiling metric)
CEILINGS = {
    "sim.scheduler.run": ("sim.scheduler.events_per_s", "hw.event.index_ring_cycles_per_s"),
    "sim.fleet.run": ("sim.fleet.events_per_s", "hw.event.index_ring_cycles_per_s"),
    "sim.fleet.device_run": ("sim.fleet.events_per_s", "hw.event.index_ring_cycles_per_s"),
}


def _print_layer_table(
    workload: str, tracer: Tracer, pass_id: int, wall_s: float, metrics: dict[str, Metric]
) -> None:
    """Self time per layer of the last traced pass; the rows sum to its wall."""
    self_times = tracer.self_times(pass_id)
    in_pass = {
        name: self_s
        for name, self_s in self_times.items()
        if name not in ("sim.scheduler.rerun", "sim.fleet.m1_run")
    }
    print(f"\n{workload}: per-layer self time of one traced pass (wall {wall_s:.4f} s)")
    print(f"  {'layer':<44}{'self s':>10}{'share':>8}{'of ceiling':>12}")
    for name, self_s in sorted(in_pass.items(), key=lambda item: -item[1]):
        label = "harness.unattributed" if name == ROOT else name
        ceiling = ""
        if name in CEILINGS:
            achieved, bound = CEILINGS[name]
            ceiling = f"{metrics[achieved].value / metrics[bound].value:.1%}"
        print(f"  {label:<44}{self_s:>10.4f}{self_s / wall_s:>8.1%}{ceiling:>12}")
    total = sum(in_pass.values())
    print(f"  {'sum':<44}{total:>10.4f}{total / wall_s:>8.1%}")


def print_metrics(result: Result) -> None:
    """Every metric the run measured, by name with its unit (and quartiles when n >= 4)."""
    shown = {**result.end_to_end, **(result.per_layer or {})}
    print(f"\n{result.workload} seed {result.seed} [{result.size}], {result.passes} passes:")
    for name, metric in shown.items():
        line = f"  {name:<52}{metric.value:>16.6g} {metric.unit}"
        if len(metric.samples) >= 4:
            low, _, high = statistics.quantiles(metric.samples, n=4)
            line += f"   q1 {low:.6g}  q3 {high:.6g}  n {len(metric.samples)}"
        print(line)
    print(f"  checks: {len(result.outcomes) - result.failed}/{len(result.outcomes)} passed")
    for check in result.outcomes:
        if not check.ok:
            print(f"  FAILED {check.name}: {check.detail}")
