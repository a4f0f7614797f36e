"""Output checks of the e2e benchmark.

Simulated statistics are deterministic per seed, so correctness is checked
exactly: a digest of every plane's outputs (floats by ``repr``) is compared
with the digest pinned under ``golden/`` when one exists for the seed, and
invariants that need no pin — M=1 fleet == plain scheduler, energy and job
conservation, pass-to-pass determinism — are checked on every seed.  The
M>1 fleet run is held only to invariants, so a later, documented re-pin of
multi-device routing decisions is not a benchmark failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.devtools.sanitizer import SanitizerError
from repro.sim.energy import assert_conserved
from repro.sim.scheduler import FRAME_JOB

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def token_ids(model, generated) -> list[list[int]]:
    """Greedy token ids of every stream's generated positions."""
    return [np.argmax(model.logits(hidden), axis=-1).tolist() for hidden in generated]


def _latency_fields(result, summary, energy) -> dict:
    return {
        "p50_ms": repr(summary.p50_ms),
        "p95_ms": repr(summary.p95_ms),
        "p99_ms": repr(summary.p99_ms),
        "deadline_miss_rate": repr(summary.deadline_miss_rate),
        "served": result.served,
        "dropped": result.dropped,
        "events_processed": result.events_processed,
        "makespan_s": repr(result.makespan_s),
        "j_per_query": repr(energy.j_per_query),
        "j_per_token": repr(energy.j_per_token),
    }


def digest(inputs, out, extras) -> dict:
    """Every pinned statistic of one pass, JSON-ready (floats as ``repr``)."""
    schedule = out.schedule
    return {
        "functional": {
            "token_ids": token_ids(inputs.batch.model, out.generated),
            "frame_retrieval_ratio": [repr(r.frame_retrieval_ratio) for r in out.reports],
            "generation_retrieval_ratio": [
                repr(r.generation_retrieval_ratio) for r in out.reports
            ],
            "sort_fraction": [repr(r.sort_fraction) for r in out.reports],
            "tokens_per_cluster": [repr(r.mean_tokens_per_cluster) for r in out.reports],
        },
        "pricing": {
            "sweep_total_ms": repr(out.sweep_total_ms),
            "solo_fps": repr(out.solo_fps),
        },
        "scheduler": {
            **_latency_fields(schedule, out.summary, out.energy),
            "deferred": schedule.deferred,
            "evict_admissions": schedule.evict_admissions,
            "memory_evictions": memory_evictions(schedule),
        },
        "fleet_m1": _latency_fields(
            extras.m1_fleet, extras.m1_fleet.fleet_summary(), extras.m1_fleet.energy()
        ),
    }


def memory_evictions(schedule) -> int:
    return len(schedule.memory.evictions) if schedule.memory is not None else 0


def fingerprint(inputs, out) -> tuple:
    """A cheap per-pass identity: equal inputs must reproduce it exactly."""
    return (
        token_ids(inputs.batch.model, out.generated),
        repr(out.sweep_total_ms),
        out.schedule.events_processed,
        out.schedule.served,
        repr(out.summary.p99_ms),
        repr(out.energy.total_j),
        out.fleet_result.events_processed,
        len(out.fleet_records),
        repr(out.fleet_energy.total_j),
    )


# ---------------------------------------------------------------------- #
# golden digests
# ---------------------------------------------------------------------- #
def golden_path(workload: str, seed: int) -> Path:
    return GOLDEN_DIR / f"{workload}.seed{seed}.json"


def load_golden(workload: str, seed: int, size: str) -> dict | None:
    path = golden_path(workload, seed)
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(size)


def flatten(tree: dict, prefix: str = "") -> dict[str, object]:
    flat: dict[str, object] = {}
    for key, value in tree.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, name + "."))
        else:
            flat[name] = value
    return flat


def diff(pinned: dict, measured: dict) -> list[str]:
    """Field-by-field differences, one line each (empty when equal)."""
    old, new = flatten(pinned), flatten(measured)
    return [
        f"{name}: {old.get(name, '<absent>')} -> {new.get(name, '<absent>')}"
        for name in sorted(old.keys() | new.keys())
        if old.get(name) != new.get(name)
    ]


def repin(workload: str, seed: int, size: str, measured: dict) -> list[str]:
    """Rewrite one golden entry; returns the diff against what was pinned."""
    path = golden_path(workload, seed)
    pinned = json.loads(path.read_text()) if path.exists() else {}
    changes = diff(pinned.get(size, {}), measured)
    pinned[size] = measured
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return changes


# ---------------------------------------------------------------------- #
# the checks of one (warm-up) pass
# ---------------------------------------------------------------------- #
def _conserved(name: str, report) -> Check:
    try:
        assert_conserved(report)
    except SanitizerError as error:
        return Check(name, False, str(error))
    return Check(name, math.isfinite(report.total_j) and report.total_j > 0.0)


def _job_keys(records) -> list[tuple]:
    return [(r.stream_index, r.kind, r.job_index) for r in records]


def _terminal_states(name: str, records, streams: int, frames: int) -> Check:
    """Every submitted job ends in exactly one record: no loss, no duplicate."""
    keys = _job_keys(records)
    frame_jobs = sum(1 for r in records if r.kind == FRAME_JOB)
    ok = len(set(keys)) == len(keys) and frame_jobs == streams * frames
    return Check(name, ok, f"{len(keys)} records, {frame_jobs} frame jobs")


def run_checks(spec, inputs, out, extras, measured: dict, pinned: dict | None) -> list[Check]:
    checks: list[Check] = []
    if pinned is not None:
        changes = diff(pinned, measured)
        checks.append(Check("golden_digest", not changes, "; ".join(changes[:6])))

    reports = out.reports
    checks.append(
        Check(
            "functional_outputs",
            all(r.frames_processed == spec.func_frames for r in reports)
            and all(np.isfinite(hidden).all() for hidden in out.generated)
            and all(0.0 < r.frame_retrieval_ratio <= 1.0 for r in reports),
        )
    )
    checks.append(Check("pricing_finite", math.isfinite(out.sweep_total_ms) and out.solo_fps > 0))

    schedule = out.schedule
    checks.append(
        _terminal_states("scheduler_terminal_states", schedule.records, spec.sessions, spec.frames)
    )
    checks.append(
        Check(
            "scheduler_counts",
            schedule.served + schedule.dropped == len(schedule.records)
            and schedule.deferred <= schedule.dropped
            and schedule.served > 0,
        )
    )
    checks.append(
        Check(
            "cached_rerun_identical",
            extras.rerun.records == schedule.records
            and extras.rerun.events_processed == schedule.events_processed,
        )
    )
    checks.append(_conserved("scheduler_energy_conserved", out.energy))

    fleet = out.fleet_result
    checks.append(
        _terminal_states(
            "fleet_terminal_states", out.fleet_records, spec.fleet_sessions, spec.fleet_frames
        )
    )
    per_device_served = sum(
        run.schedule.served for run in fleet.devices if run.schedule is not None
    )
    checks.append(Check("fleet_served_sums", per_device_served == fleet.served))
    shipped = math.fsum(m.num_bytes for m in fleet.migrations)
    checks.append(
        Check(
            "fleet_shipped_bytes",
            math.isclose(shipped, fleet.interconnect_bytes, rel_tol=1e-12, abs_tol=0.0),
            f"{shipped} vs {fleet.interconnect_bytes}",
        )
    )
    checks.append(_conserved("fleet_energy_conserved", out.fleet_energy))

    m1 = extras.m1_fleet
    checks.append(
        Check(
            "fleet_m1_equals_scheduler",
            m1.records == extras.m1_plain.records
            and m1.events_processed == extras.m1_plain.events_processed,
        )
    )
    checks.append(_conserved("fleet_m1_energy_conserved", m1.energy()))
    return checks
