"""Energy-aware serving — J/token, J/query and $/1M-queries under load.

The ROADMAP's "fleet energy & cost-per-query plane" unlock: the event
scheduler now carries per-resource busy/idle residency accounting, so a
run prices its *energy* next to its latency percentiles.  Two sweeps:

* **load sweep** — one system under Poisson arrivals across load
  factors: total J split busy/idle, J/token, J/query, $/1M-queries and
  PCIe-link utilization per operating point.  Idle (always-on) power
  dominates at low load — the J/query curve falls as the window fills —
  which is the economic case for consolidating streams per device;
* **admission showdown** — ``admission="energy"`` (defer when a job's
  marginal J/token estimate busts the budget) head-to-head against
  ``admission="residency"`` on a heterogeneous fleet (two 80K-token
  hog streams among four 10K streams).  The deadline policy sheds
  deadline-busting jobs; the energy policy keeps serving whenever the
  marginal joules still buy tokens — at moderate load it serves more
  queries inside nearly the same window, undercutting the deadline
  policy on J/query while staying within 10% of its p99.

``--sanitize`` arms the runtime sanitizer (energy-conservation checks
included) for the whole sweep.  The sweeps run on the shared runner in
:mod:`repro.experiments._sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.energy import energy_rollup, format_energy_table
from repro.experiments import _sweep
from repro.experiments._sweep import (
    Scenario,
    SweepResult,
    format_rows,
    grid,
    named_system,
    percent,
    schedule_row,
)
from repro.hw.memory.sharding import ShardedKVHierarchy
from repro.hw.specs import GiB

DEFAULT_LOAD_FACTORS = (0.4, 0.7, 0.9, 1.2)

#: The showdown fleet: two 80K-token cache hogs among four light streams.
SHOWDOWN_KV_LENS = (80_000, 80_000, 10_000, 10_000, 10_000, 10_000)
SHOWDOWN_LOAD_FACTORS = (0.8, 1.0, 1.4)
SHOWDOWN_BUDGET_J_PER_TOKEN = 8.0

LOAD_COLUMNS = (
    ("load", "load"),
    ("total J", "total_j", ".1f"),
    ("idle J", "idle_j", ".1f"),
    ("J/token", "j_per_token", ".3f"),
    ("J/query", "j_per_query", ".3f"),
    ("$/1M q", "usd_per_1m_queries", ".4f"),
    ("link util %", percent("link_utilization"), ".1f"),
    ("p99 ms", "p99_ms", ".1f"),
)
SHOWDOWN_COLUMNS = (
    ("load", "load"),
    ("admission", "admission"),
    ("served", "served"),
    ("deferred", "deferred"),
    ("J/query", "j_per_query", ".3f"),
    ("$/1M q", "usd_per_1m_queries", ".4f"),
    ("p99 ms", "p99_ms", ".1f"),
    ("miss %", percent("miss_rate"), ".1f"),
)


def _energy_row(schedule) -> dict:
    """One run's latency summary, its ``energy_rollup`` and its report."""
    report = schedule.energy()
    return {
        **schedule_row(schedule),
        **energy_rollup(report),
        "served": schedule.served,
        "deferred": schedule.deferred,
        "report": report,
    }


def run_load_sweep(
    num_streams: int = 8,
    frames_per_stream: int = 12,
    load_factors=DEFAULT_LOAD_FACTORS,
) -> SweepResult:
    """Price one system's serving energy across Poisson load factors.

    One row per load factor: the flat ``energy_rollup``, latency, the PCIe
    link's utilization and the full report (``row["report"]``).
    """
    base = Scenario(
        named_system("V-Rex8"), (40_000,) * num_streams, frames_per_stream, max_queue_depth=4
    )

    def point(load: float) -> dict:
        row = {"load": load, **_energy_row(base.schedule(load))}
        link = [r for r in row["report"].resources if r.name in ("pcie", "device")]
        row["link_utilization"] = link[0].utilization if link else 0.0
        return row

    return SweepResult.of(base, grid(point, load_factors=load_factors))


@dataclass(kw_only=True)
class AdmissionShowdownResult(SweepResult):
    """Energy-vs-residency admission, one pair of runs per load factor.

    One row per (load, admission): J/query, p99, served/deferred.
    """

    budget_j_per_token: float
    key: tuple[str, ...] = ("load", "admission")

    def energy_wins(self, p99_slack: float = 1.1) -> list[float]:
        """Load factors where the energy policy undercuts residency on
        J/query while keeping p99 within ``p99_slack`` of it."""
        wins = []
        for row in self.rows:
            if row["admission"] != "energy":
                continue
            other = self.row(row["load"], "residency")
            if (
                row["j_per_query"] < other["j_per_query"]
                and row["p99_ms"] <= p99_slack * other["p99_ms"]
            ):
                wins.append(row["load"])
        return wins


def run_admission_showdown(load_factors=SHOWDOWN_LOAD_FACTORS) -> AdmissionShowdownResult:
    """Run the two admission policies over identical seeded traces.

    Every run partitions the fleet's shards into a fresh copy of the
    plane's bank hierarchy, so the two policies see identical initial
    state.  The fleet is heterogeneous on purpose: with uniform streams the
    energy policy degenerates into a deadline policy priced in joules
    (``sojourn > (budget x tokens - io x fetch) / baseline``) and the two
    tie bit for bit.
    """
    base = Scenario(
        named_system("V-Rex48"),
        SHOWDOWN_KV_LENS,
        frames_per_stream=10,
        deadline_multiple=3.0,
        max_queue_depth=3,
        seed=23,
        memory=ShardedKVHierarchy(num_banks=2, bank_budget_bytes=24.0 * GiB),
    )

    def point(load: float, admission: str) -> dict:
        budget = SHOWDOWN_BUDGET_J_PER_TOKEN if admission == "energy" else None
        schedule = base.schedule(
            load, "bursty", admission=admission, energy_budget_j_per_token=budget
        )
        return {"load": load, "admission": admission, **_energy_row(schedule)}

    rows = grid(point, load_factors=load_factors, admission=("residency", "energy"))
    return AdmissionShowdownResult.of(base, rows, budget_j_per_token=SHOWDOWN_BUDGET_J_PER_TOKEN)


def _report() -> dict:
    sweep = run_load_sweep()
    print(
        format_rows(
            LOAD_COLUMNS,
            sweep.rows,
            title=(
                f"Serving energy vs load — {sweep.system}, {sweep.num_streams} streams, "
                f"{sweep.kv_len // 1000}K cache/stream, Poisson arrivals"
            ),
        )
    )
    print()

    showdown = run_admission_showdown()
    print(
        format_rows(
            SHOWDOWN_COLUMNS,
            showdown.rows,
            title=(
                f"Admission showdown — {showdown.system}, caches "
                f"{'/'.join(str(kv // 1000) + 'K' for kv in showdown.kv_lens)}, "
                f"budget {showdown.budget_j_per_token:g} J/token vs deadline "
                f"{showdown.deadline_s * 1e3:.0f} ms"
            ),
        )
    )
    wins = showdown.energy_wins()
    print(
        f"  energy admission undercuts residency on J/query (p99 within 10%) "
        f"at load(s): {', '.join(str(w) for w in wins) if wins else 'none'}"
    )
    print()

    # one fully-itemized report at the heaviest load-sweep point
    heaviest = max(row["load"] for row in sweep.rows)
    print(
        format_energy_table(
            sweep.row(heaviest)["report"],
            title=f"Per-resource energy — {sweep.system} at load {heaviest}",
        )
    )
    return {"load_sweep": sweep, "showdown": showdown}


def main(argv: list[str] | None = None) -> dict:
    """Print the energy plane's two sweeps.

    ``--sanitize`` arms the runtime sanitizer for the whole sweep
    (equivalent to launching under ``REPRO_SANITIZE=1``).
    """
    return _sweep.main(argv, _report)


if __name__ == "__main__":
    main()
