"""Fleet-serving sweep — tail latency vs device count under load.

The ROADMAP's multi-device unlock: instead of one accelerator absorbing
the whole session population (:mod:`repro.experiments.scheduled_serving`),
this driver runs the fleet plane (:class:`repro.sim.fleet.FleetScheduler`)
over the same arrival traces at every device count and reports what a
serving operator sizing a deployment actually wants:

* **p99 vs device count** — how far the tail collapses as sessions spread
  over 1, 2, 4, ... devices at a *fixed* total offered load (the sweep
  holds the session population and its traces constant, so every fleet
  size serves identical work);
* **router policy** — each fleet size runs under every routing policy, so
  the rows separate what extra devices buy from what smarter placement
  buys;
* **migration pricing** — a second sweep homes every session on device 0
  and re-runs under a finite-bandwidth interconnect, pricing what
  rebalancing a loaded device actually costs in shipped shard bytes and
  delayed frames.

The M=1 rows are bit-identical to a plain
:class:`~repro.sim.scheduler.ServingScheduler` run (the fleet guarantee),
so the single-device column doubles as the baseline.  The sweeps run on
the shared runner in :mod:`repro.experiments._sweep`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.fleet import fleet_rollup
from repro.experiments import _sweep
from repro.experiments._sweep import (
    Scenario,
    SweepResult,
    format_rows,
    grid,
    named_system,
    percent,
)
from repro.hw.interconnect import PCIE5_SWITCH
from repro.sim.fleet import ROUTER_POLICIES, FleetConfig, FleetScheduler

DEVICE_COUNTS = (1, 2, 4)
LOAD_FACTORS = (0.7, 1.2)

SCALING_COLUMNS = (
    ("load", "load"),
    ("devices", lambda row: int(row["num_devices"])),
    ("router", "router"),
    ("p50 ms", "p50", ".2f"),
    ("p99 ms", "p99", ".2f"),
    ("miss %", percent("deadline_miss_rate"), ".1f"),
    ("migr", lambda row: int(row["migrations"])),
    ("imbal", "imbalance", ".2f"),
)
MIGRATION_COLUMNS = (
    ("router", "router"),
    (
        "patience",
        lambda row: "-" if row["router"] != "kv_residency" else f"{row['patience']:g}",
    ),
    ("mode", lambda row: "steal" if row["stealing"] else "one-shot"),
    ("migrations", lambda row: int(row["migrations"])),
    ("steals", lambda row: int(row["steals"])),
    ("GB shipped", lambda row: row["interconnect_bytes"] / 1e9, ".2f"),
    ("p50 ms", "p50", ".2f"),
    ("p99 ms", "p99", ".2f"),
    ("miss %", percent("deadline_miss_rate"), ".1f"),
)


@dataclass(kw_only=True)
class FleetServingResult(SweepResult):
    """Rows of ``fleet_rollup`` dicts, each with its ``load`` (and, in the
    migration sweep, ``homed``, ``patience`` and ``stealing``)."""

    key: tuple[str, ...] = ("load", "num_devices", "router")

    def tail_collapse(self, load: float, router: str = "round_robin") -> float:
        """p99(M=1) / p99(max M) at one load — what the fleet buys."""
        counts = sorted({row["num_devices"] for row in self.rows})
        single = self.row(load, counts[0], router)["p99"]
        widest = self.row(load, counts[-1], router)["p99"]
        if widest <= 0:
            return 1.0
        return single / widest


def _scenario(num_streams: int, frames_per_stream: int) -> Scenario:
    return Scenario(
        named_system("V-Rex8"),
        (40_000,) * num_streams,
        frames_per_stream,
        deadline_multiple=3.0,
        max_queue_depth=6,
    )


def run() -> FleetServingResult:
    """Sweep device count × load × router at a fixed session population.

    Offered load is quoted against a *single* device (``load=1.2`` means
    one device would be 20% oversubscribed), so growing the fleet at a
    fixed load shows the tail collapsing toward the solo latency floor.
    """
    base = _scenario(12, 10)

    def point(load: float, num_devices: int, router: str) -> dict:
        fleet = FleetScheduler(
            base.plane,
            base.config(),
            FleetConfig(
                num_devices=num_devices, router=router, interconnect=PCIE5_SWITCH, seed=base.seed
            ),
        )
        result = fleet.run(base.system, base.profiles, base.traces(load))
        return {"load": load, **fleet_rollup(result)}

    rows = grid(
        point, load_factors=LOAD_FACTORS, device_counts=DEVICE_COUNTS, routers=ROUTER_POLICIES
    )
    return FleetServingResult.of(base, rows)


def run_migration_sweep(
    num_streams: int = 12, frames_per_stream: int = 10, num_devices: int = 4
) -> FleetServingResult:
    """Price rebalancing a fleet whose sessions all live on device 0.

    Every session is *homed* on device 0 (its shards are resident there);
    each router then decides who stays and who ships.  The load-blind
    routers migrate almost everyone (maximum traffic); ``kv_residency``
    runs at several patience levels (``migrate_backlog_s`` in units of the
    per-session work estimate), from infinite patience — zero bytes
    shipped, the whole population stuck queueing on device 0 — down to
    hair-trigger rebalancing.  The rows price that spectrum in shipped
    shard bytes against tail latency, each one-shot and with work stealing.
    """
    base = _scenario(num_streams, frames_per_stream)
    load = 1.2
    homes = {profile.session_id: 0 for profile in base.profiles}
    session_work = base.solo_latency_s * (frames_per_stream + 1)
    patience_points = [
        (router, math.inf) for router in ROUTER_POLICIES if router != "kv_residency"
    ] + [("kv_residency", patience) for patience in (math.inf, 4.0, 1.0)]

    def point(router_patience: tuple[str, float], stealing: bool) -> dict:
        router, patience = router_patience
        fleet = FleetScheduler(
            base.plane,
            base.config(),
            FleetConfig(
                num_devices=num_devices,
                router=router,
                interconnect=PCIE5_SWITCH,
                seed=base.seed,
                migrate_backlog_s=patience * session_work,
                work_stealing=stealing,
            ),
        )
        result = fleet.run(base.system, base.profiles, base.traces(load), home_devices=homes)
        return {
            **fleet_rollup(result),
            "load": load,
            "homed": True,
            "patience": patience,
            "stealing": stealing,
        }

    rows = grid(point, routers=patience_points, stealing=(False, True))
    return FleetServingResult.of(base, rows, key=("router", "patience", "stealing"))


def _report() -> dict[str, FleetServingResult]:
    scaling = run()
    print(
        format_rows(
            SCALING_COLUMNS,
            scaling.rows,
            title=(
                f"Fleet serving — {scaling.system}, {scaling.num_streams} sessions, "
                f"{scaling.kv_len // 1000}K cache/session, "
                f"interconnect {PCIE5_SWITCH.name}"
            ),
        )
    )
    heaviest = max(row["load"] for row in scaling.rows)
    print(
        f"\np99 collapse at load {heaviest:g} (round_robin, 1 -> "
        f"{max(int(r['num_devices']) for r in scaling.rows)} devices): "
        f"{scaling.tail_collapse(heaviest):.2f}x"
    )

    migration = run_migration_sweep()
    print()
    print(
        format_rows(
            MIGRATION_COLUMNS,
            migration.rows,
            title=(
                f"Migration pricing — all sessions homed on device 0, "
                f"{PCIE5_SWITCH.name} interconnect, one-shot vs work stealing"
            ),
        )
    )
    one_shot_p99 = migration.row("kv_residency", math.inf, False)["p99"]
    steal_p99 = migration.row("kv_residency", math.inf, True)["p99"]
    print(
        f"\nwork stealing on the stuck-at-home population "
        f"(kv_residency, infinite patience): p99 "
        f"{one_shot_p99:.2f} ms -> {steal_p99:.2f} ms"
    )
    return {"scaling": scaling, "migration": migration}


def main(argv: list[str] | None = None) -> dict[str, FleetServingResult]:
    """Print the device-count sweep and the migration-pricing sweep.

    ``--sanitize`` arms the runtime sanitizer for the whole sweep: every
    event loop, resource and shard plane in every run asserts its
    invariants (equivalent to launching under ``REPRO_SANITIZE=1``).
    """
    return _sweep.main(argv, _report)


if __name__ == "__main__":
    main()
