"""Run-level energy accounting: anchors, goldens, admission, fleet rollups.

Four pins, mirroring how every earlier plane entered the repo as a
verified superset:

* **degenerate anchor** — a single uncontended frame's priced energy
  reproduces the analytic ``StreamingPipeline.step_energy_j`` value (the
  post-fix ``inference_energy_j`` path) to <= 1e-9 relative on every
  deployment kind, bit-identically across both engines;
* **engine equivalence** — contended runs produce the identical energy
  report (every resource row, every derived unit cost) under the
  reference and array engines, including under energy admission;
* **golden pins** — the PR 5 memory-bound golden and the PR 9 steal
  golden now also pin their J/query exactly, so an accounting change
  cannot silently reprice the committed scenarios;
* **energy admission** — config validation, defer labelling, the
  degenerate huge-budget case (bit-equal to plain backlog admission)
  and the committed showdown win over residency admission.
"""

from __future__ import annotations

import math

import pytest
from oracles import energy_row

from repro.hw.interconnect import FREE_INTERCONNECT, PCIE5_SWITCH
from repro.hw.memory.sharding import ShardedKVHierarchy
from repro.hw.roofline import attainable_tflops
from repro.sim.arrivals import BurstyArrivals, PoissonArrivals, rate_for_load
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.energy import assert_conserved, merge_reports, schedule_energy
from repro.sim.fleet import FleetConfig, FleetScheduler
from repro.sim.scheduler import DEFER, SchedulerConfig, ServingScheduler
from repro.sim.systems import edge_systems, server_systems
from repro.sim.workload import default_llm_workload
from repro.devtools.sanitizer import ENV_VAR, SanitizerError

REL_TOL = 1e-9
GiB = 1024.0**3
ENGINES = ("reference", "array")


@pytest.fixture(scope="module")
def model_bytes() -> float:
    return default_llm_workload().model_bytes()


@pytest.fixture(scope="module")
def edge(model_bytes):
    return edge_systems(model_bytes)


@pytest.fixture(scope="module")
def server(model_bytes):
    return server_systems(model_bytes)


def _profiles(kv_lens):
    return [
        StreamProfile(kv_len=kv, session_id=index)
        for index, kv in enumerate(kv_lens)
    ]


def _contended_run(system, engine, num_streams=4, frames=6, seed=3, **config):
    plane = BatchLatencyModel()
    profiles = _profiles([40_000] * num_streams)
    solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
    traces = PoissonArrivals(
        rate_hz=rate_for_load(1.2, solo, num_streams)
    ).generate(num_streams, frames, seed=seed)
    config.setdefault("max_queue_depth", 4)
    return ServingScheduler(plane, SchedulerConfig(**config), engine=engine).run(
        system, profiles, traces
    )


class TestDegenerateAnchor:
    """One uncontended frame == the analytic inference energy, both engines."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "catalog_name, system_name",
        [("edge", "V-Rex8"), ("server", "V-Rex48"), ("edge", "AGX + FlexGen")],
    )
    def test_single_frame_matches_step_energy(
        self, edge, server, catalog_name, system_name, engine
    ):
        system = {"edge": edge, "server": server}[catalog_name][system_name]
        plane = BatchLatencyModel()
        profiles = _profiles([40_000])
        result = ServingScheduler(plane, SchedulerConfig(), engine=engine).run(
            system, profiles, [[0.0]]
        )
        report = result.energy()
        analytic = plane.base.step_energy_j(
            system, plane.base.frame_step(system, 40_000)
        )
        assert report.total_j == pytest.approx(analytic, rel=REL_TOL)
        assert report.served == 1
        assert_conserved(report)

    def test_engines_agree_bit_for_bit(self, edge):
        totals = set()
        for engine in ENGINES:
            plane = BatchLatencyModel()
            result = ServingScheduler(plane, SchedulerConfig(), engine=engine).run(
                edge["V-Rex8"], _profiles([40_000]), [[0.0]]
            )
            totals.add(result.energy().total_j)
        assert len(totals) == 1

    def test_vrex_rows_are_itemized(self, edge):
        plane = BatchLatencyModel()
        result = ServingScheduler(plane, SchedulerConfig()).run(
            edge["V-Rex8"], _profiles([40_000]), [[0.0]]
        )
        report = result.energy()
        names = [row.name for row in report.resources]
        assert names == ["lxe", "dre", "dram", "pcie", "ssd"]
        # PCIe/SSD are busy-only: no idle charge, full-load watts
        assert energy_row(report, "pcie").idle_j == 0.0
        assert energy_row(report, "ssd").idle_j == 0.0
        assert energy_row(report, "pcie").busy_power_w == pytest.approx(12.0)
        assert energy_row(report, "ssd").busy_power_w == pytest.approx(4.1)
        # LXE/DRE are always-on: busy + idle telescopes to power x window
        lxe = energy_row(report, "lxe")
        assert lxe.busy_j + lxe.idle_j == pytest.approx(
            lxe.busy_power_w * report.window_s, rel=REL_TOL
        )

    def test_gpu_is_one_always_on_device_row(self, edge):
        system = edge["AGX + FlexGen"]
        plane = BatchLatencyModel()
        result = ServingScheduler(plane, SchedulerConfig()).run(
            system, _profiles([40_000]), [[0.0]]
        )
        report = result.energy()
        assert [row.name for row in report.resources] == ["device"]
        device = energy_row(report, "device")
        assert device.busy_power_w == system.device.power_w
        assert device.idle_j == 0.0  # charged busy for the whole window

    def test_roofline_spec_sheet_bound(self, edge, server):
        """Achieved TFLOPS implied by the report never beats the roofline."""
        for system in (edge["V-Rex8"], server["V-Rex48"], edge["AGX + FlexGen"]):
            result = _contended_run(system, "array")
            report = result.energy()
            assert report.window_s > 0
            achieved_tflops = report.flops / report.window_s / 1e12
            intensity = (
                report.flops / report.dram_bytes if report.dram_bytes else 0.0
            )
            ceiling = attainable_tflops(
                intensity,
                system.device.peak_tflops,
                system.device.memory_bandwidth_gbps,
            )
            assert achieved_tflops <= ceiling * (1 + 1e-9)


class TestDemandTotalsAreALeftFold:
    """The report's demand totals are a per-record loop over served jobs.

    ``schedule_energy`` gathers the demands from the record columns and
    folds them with ``np.add.accumulate``; this loop over the record rows,
    in sorted order, is the reference it must equal bit for bit.
    """

    @pytest.mark.parametrize("system_name", ["V-Rex8", "AGX + FlexGen"])
    def test_totals_match_a_loop_over_served_records(self, edge, system_name):
        profiles = _profiles([40_000, 20_000, 30_000])
        traces = PoissonArrivals(rate_hz=40.0).generate(3, 6, seed=11)
        result = ServingScheduler(BatchLatencyModel(), SchedulerConfig(max_queue_depth=2)).run(
            edge[system_name],
            profiles,
            traces,
            question_arrivals=[float(trace[-1]) + 1.0 for trace in traces],
            answer_tokens=3,
        )
        served, tokens, flops, dram_bytes, lxe_busy = 0, 0.0, 0.0, 0.0, 0.0
        for record in result.records:
            if record.dropped:
                continue
            served += 1
            stage = result.energy_inputs.priced[record.stream_index][record.kind]
            if not stage.active:
                continue
            tokens += stage.tokens
            flops += stage.flops
            dram_bytes += stage.dram_bytes
            busy = stage.vision_s + stage.compute_s
            if not stage.on_dre:
                busy += stage.prediction_s
            lxe_busy += busy
        report = result.energy()
        assert result.dropped > 0 and {r.kind for r in result.records} == {
            "frame", "question", "generation"
        }
        assert (report.served, report.tokens, report.flops, report.dram_bytes) == (
            served, tokens, flops, dram_bytes
        )
        if system_name == "V-Rex8":
            assert energy_row(report, "lxe").busy_s == lxe_busy


class TestEngineEquivalence:
    """Contended runs price identically under both engines."""

    @pytest.mark.parametrize("compute", ["private", "timesliced"])
    def test_reports_identical(self, edge, compute):
        reports = [
            _contended_run(edge["V-Rex8"], engine, compute=compute).energy()
            for engine in ENGINES
        ]
        first, second = reports
        assert first.resources == second.resources
        assert first.window_s == second.window_s
        assert first.served == second.served
        assert first.tokens == second.tokens
        assert first.total_j == second.total_j
        assert first.j_per_query == second.j_per_query

    def test_reports_identical_under_energy_admission(self, edge):
        reports = []
        for engine in ENGINES:
            result = _contended_run(
                edge["V-Rex8"],
                engine,
                admission="energy",
                energy_budget_j_per_token=2.0,
            )
            reports.append(result.energy())
        assert reports[0].resources == reports[1].resources
        assert reports[0].total_j == reports[1].total_j


class TestGoldenEnergy:
    """The committed scenarios now also pin their joules exactly."""

    MEMORY_EXPECTED = {
        "backlog": {"total_j": 657.3429530737109, "j_per_query": 38.6672325337477},
        "residency": {"total_j": 399.8363012331464, "j_per_query": 23.5197824254792},
    }
    STEAL_EXPECTED = {
        "total_j": 3360.6679901524067,
        "j_per_query": 52.510437346131354,
        "interconnect_busy_j": 17.16786876,
        "interconnect_busy_s": 1.7303616666666668,
        "window_s": 29.938158529163086,
    }

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("admission", ["backlog", "residency"])
    def test_memory_golden_j_per_query(self, server, admission, engine):
        """The PR 5 memory-bound golden (V-Rex48, 2x4.5 GiB banks, seed 17)."""
        plane = BatchLatencyModel(
            memory=ShardedKVHierarchy(num_banks=2, bank_budget_bytes=4.5 * GiB)
        )
        system = server["V-Rex48"]
        profiles = _profiles([40_000] * 4)
        solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
        traces = BurstyArrivals.for_mean_rate(
            rate_for_load(1.3, solo, 4)
        ).generate(4, 8, seed=17)
        config = SchedulerConfig(
            deadline_s=2.0 * solo, max_queue_depth=2, admission=admission
        )
        result = ServingScheduler(plane, config, engine=engine).run(
            system, profiles, traces
        )
        report = result.energy()
        expected = self.MEMORY_EXPECTED[admission]
        assert report.total_j == pytest.approx(expected["total_j"], rel=1e-12)
        assert report.j_per_query == pytest.approx(
            expected["j_per_query"], rel=1e-12
        )
        assert len(report.bank_byte_s) == 2
        assert all(integral > 0 for integral in report.bank_byte_s)
        assert_conserved(report)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_steal_golden_j_per_query(self, edge, engine, monkeypatch):
        """The PR 9 steal golden (M=4, stuck-at-home, seed 17) with the
        interconnect's transfer energy itemized on its own row."""
        plane = BatchLatencyModel()
        system = edge["V-Rex8"]
        profiles = _profiles([40_000] * 8)
        solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
        traces = BurstyArrivals.for_mean_rate(
            rate_for_load(1.3, solo, 8)
        ).generate(8, 8, seed=17)
        config = SchedulerConfig(deadline_s=2.0 * solo, max_queue_depth=4)
        fleet = FleetScheduler(
            plane,
            config,
            FleetConfig(
                num_devices=4,
                router="kv_residency",
                interconnect=PCIE5_SWITCH,
                migrate_backlog_s=math.inf,
                work_stealing=True,
            ),
            engine=engine,
        )
        result = fleet.run(
            system,
            profiles,
            traces,
            home_devices={profile.session_id: 0 for profile in profiles},
        )
        monkeypatch.setenv(ENV_VAR, "1")
        report = result.energy()
        expected = self.STEAL_EXPECTED
        assert report.total_j == pytest.approx(expected["total_j"], rel=1e-12)
        assert report.j_per_query == pytest.approx(
            expected["j_per_query"], rel=1e-12
        )
        assert report.window_s == pytest.approx(expected["window_s"], rel=1e-12)
        link = energy_row(report, f"interconnect:{PCIE5_SWITCH.name}")
        assert link.busy_j == pytest.approx(
            expected["interconnect_busy_j"], rel=1e-12
        )
        assert link.busy_s == pytest.approx(
            expected["interconnect_busy_s"], rel=1e-12
        )
        # the steal transfers' energy is charged: wire power over busy
        # time plus per-byte switching energy
        assert link.busy_j >= PCIE5_SWITCH.active_power_w * link.busy_s


class TestEnergyAdmission:
    def test_energy_admission_requires_budget(self):
        with pytest.raises(ValueError, match="energy_budget_j_per_token"):
            SchedulerConfig(admission="energy")

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            SchedulerConfig(
                admission="energy", energy_budget_j_per_token=0.0
            )
        with pytest.raises(ValueError, match="positive"):
            SchedulerConfig(
                admission="energy", energy_budget_j_per_token=-1.0
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_huge_budget_degenerates_to_backlog(self, edge, engine):
        """An unreachable budget admits everything: bit-equal to backlog."""
        plain = _contended_run(edge["V-Rex8"], engine)
        energy = _contended_run(
            edge["V-Rex8"],
            engine,
            admission="energy",
            energy_budget_j_per_token=1e12,
        )
        assert energy.records == plain.records
        assert energy.energy().resources == plain.energy().resources

    @pytest.mark.parametrize("engine", ENGINES)
    def test_tiny_budget_defers_and_labels(self, edge, engine):
        result = _contended_run(
            edge["V-Rex8"],
            engine,
            admission="energy",
            energy_budget_j_per_token=1e-6,
        )
        assert result.deferred > 0
        for record in result.records:
            if record.admission == DEFER:
                assert record.dropped
                assert record.finish_s == record.arrival_s

    def test_showdown_energy_beats_residency(self):
        """The PR 10 acceptance criterion: at the committed load point the
        energy policy serves more queries for fewer joules each while
        staying within 10% of residency admission's p99."""
        from repro.experiments.energy_serving import run_admission_showdown

        showdown = run_admission_showdown(load_factors=(1.0,))
        assert showdown.energy_wins() == [1.0]
        energy = showdown.row(1.0, "energy")
        residency = showdown.row(1.0, "residency")
        assert energy["j_per_query"] < residency["j_per_query"]
        assert energy["p99_ms"] <= 1.1 * residency["p99_ms"]
        assert energy["served"] >= residency["served"]

    def test_unknown_row_raises(self):
        from repro.experiments.energy_serving import AdmissionShowdownResult

        empty = AdmissionShowdownResult(
            system="x", kv_lens=(), deadline_s=1.0, budget_j_per_token=1.0
        )
        with pytest.raises(KeyError):
            empty.row(0.4, "energy")


class TestShortWindowRejected:
    """A ``window_s`` shorter than the run's own span raises ``ValueError``,
    armed or not, so no report prices busy seconds its window cannot hold;
    the fleet rollup's own window covers every device and the link."""

    @pytest.fixture(autouse=True)
    def unarmed(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_schedule_energy(self, edge, engine):
        result = _contended_run(edge["V-Rex8"], engine)
        span = result.energy().window_s
        for window in (span, 2.0 * span):
            assert schedule_energy(result, result.energy_inputs, window_s=window).window_s == window
        for window in (0.1 * span, 0.0):
            with pytest.raises(ValueError, match="window_s"):
                schedule_energy(result, result.energy_inputs, window_s=window)

    def test_fleet_window_covers_every_device_and_the_link(self, edge):
        plane = BatchLatencyModel()
        system = edge["V-Rex8"]
        profiles = _profiles([40_000] * 6)
        solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
        traces = PoissonArrivals(rate_hz=rate_for_load(1.2, solo, 6)).generate(
            6, 5, seed=3
        )
        result = FleetScheduler(
            plane,
            SchedulerConfig(max_queue_depth=4),
            FleetConfig(num_devices=3, router="round_robin", interconnect=PCIE5_SWITCH),
        ).run(system, profiles, traces, home_devices={p.session_id: 0 for p in profiles})
        window = result.energy().window_s
        assert window >= result.interconnect.free_at_s
        for run in result.devices:
            if run.schedule is not None:
                assert window >= run.schedule.energy().window_s


class TestFleetEnergy:
    def test_single_device_fleet_delegates_bit_for_bit(self, edge):
        plane = BatchLatencyModel()
        system = edge["V-Rex8"]
        profiles = _profiles([40_000] * 4)
        solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
        traces = PoissonArrivals(rate_hz=rate_for_load(1.2, solo, 4)).generate(
            4, 6, seed=3
        )
        config = SchedulerConfig(max_queue_depth=4)
        fleet = FleetScheduler(
            plane, config, FleetConfig(num_devices=1, interconnect=FREE_INTERCONNECT)
        ).run(system, profiles, traces)
        single = ServingScheduler(plane, config).run(system, profiles, traces)
        assert fleet.energy().resources == single.energy().resources
        assert fleet.energy().total_j == single.energy().total_j

    def test_multi_device_rollup_prefixes_and_prices_the_link(self, edge, monkeypatch):
        plane = BatchLatencyModel()
        system = edge["V-Rex8"]
        profiles = _profiles([40_000] * 6)
        solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
        traces = PoissonArrivals(rate_hz=rate_for_load(1.2, solo, 6)).generate(
            6, 5, seed=3
        )
        config = SchedulerConfig(max_queue_depth=4)
        result = FleetScheduler(
            plane,
            config,
            FleetConfig(
                num_devices=3, router="round_robin", interconnect=PCIE5_SWITCH
            ),
        ).run(
            system,
            profiles,
            traces,
            home_devices={profile.session_id: 0 for profile in profiles},
        )
        monkeypatch.setenv(ENV_VAR, "1")
        report = result.energy()
        names = [row.name for row in report.resources]
        for device in range(3):
            assert f"d{device}:lxe" in names
        assert f"interconnect:{PCIE5_SWITCH.name}" in names
        # every device is priced over the same fleet-wide window
        assert len({row.window_s for row in report.resources}) == 1
        assert report.window_s >= result.makespan_s
        assert report.served == result.served
        if result.interconnect_bytes > 0:
            assert energy_row(report, f"interconnect:{PCIE5_SWITCH.name}").busy_j > 0

    def test_merge_reports_conserves(self, edge):
        single = _contended_run(edge["V-Rex8"], "array")
        report = single.energy()
        merged = merge_reports([report, report], system="pair")
        assert merged.total_j == pytest.approx(2.0 * report.total_j, rel=1e-12)
        assert merged.served == 2 * report.served
        assert_conserved(merged)


class TestConservationSanitizer:
    def test_golden_corpus_conserves(self, edge):
        for compute in ("private", "timesliced"):
            result = _contended_run(edge["V-Rex8"], "array", compute=compute)
            assert_conserved(result.energy())

    def test_busy_beyond_window_ceiling_raises(self, edge):
        result = _contended_run(edge["V-Rex8"], "array")
        inputs = result.energy_inputs
        broken = type(inputs)(
            device=inputs.device,
            priced=inputs.priced,
            dre_busy_s=inputs.dre_busy_s,
            link_busy_s=inputs.link_busy_s,
        )
        report = schedule_energy(result, broken)
        rigged = report.resources[0]
        bad = type(rigged)(
            name=rigged.name,
            busy_power_w=rigged.busy_power_w,
            busy_s=rigged.busy_s,
            window_s=rigged.window_s,
            busy_j=rigged.busy_power_w * rigged.window_s * 2.0 + 1.0,
            idle_j=rigged.idle_j,
        )
        corrupted = merge_reports([report], extra_rows=(bad,))
        with pytest.raises(SanitizerError, match="ceiling"):
            assert_conserved(corrupted)

    def test_negative_energy_raises(self, edge):
        result = _contended_run(edge["V-Rex8"], "array")
        report = result.energy()
        row = report.resources[0]
        bad = type(row)(
            name="bad",
            busy_power_w=1.0,
            busy_s=0.0,
            window_s=row.window_s,
            busy_j=0.0,
            idle_j=-1.0,
        )
        with pytest.raises(SanitizerError, match="negative"):
            assert_conserved(merge_reports([report], extra_rows=(bad,)))

    def test_window_override_must_cover_the_run(self, edge):
        result = _contended_run(edge["V-Rex8"], "array")
        for hostile in (-1.0, float("nan")):  # NaN slid through ``window < 0``
            with pytest.raises(ValueError, match="^window_s must be non-negative"):
                schedule_energy(result, result.energy_inputs, window_s=hostile)

    def test_missing_inputs_fail_loud(self, edge):
        result = _contended_run(edge["V-Rex8"], "array")
        result.energy_inputs = None
        with pytest.raises(ValueError, match="no energy accounting"):
            result.energy()
