"""Tests for the experiment drivers (performance-plane figures and tables)."""

from __future__ import annotations

import hashlib
import sys

import pytest

from repro.devtools.sanitizer import ENV_VAR, sanitize_enabled
from repro.experiments import (
    batched_serving,
    energy_serving,
    fig04_motivation,
    fig13_latency_energy,
    fig14_e2e_breakdown,
    fig15_throughput_oaken,
    fig16_ablation_hw,
    fig17_bandwidth,
    fig18_roofline,
    fleet_serving,
    scheduled_serving,
    sharded_memory,
    table03_area_power,
)
from repro.sim.systems import edge_systems
from repro.sim.workload import default_llm_workload

#: sha256 of each serving driver's and of Figs. 13-15's ``main()`` stdout.
#: The same bytes are printed plain, armed (``REPRO_SANITIZE=1`` /
#: ``--sanitize``) and under ``tests/float_order``; never re-pin to make a
#: refactor pass.
MAIN_STDOUT_SHA256 = {
    "fig13_latency_energy": "0fb361fc68fc5a3fe877b58ee8e77652534de28ea457ba37b8fdf1e6f5ad8f71",
    "fig14_e2e_breakdown": "b1fa2c62e0776d7cb7a43107870b2be92b401acf653518329226f44432dfc837",
    "fig15_throughput_oaken": "5e57779032a74f2cb100bb9dc6495a69773783d6b4ac36b7f9f2b5c93bbc3fd1",
    "batched_serving": "e4c7575f7631c98910aff39af3ee010cc43155f7ef7bed2fbb67a4350dcb93a7",
    "scheduled_serving": "422d745222daaaf07beaed782f8459c44029696362606bce55122e7e31b515a9",
    "sharded_memory": "76b7ef0703902cd0b09ac14ed085933775176880eacc622f9c382e49a431649a",
    "fleet_serving": "69d6b19a4c03144c22b5657fdfe4e0b4cc0cddb39c48f799d1280b2eb438ea36",
    "energy_serving": "4b472fedc9268ec217cbc948eb222b59a559dbab33d702f268df1b4c100a35df",
}


def _stdout_sha256(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


class TestFig04:
    def test_panels(self):
        result = fig04_motivation.run(durations_min=(1, 6, 10), kv_lengths=(1_000, 40_000, 80_000))
        assert any(row["exceeds_edge_gpu"] for row in result.memory_rows)
        assert result.memory_rows[0]["total_gib"] < result.memory_rows[-1]["total_gib"]
        prefill = [row["prefill_pct"] for row in result.breakdown_rows]
        assert prefill == sorted(prefill)
        assert prefill[-1] > 60.0
        assert result.overhead_40k["retrieval"] > 0.5


class TestFig13:
    @pytest.fixture(scope="class")
    def results(self):
        return fig13_latency_energy.run(kv_lengths=(1_000, 10_000, 40_000))

    def test_edge_headlines(self, results):
        edge = results["edge"]
        assert all(v > 1.0 for v in edge.frame_speedup_b1.values())
        assert all(v > 1.0 for v in edge.tpot_speedup_b1.values())
        assert all(v > 1.0 for v in edge.energy_gain_frame_b1.values())
        assert all(fps >= 2.0 for fps in edge.vrex_fps.values())

    def test_server_headlines(self, results):
        server = results["server"]
        assert all(v > 1.0 for v in server.frame_speedup_b1.values())
        assert max(server.frame_speedup_large_batch.values()) > max(
            server.frame_speedup_b1.values()
        ) * 0.8

    def test_sweep_covers_every_system_stage_and_batch(self, results):
        edge = results["edge"]
        systems = edge_systems(default_llm_workload().model_bytes())
        keys = {
            (name, stage, batch)
            for name in systems
            for stage in ("frame", "generation")
            for batch in (1, 4)
        }
        assert set(edge.latency_ms) == keys
        assert set(edge.efficiency_gops_w) == keys
        for key in keys:
            assert set(edge.latency_ms[key]) == {1_000, 10_000, 40_000}
            assert set(edge.efficiency_gops_w[key]) == {1_000, 10_000, 40_000}

    def test_speedups_are_latency_ratios(self, results):
        edge = results["edge"]
        base = edge.latency_ms[("AGX + FlexGen", "frame", 1)]
        vrex = edge.latency_ms[("V-Rex8", "frame", 1)]
        assert edge.frame_speedup_b1 == {k: base[k] / vrex[k] for k in base}
        assert edge.frame_speedup_b1[10_000] > 1.0
        tpot_base = edge.latency_ms[("AGX + FlexGen", "generation", 1)]
        tpot_vrex = edge.latency_ms[("V-Rex8", "generation", 1)]
        assert edge.tpot_speedup_b1 == {k: tpot_base[k] / tpot_vrex[k] for k in tpot_base}

    def test_speedup_grows_with_cache_initially(self, results):
        edge = results["edge"]
        assert edge.frame_speedup_b1[10_000] > edge.frame_speedup_b1[1_000]

    def test_energy_headline_ranges(self, results):
        """Post-fix regression pins: ``inference_energy_j`` charges the
        IO path at full-load watts during busy seconds, which moves the
        baseline (PCIe-bound) energies and hence every gain ratio."""
        edge = results["edge"]
        server = results["server"]
        assert min(edge.energy_gain_frame_b1.values()) == pytest.approx(
            2.653, rel=1e-3
        )
        assert max(edge.energy_gain_frame_b1.values()) == pytest.approx(
            9.999, rel=1e-3
        )
        assert max(edge.energy_gain_tpot_b1.values()) == pytest.approx(
            14.845, rel=1e-3
        )
        assert max(server.energy_gain_frame_b1.values()) == pytest.approx(
            12.133, rel=1e-3
        )
        assert max(server.energy_gain_tpot_b1.values()) == pytest.approx(
            19.239, rel=1e-3
        )

    def test_gain_series_logs_dropped_points(self, capsys):
        """The ``base_eff[k] > 0`` filter must say what it drops instead
        of silently narrowing the headline range."""
        gains = fig13_latency_energy._gain_series(
            {1_000: 2.0, 10_000: 3.0},
            {1_000: 0.0, 10_000: 1.5},
            "edge/frame",
            "AGX + FlexGen",
        )
        assert gains == {10_000: 2.0}
        out = capsys.readouterr().out
        assert "dropping kv=[1000]" in out
        assert "AGX + FlexGen" in out

    def test_main_sanitize_flag_arms_sanitizer(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        fig13_latency_energy.main(["--sanitize"])
        assert sanitize_enabled()
        out = capsys.readouterr().out
        assert "edge" in out
        assert _stdout_sha256(out) == MAIN_STDOUT_SHA256["fig13_latency_energy"]


class TestFig14:
    def test_reduction_grows_with_cache(self):
        result = fig14_e2e_breakdown.run(kv_lengths=(1_000, 10_000, 40_000))
        assert result.vrex_reduction[40_000] > result.vrex_reduction[1_000]
        assert result.vrex_reduction[40_000] > 2.0
        for name, series in result.normalised.items():
            if name != "V-Rex8":
                assert all(v >= 1.0 for v in series.values())

    def test_main_prints_pinned_bytes(self, capsys):
        fig14_e2e_breakdown.main()
        out = capsys.readouterr().out
        assert _stdout_sha256(out) == MAIN_STDOUT_SHA256["fig14_e2e_breakdown"]


class TestFig15:
    def test_oom_crossovers(self):
        result = fig15_throughput_oaken.run()
        assert result.first_oom_length("AGX Orin") == 10_000
        assert result.first_oom_length("Oaken") == 40_000
        assert result.first_oom_length("V-Rex8") is None
        assert all(fps > 0 for fps in result.fps["V-Rex8"].values())
        # Oaken's quantised cache survives longer than the FP16 cache.
        assert result.first_oom_length("Oaken") > result.first_oom_length("AGX Orin")

    def test_main_prints_pinned_bytes(self, capsys):
        fig15_throughput_oaken.main()
        out = capsys.readouterr().out
        assert _stdout_sha256(out) == MAIN_STDOUT_SHA256["fig15_throughput_oaken"]


class TestFig16:
    def test_cumulative_gains(self):
        result = fig16_ablation_hw.run()
        resv = result.point("AGX + ReSV")
        kvpu = result.point("V-Rex8 KVPU")
        full = result.point("V-Rex8 All")
        assert 1.2 < resv.speedup_vs_baseline < kvpu.speedup_vs_baseline < full.speedup_vs_baseline
        assert full.speedup_vs_baseline > 5.0
        assert full.energy_reduction_vs_baseline > 5.0
        # The KVPU removes the GPU prediction bottleneck.
        assert resv.prediction_fraction > 0.2
        assert kvpu.prediction_fraction < 0.05


class TestFig17:
    def test_overlap_properties(self):
        result = fig17_bandwidth.run()
        assert result.prediction_hidden
        assert result.retrieval_bandwidth_fraction < 0.05
        assert result.retrieval_duration_fraction > 0.5
        assert "KV Retrieval" in result.traces and "Attention" in result.traces


class TestFig18:
    def test_utilisation_ordering(self):
        result = fig18_roofline.run()
        flexgen = result.point("AGX + FlexGen")
        vrex = result.point("V-Rex8")
        assert vrex.achieved_fraction > result.point("AGX + ReKV").achieved_fraction
        assert vrex.achieved_fraction > flexgen.achieved_fraction
        assert result.utilisation_gain("V-Rex8", "AGX + FlexGen") > 2.0
        assert flexgen.achieved_fraction < 0.2

    def test_main_sanitize_flag_arms_sanitizer(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        fig18_roofline.main(["--sanitize"])
        assert sanitize_enabled()
        assert "V-Rex8" in capsys.readouterr().out


class TestBatchedServing:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.sim.systems import edge_systems
        from repro.sim.workload import default_llm_workload

        system = edge_systems(default_llm_workload().model_bytes())["AGX + FlexGen"]
        return batched_serving.run(system=system, stream_counts=(1, 2, 4))

    def test_aligned_queueing_grows_with_fleet(self, result):
        fetch = [result.aligned_exposed_fetch_ms[n] for n in result.stream_counts]
        assert fetch == sorted(fetch)
        assert fetch[-1] > fetch[0]

    def test_staggering_recovers_queueing(self, result):
        assert result.staggered_exposed_fetch_ms[4] < result.aligned_exposed_fetch_ms[4]
        assert result.contention_penalty(4) > 1.0

    def test_heterogeneous_rows_present(self, result):
        assert len(result.mixed_cache_rows) == 4
        assert len(result.mixed_retriever_rows) == 4
        # the longest-cache stream pays the most exposed fetch
        by_cache = sorted(result.mixed_cache_rows, key=lambda r: r["kv_len"])
        assert by_cache[-1]["exposed_fetch_ms"] >= by_cache[0]["exposed_fetch_ms"]

    def test_main_prints(self, capsys):
        batched_serving.main()
        out = capsys.readouterr().out
        assert "Batched serving" in out and "mixed cache sizes" in out
        assert _stdout_sha256(out) == MAIN_STDOUT_SHA256["batched_serving"]


class TestScheduledServing:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.sim.systems import edge_systems
        from repro.sim.workload import default_llm_workload

        system = edge_systems(default_llm_workload().model_bytes())["V-Rex8"]
        return scheduled_serving.run(
            system=system,
            num_streams=4,
            frames_per_stream=8,
            load_factors=(0.4, 0.9),
        )

    def test_all_pattern_rows_present(self, result):
        assert len(result.rows) == 2 * len(scheduled_serving.PATTERNS)
        for row in result.rows:
            assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
            assert 0.0 <= row["miss_rate"] <= 1.0
            assert 0.0 <= row["drop_rate"] <= 1.0
            assert row["events"] > 0

    def test_staggering_beats_aligned_collisions(self, result):
        for load in (0.4, 0.9):
            aligned = result.row(load, "aligned")
            staggered = result.row(load, "staggered")
            assert staggered.get("p99_ms") <= aligned["p99_ms"]
            assert staggered["miss_rate"] <= aligned["miss_rate"]

    def test_load_inflates_poisson_tail(self, result):
        assert result.row(0.9, "poisson")["p95_ms"] >= result.row(0.4, "poisson")["p95_ms"]

    def test_deadline_scales_with_solo_latency(self, result):
        assert result.deadline_s == pytest.approx(2.0 * result.solo_latency_s)

    def test_unknown_row_raises(self, result):
        with pytest.raises(KeyError):
            result.row(0.4, "fractal")
        with pytest.raises(ValueError):
            scheduled_serving._arrival_traces("fractal", 1.0, 2, 2, 0)

    def test_timesliced_compute_inflates_the_sweep(self):
        """The same sweep under shared compute can only look worse.

        Both runs disable admission control: with a queue-depth bound the
        two policies can serve *different* job sets (the slower timesliced
        run may drop a frame the private run serves), and served-job
        makespans of different job sets do not bracket.
        """
        from repro.sim.systems import edge_systems
        from repro.sim.workload import default_llm_workload

        system = edge_systems(default_llm_workload().model_bytes())["V-Rex8"]
        kwargs = dict(
            system=system,
            num_streams=4,
            frames_per_stream=8,
            load_factors=(0.9,),
            max_queue_depth=None,
        )
        baseline = scheduled_serving.run(**kwargs)
        shared = scheduled_serving.run(**kwargs, compute="timesliced")
        assert shared.compute == "timesliced"
        for row in shared.rows:
            reference = baseline.row(row["load"], row["pattern"])
            assert row["makespan_s"] >= reference["makespan_s"] - 1e-12
            assert row["events"] > reference["events"]  # round-robin slices

    def test_quantum_sweep_brackets_private_compute(self):
        from repro.sim.systems import edge_systems
        from repro.sim.workload import default_llm_workload

        system = edge_systems(default_llm_workload().model_bytes())["V-Rex8"]
        sweep = scheduled_serving.run_quantum_sweep(
            system=system,
            num_streams=4,
            frames_per_stream=6,
            load_factors=(0.7, 0.9),
            quanta_s=(2e-3, 5e-4),
            max_queue_depth=None,  # same served set -> true bracket
        )
        assert len(sweep.rows) == 2 * 3  # (private + 2 quanta) per load
        for load in (0.7, 0.9):
            baseline = sweep.row(load, None)
            assert baseline["compute"] == "private"
            for quantum in (2e-3, 5e-4):
                row = sweep.row(load, quantum)
                assert row["compute"] == "timesliced"
                # the private policy lower-brackets every quantum
                assert row["makespan_s"] >= baseline["makespan_s"] - 1e-12
        with pytest.raises(KeyError):
            sweep.row(0.7, 3.3)

    def test_main_prints(self, capsys):
        scheduled_serving.main()
        out = capsys.readouterr().out
        assert "Scheduled serving" in out and "tail blow-up" in out
        assert _stdout_sha256(out) == MAIN_STDOUT_SHA256["scheduled_serving"]

    def test_main_sanitize_flag_arms_sanitizer(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        scheduled_serving.main(["--sanitize"])
        assert sanitize_enabled()
        out = capsys.readouterr().out
        assert "Scheduled serving" in out
        assert _stdout_sha256(out) == MAIN_STDOUT_SHA256["scheduled_serving"]


class TestFleetServing:
    @pytest.fixture(scope="class")
    def migration(self):
        return fleet_serving.run_migration_sweep(
            num_streams=6, frames_per_stream=5, num_devices=3
        )

    def test_every_point_has_steal_and_one_shot_rows(self, migration):
        modes = {}
        for row in migration.rows:
            key = (row["router"], row["patience"])
            modes.setdefault(key, set()).add(row["stealing"])
        assert all(found == {False, True} for found in modes.values())

    def test_stealing_improves_p99_on_the_stuck_population(self, migration):
        """The acceptance criterion: an imbalanced seeded scenario where
        stealing strictly improves the tail."""
        stuck = [
            row
            for row in migration.rows
            if row["router"] == "kv_residency"
            and row["patience"] == float("inf")
        ]
        one_shot = next(r for r in stuck if not r["stealing"])
        steal = next(r for r in stuck if r["stealing"])
        assert steal["steals"] > 0
        assert steal["p99"] < one_shot["p99"]
        assert one_shot["steals"] == 0

    def test_steal_rows_price_their_traffic(self, migration):
        for row in migration.rows:
            if row["stealing"] and row["steals"] > 0:
                assert row["interconnect_bytes"] > 0.0
                assert row["migrations"] >= row["steals"]

    def test_main_prints_and_sanitize_flag_arms(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        fleet_serving.main(["--sanitize"])
        assert sanitize_enabled()
        out = capsys.readouterr().out
        assert "Fleet serving" in out
        assert "one-shot vs work stealing" in out
        assert "work stealing on the stuck-at-home population" in out
        assert _stdout_sha256(out) == MAIN_STDOUT_SHA256["fleet_serving"]


class TestShardedMemory:
    @pytest.fixture(scope="class")
    def result(self):
        return sharded_memory.run(
            num_streams=4, frames_per_stream=6, bank_counts=(1, 2)
        )

    def test_all_operating_points_present(self, result):
        # unbounded baseline + 2 bank counts, each under both policies
        assert len(result.rows) == 2 * (1 + 2)
        for row in result.rows:
            assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
            assert 0.0 <= row["miss_rate"] <= 1.0
            assert 0.0 <= row["drop_rate"] <= 1.0
            assert row["events"] > 0
            assert row["peak_bank_occupancy_gib"] > 0.0

    def test_residency_admission_never_misses_more(self, result):
        """At every operating point the controller sheds, not adds, misses."""
        for bounded in (False, True):
            for num_banks in (1,) if not bounded else (1, 2):
                backlog = result.row(num_banks, "backlog", bounded=bounded)
                residency = result.row(num_banks, "residency", bounded=bounded)
                assert residency["miss_rate"] <= backlog["miss_rate"] + 1e-12

    def test_memory_bound_points_demote_shards(self, result):
        """Bounded banks in an oversubscribed fleet must evict something."""
        assert any(row["evictions"] > 0 for row in result.rows if row["bounded"])
        baseline = result.row(1, "backlog", bounded=False)
        assert baseline["evictions"] == 0  # unbounded never demotes
        assert baseline["deferred"] == 0

    def test_bank_budget_caps_peak_occupancy(self, result):
        for row in result.rows:
            if row["bounded"]:
                assert row["peak_bank_occupancy_gib"] <= row["bank_budget_gib"] * (
                    1 + 1e-9
                )

    def test_unknown_row_raises(self, result):
        with pytest.raises(KeyError):
            result.row(7, "backlog")

    def test_main_prints(self, capsys):
        sharded_memory.main()
        out = capsys.readouterr().out
        assert "Sharded memory" in out and "best bounded point" in out
        assert _stdout_sha256(out) == MAIN_STDOUT_SHA256["sharded_memory"]


class TestEnergyServing:
    @pytest.fixture(scope="class")
    def sweep(self):
        return energy_serving.run_load_sweep(
            num_streams=4, frames_per_stream=6, load_factors=(0.4, 1.2)
        )

    def test_rows_fully_priced(self, sweep):
        assert len(sweep.rows) == 2
        for row in sweep.rows:
            assert row["total_j"] > 0.0
            assert row["busy_j"] + row["idle_j"] == pytest.approx(
                row["total_j"], rel=1e-12
            )
            assert row["j_per_token"] > 0.0
            assert row["usd_per_1m_queries"] > 0.0
            assert 0.0 <= row["link_utilization"] <= 1.0
            assert row["p99_ms"] > 0.0

    def test_j_per_query_falls_as_the_window_fills(self, sweep):
        """Idle (always-on) power dominates at low load, so packing more
        work into the window cheapens each query — the consolidation
        economics the README table shows."""
        light = sweep.row(0.4)
        heavy = sweep.row(1.2)
        assert heavy["j_per_query"] < light["j_per_query"]
        assert heavy["link_utilization"] > light["link_utilization"]
        assert heavy["idle_j"] < light["idle_j"]

    def test_unknown_row_raises(self, sweep):
        with pytest.raises(KeyError):
            sweep.row(3.7)

    def test_main_prints_and_sanitize_flag_arms(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        energy_serving.main(["--sanitize"])
        assert sanitize_enabled()
        out = capsys.readouterr().out
        assert "Serving energy vs load" in out
        assert "Admission showdown" in out
        assert "Per-resource energy" in out
        assert "undercuts residency" in out
        assert _stdout_sha256(out) == MAIN_STDOUT_SHA256["energy_serving"]


class TestServingSweepCommandLine:
    """``batched_serving`` and ``sharded_memory`` take ``--sanitize`` like the
    other three serving drivers: passed as ``argv`` or on the command line
    (``python -m repro.experiments.<driver> --sanitize``), it arms the
    sanitizer, and the pinned bytes print armed."""

    DRIVERS = {"batched_serving": batched_serving, "sharded_memory": sharded_memory}

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_sanitize_argument_arms(self, name, capsys, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        self.DRIVERS[name].main(["--sanitize"])
        assert sanitize_enabled()
        assert _stdout_sha256(capsys.readouterr().out) == MAIN_STDOUT_SHA256[name]

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_sanitize_on_the_command_line_arms(self, name, capsys, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        monkeypatch.setattr(sys, "argv", [name, "--sanitize"])
        self.DRIVERS[name].main()
        assert sanitize_enabled()
        assert _stdout_sha256(capsys.readouterr().out) == MAIN_STDOUT_SHA256[name]


class TestServingSweepBoundaries:
    """A degenerate sweep is rejected when it is built, naming the argument."""

    def test_empty_stream_counts(self):
        with pytest.raises(ValueError, match="stream_counts"):
            batched_serving.run(stream_counts=())

    def test_empty_device_counts(self, monkeypatch):
        monkeypatch.setattr(fleet_serving, "DEVICE_COUNTS", ())
        with pytest.raises(ValueError, match="device_counts"):
            fleet_serving.run()

    def test_zero_frames_per_stream(self):
        with pytest.raises(ValueError, match="frames_per_stream"):
            scheduled_serving.run(frames_per_stream=0)


class TestTable03:
    def test_breakdown_matches_paper(self):
        result = table03_area_power.run()
        assert result.core_area_mm2 == pytest.approx(1.89, abs=0.01)
        assert result.core_power_mw == pytest.approx(2609.43, abs=1.0)
        assert result.dre_area_fraction < 0.03
        assert result.dre_power_fraction < 0.03
        assert result.vrex8_area_mm2 < 200
        assert result.vrex48_area_mm2 < 826
        assert result.vrex8_system_power_w < result.agx_power_w
        assert result.vrex48_system_power_w < result.a100_power_w

    def test_main_prints(self, capsys):
        table03_area_power.main()
        out = capsys.readouterr().out
        assert "Table III" in out and "DPE" in out

    def test_main_sanitize_flag_arms_sanitizer(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        table03_area_power.main(["--sanitize"])
        assert sanitize_enabled()
        assert "Table III" in capsys.readouterr().out
