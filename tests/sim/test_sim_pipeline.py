"""Tests for the workload accounting, system configs and latency pipelines."""

from __future__ import annotations

import pytest

from repro.config import llama3_8b_config
from repro.hw.specs import AGX_ORIN, VREX8
from repro.sim.pipeline import LatencyModel
from repro.sim.systems import (
    ablation_systems,
    edge_systems,
    flexgen_policy,
    gpu_system,
    infinigen_p_policy,
    infinigen_policy,
    rekv_policy,
    resident_cache_system,
    resv_policy,
    server_systems,
    throughput_systems,
    vrex_kv_budget_bytes,
)
from repro.sim.workload import TransformerWorkload, default_llm_workload, default_vision_workload

GiB = 1024**3


@pytest.fixture(scope="module")
def workload() -> TransformerWorkload:
    return default_llm_workload()


@pytest.fixture(scope="module")
def latency_model() -> LatencyModel:
    return LatencyModel()


@pytest.fixture(scope="module")
def edge(workload):
    return edge_systems(workload.model_bytes())


class TestWorkloadAccounting:
    def test_llama3_8b_parameter_count(self, workload):
        # Llama-3-8B has ~8e9 parameters -> ~16 GB in BF16.
        assert workload.model_bytes() == pytest.approx(16e9, rel=0.1)

    def test_kv_bytes_per_token(self, workload):
        # 32 layers x 2 (K,V) x 8 KV heads x 128 dims x 2 bytes = 131072.
        assert workload.kv_bytes_per_token() == pytest.approx(131072)

    def test_kv_cache_footprint_grows_linearly(self, workload):
        assert workload.kv_cache_bytes(20_000) == pytest.approx(2 * workload.kv_cache_bytes(10_000))
        assert workload.kv_cache_bytes(10_000, batch=4) == pytest.approx(
            4 * workload.kv_cache_bytes(10_000)
        )

    def test_memory_exceeds_edge_gpu_within_minutes(self, workload):
        """Fig. 4(a): the working set outgrows the 32 GiB edge GPU."""
        tokens_10min = int(10 * 60 * 10 * workload.model.tokens_per_frame)
        footprint = workload.memory_footprint_bytes(tokens_10min, batch=4)
        assert sum(footprint.values()) > AGX_ORIN.memory_capacity_bytes

    def test_attention_flops_scale_with_cache(self, workload):
        assert workload.attention_flops(10, 40_000) > workload.attention_flops(10, 1_000)

    def test_layer_cost_includes_weights(self, workload):
        cost = workload.layer_cost(q_len=10, attended_tokens=1000)
        assert cost.dram_bytes > workload.weight_bytes_per_layer()
        assert cost.flops > 0

    def test_prediction_cost_frame_level_cheaper(self, workload):
        token_level = workload.topk_prediction_flops(10, 40_000, frame_level=False)
        frame_level = workload.topk_prediction_flops(10, 40_000, frame_level=True)
        assert frame_level < token_level

    def test_vision_workload(self):
        vision = default_vision_workload()
        assert vision.vit_flops_per_frame() > 1e11
        cost = vision.frame_cost(batch=2)
        assert cost.flops == pytest.approx(2 * vision.frame_cost(batch=1).flops, rel=0.01)

    def test_config_dimensions(self):
        cfg = llama3_8b_config()
        assert cfg.head_dim == 128
        assert cfg.num_heads // cfg.num_kv_heads == 4
        assert cfg.kv_bytes_per_token() == 131072


class TestSystemConfigs:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            flexgen_policy().__class__(name="x", prefill_ratio=0.0, generation_ratio=0.5, prediction="none")
        with pytest.raises(ValueError):
            flexgen_policy().__class__(name="x", prefill_ratio=0.5, generation_ratio=0.5, prediction="bogus")

    def test_policy_ratios(self):
        assert flexgen_policy().ratio("frame") == 1.0
        assert infinigen_policy().ratio("frame") == 1.0
        assert infinigen_policy().ratio("generation") < 0.1
        assert infinigen_p_policy().ratio("frame") == pytest.approx(0.508)
        assert rekv_policy().ratio("frame") == pytest.approx(0.584)
        assert resv_policy().ratio("frame") == pytest.approx(0.327)
        assert resv_policy().ratio("generation") == pytest.approx(0.025)

    def test_resv_ablation_policy(self):
        assert resv_policy(enable_clustering=False).avg_tokens_per_cluster == 1
        assert resv_policy().avg_tokens_per_cluster == 32

    def test_vrex_budget_positive_and_bounded(self, workload):
        budget = vrex_kv_budget_bytes(VREX8, workload.model_bytes(), max_batch=4)
        assert 0 < budget < VREX8.memory_capacity_bytes

    def test_line_ups_complete(self, workload):
        model_bytes = workload.model_bytes()
        assert set(edge_systems(model_bytes)) == {
            "AGX + FlexGen", "AGX + InfiniGen", "AGX + InfiniGenP", "AGX + ReKV", "V-Rex8",
        }
        assert set(server_systems(model_bytes)) == {
            "A100 + FlexGen", "A100 + InfiniGen", "A100 + InfiniGenP", "A100 + ReKV", "V-Rex48",
        }
        assert set(ablation_systems(model_bytes)) == {
            "AGX + FlexGen", "AGX + ReSV", "V-Rex8 KVPU", "V-Rex8 All",
        }
        assert set(throughput_systems(model_bytes)) == {"AGX Orin", "Oaken", "V-Rex8"}

    def test_quantised_system_scale(self, workload):
        oaken = resident_cache_system(AGX_ORIN, quant_bits=4)
        assert oaken.kv_bytes_scale == 0.25
        assert resident_cache_system(AGX_ORIN).kv_bytes_scale == 1.0

    def test_device_class(self, workload, edge):
        assert edge["AGX + FlexGen"].device_class == "gpu_edge"
        assert edge["V-Rex8"].device_class == "vrex"
        assert server_systems(workload.model_bytes())["A100 + FlexGen"].device_class == "gpu_server"


class TestLatencyPipeline:
    def test_latency_grows_with_cache_for_baselines(self, latency_model, edge):
        flexgen = edge["AGX + FlexGen"]
        latencies = [latency_model.frame_step(flexgen, kv, 1).total_s for kv in (1_000, 10_000, 40_000)]
        assert latencies[0] < latencies[1] < latencies[2]

    def test_vrex_faster_than_every_edge_baseline(self, latency_model, edge):
        """Fig. 13(a): V-Rex8 wins at every cache length, for frames and TPOT."""
        for kv_len in (1_000, 10_000, 40_000):
            vrex_frame = latency_model.frame_step(edge["V-Rex8"], kv_len, 1).total_s
            vrex_tpot = latency_model.generation_step(edge["V-Rex8"], kv_len, 1).total_s
            for name, system in edge.items():
                if name == "V-Rex8":
                    continue
                assert latency_model.frame_step(system, kv_len, 1).total_s > vrex_frame
                assert latency_model.generation_step(system, kv_len, 1).total_s > vrex_tpot

    def test_vrex_real_time_across_sweep(self, latency_model, edge):
        """Paper headline: 3.9-8.3 FPS real-time edge inference."""
        for kv_len in (1_000, 5_000, 10_000, 20_000, 40_000):
            step = latency_model.frame_step(edge["V-Rex8"], kv_len, 1)
            assert step.fps >= 2.0

    def test_edge_baselines_not_real_time_at_long_sequences(self, latency_model, edge):
        for name in ("AGX + FlexGen", "AGX + InfiniGen", "AGX + InfiniGenP", "AGX + ReKV"):
            step = latency_model.frame_step(edge[name], 40_000, 1)
            assert step.fps < 2.0

    def test_speedup_in_paper_ballpark(self, latency_model, edge):
        """Speedup over AGX+FlexGen lands in the same regime as the paper (1.9-19.7x)."""
        for kv_len in (1_000, 10_000, 40_000):
            base = latency_model.frame_step(edge["AGX + FlexGen"], kv_len, 1).total_s
            vrex = latency_model.frame_step(edge["V-Rex8"], kv_len, 1).total_s
            assert 1.5 <= base / vrex <= 25.0

    def test_infinigen_slower_than_flexgen_on_edge_frames(self, latency_model, edge):
        """Paper Sec. VI-B: token-level prediction overhead makes InfiniGen slower."""
        for kv_len in (5_000, 20_000, 40_000):
            flexgen = latency_model.frame_step(edge["AGX + FlexGen"], kv_len, 1).total_s
            infinigen = latency_model.frame_step(edge["AGX + InfiniGen"], kv_len, 1).total_s
            assert infinigen > flexgen

    def test_generation_overlap_for_flexgen(self, latency_model, edge):
        """FlexGen TPOT must not exceed prefill-style serial latency."""
        frame = latency_model.frame_step(edge["AGX + FlexGen"], 20_000, 1).total_s
        tpot = latency_model.generation_step(edge["AGX + FlexGen"], 20_000, 1).total_s
        assert tpot <= frame

    def test_prediction_hidden_on_vrex(self, latency_model, edge):
        step = latency_model.frame_step(edge["V-Rex8"], 40_000, 1)
        assert step.breakdown["kv_prediction"] < 0.01 * step.total_s
        assert step.breakdown["prediction_on_dre"] == 1.0

    def test_offloaded_fraction_bounds(self, latency_model, edge):
        assert latency_model.offloaded_fraction(edge["AGX + FlexGen"], 10_000, 1) == 1.0
        vrex_small = latency_model.offloaded_fraction(edge["V-Rex8"], 1_000, 1)
        vrex_large = latency_model.offloaded_fraction(edge["V-Rex8"], 40_000, 1)
        assert vrex_small == 0.0
        assert 0.0 < vrex_large < 1.0

    def test_oom_detection(self, latency_model, workload):
        systems = throughput_systems(workload.model_bytes())
        assert latency_model.is_oom(systems["AGX Orin"], 40_000, 16)
        assert not latency_model.is_oom(systems["AGX Orin"], 1_000, 16)
        assert not latency_model.is_oom(systems["Oaken"], 20_000, 16)
        assert latency_model.is_oom(systems["Oaken"], 40_000, 16)
        assert not latency_model.is_oom(systems["V-Rex8"], 40_000, 16)

    def test_e2e_scenario_prefill_dominates_at_long_cache(self, latency_model, workload):
        """Fig. 4(b): prefill becomes the dominant stage as the cache grows."""
        from repro.hw.specs import A100
        system = gpu_system(A100, infinigen_policy(), name="A100 + InfiniGen")
        short = latency_model.e2e_scenario(system, 1_000, 1).breakdown_fractions()
        long = latency_model.e2e_scenario(system, 80_000, 1).breakdown_fractions()
        assert long["prefill"] > short["prefill"]
        assert long["prefill"] > 0.6

    def test_ablation_ordering(self, latency_model, workload):
        """Fig. 16: each added optimisation reduces latency."""
        systems = ablation_systems(workload.model_bytes())
        order = ["AGX + FlexGen", "AGX + ReSV", "V-Rex8 KVPU", "V-Rex8 All"]
        latencies = [latency_model.frame_step(systems[name], 40_000, 1).total_s for name in order]
        assert latencies == sorted(latencies, reverse=True)

    def test_energy_efficiency_vrex_better(self, latency_model, edge):
        base_step = latency_model.frame_step(edge["AGX + FlexGen"], 20_000, 1)
        vrex_step = latency_model.frame_step(edge["V-Rex8"], 20_000, 1)
        base_eff = latency_model.step_efficiency_gops_w(edge["AGX + FlexGen"], base_step)
        vrex_eff = latency_model.step_efficiency_gops_w(edge["V-Rex8"], vrex_step)
        assert vrex_eff > 2.0 * base_eff

    def test_layer_timeline_contains_expected_tasks(self, latency_model, edge):
        timeline = latency_model.layer_timeline(edge["V-Rex8"], 40_000, 1)
        names = {task.name for task in timeline.tasks}
        assert {"QKV Gen", "Attention", "FFN", "KV Prediction", "KV Retrieval"} <= names


class TestExplicitZeroStages:
    """Explicit zeros must price empty stages, not fall back to defaults."""

    def test_e2e_zero_frames_zero_answers_prices_question_only(self, latency_model, edge):
        system = edge["V-Rex8"]
        scenario = latency_model.e2e_scenario(system, 20_000, frames=0, answer_tokens=0)
        question = latency_model.question_step(system, 20_000)
        assert scenario.vision_s == 0.0
        assert scenario.generation_s == 0.0
        assert scenario.prefill_s == pytest.approx(question.total_s)
        assert scenario.total_s == pytest.approx(question.total_s)

    def test_e2e_zero_frames_differs_from_default(self, latency_model, edge):
        system = edge["AGX + FlexGen"]
        default = latency_model.e2e_scenario(system, 20_000)
        no_frames = latency_model.e2e_scenario(system, 20_000, frames=0)
        no_answer = latency_model.e2e_scenario(system, 20_000, answer_tokens=0)
        assert no_frames.total_s < default.total_s
        assert no_answer.total_s < default.total_s
        assert no_answer.generation_s == 0.0

    def test_question_step_zero_tokens_is_empty(self, latency_model, edge):
        step = latency_model.question_step(edge["AGX + FlexGen"], 20_000, question_tokens=0)
        assert step.total_s == 0.0
        assert step.breakdown["kv_fetch_raw"] == 0.0
        assert step.breakdown["kv_prediction_raw"] == 0.0

    def test_question_step_default_unchanged(self, latency_model, edge):
        explicit = latency_model.question_step(edge["AGX + FlexGen"], 20_000, question_tokens=25)
        default = latency_model.question_step(edge["AGX + FlexGen"], 20_000)
        assert default.total_s == pytest.approx(explicit.total_s)

