"""Tests for the functional-plane experiments (Fig. 7, 19, 20, Table II).

These run the real numpy substrate, so they use reduced episode counts; the
assertions target the paper's qualitative claims rather than exact numbers.
"""

from __future__ import annotations

import pytest

from repro.experiments import fig07_similarity, fig19_resv_ablation, fig20_retrieval_ratio, table02_accuracy
from repro.video.coin import CoinTask


class TestFig07:
    def test_hashbit_tracks_cosine(self):
        result = fig07_similarity.run(num_frames=8)
        assert result.adjacent_cosine_mean > 0.5
        assert result.correlation > 0.5
        assert result.cosine_matrix.shape == result.hamming_matrix.shape


class TestFig20:
    @pytest.fixture(scope="class")
    def result(self):
        return fig20_retrieval_ratio.run(num_steps=6)

    def test_resv_varies_across_layers_and_heads(self, result):
        lo, hi = result.ratio_spread("ReSV")
        assert hi - lo > 0.02
        assert hi <= 1.0 and lo >= 0.0

    def test_resv_retrieves_fewer_tokens_than_baselines(self, result):
        assert result.average["ReSV"] < result.average["ReKV"]
        assert result.average["ReSV"] < result.average["InfiniGenP"]
        assert result.reduction_vs("ReSV", "ReKV") > 1.3

    def test_fixed_topk_is_flat_across_layers(self, result):
        lo, hi = result.ratio_spread("InfiniGenP")
        assert hi - lo < 0.1


@pytest.mark.slow
class TestFig19:
    def test_ablation_shape(self):
        result = fig19_resv_ablation.run(num_episodes=1, tasks=(CoinTask.RETRIEVAL_AT_FRAME,))
        assert result.speedup["ReSV"] > result.speedup["ReSV w/o clustering"] >= 1.0
        assert result.speedup["ReSV"] > 3.0
        # Accuracy stays in a sane range for every configuration.
        for accuracy in result.accuracy.values():
            assert 0.0 <= accuracy <= 1.0


@pytest.mark.slow
class TestTable02:
    @pytest.fixture(scope="class")
    def result(self):
        return table02_accuracy.run(num_episodes=2, answer_tokens=1)

    def test_resv_has_lowest_retrieval_ratio(self, result):
        resv_frame = result.average_frame_ratio("ReSV")
        resv_gen = result.average_generation_ratio("ReSV")
        for method in ("InfiniGen", "InfiniGenP", "ReKV"):
            assert resv_frame < result.average_frame_ratio(method)
            assert resv_gen <= result.average_generation_ratio(method) + 1e-6

    def test_resv_accuracy_close_to_vanilla(self, result):
        drop = result.average_accuracy("VideoLLM-Online") - result.average_accuracy("ReSV")
        assert abs(drop) < 0.25

    def test_retrieval_ratios_in_paper_regime(self, result):
        assert 0.15 < result.average_frame_ratio("ReSV") < 0.55
        assert result.average_generation_ratio("ReSV") < 0.10
        assert result.average_frame_ratio("InfiniGen") == pytest.approx(1.0)
        assert 0.4 < result.average_frame_ratio("InfiniGenP") < 0.6
