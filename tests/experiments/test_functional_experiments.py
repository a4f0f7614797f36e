"""Tests for the functional-plane experiments (Fig. 7, 19, 20, Table II).

These run the real numpy substrate, so they use reduced episode counts; the
assertions target the paper's qualitative claims.  ``RESULT_SHA256`` also
pins the ``repr`` of each driver's result at those sizes, so a refactor of
the model, session or evaluation harness that moves one number fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import fig07_similarity, fig19_resv_ablation, fig20_retrieval_ratio, table02_accuracy
from repro.video.coin import CoinTask

#: sha256 of ``repr(result)`` of each driver's ``run()`` at the sizes below;
#: never re-pin these to make a refactor pass.
RESULT_SHA256 = {
    "fig07": "b2aa463418df3f3c32523cdccfd4f7e75d2420021f288a34aab178688111a5e9",
    "fig19": "6100ff8ea0cda986bf1aba7a8b1a0657db5c30af3877da2e961ca5ea9cd04239",
    "fig20": "54e25031440aed88f3565282851156c23abbd69c81b860322194e48f7983b790",
    "table02": "d57ab2000e5717f1017a329bae798619b54ebcf329b5e3715ed2b67b83a1ad18",
}


def _digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()


class TestFig07:
    def test_hashbit_tracks_cosine(self):
        result = fig07_similarity.run(num_frames=8)
        assert result.adjacent_cosine_mean > 0.5
        assert result.correlation > 0.5
        assert result.cosine_matrix.shape == result.hamming_matrix.shape
        assert _digest(result) == RESULT_SHA256["fig07"]


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

    def test_result_is_pinned(self, result):
        assert _digest(result) == RESULT_SHA256["fig20"]


class TestFig19:
    def test_ablation_shape(self):
        result = fig19_resv_ablation.run(num_episodes=1, tasks=(CoinTask.RETRIEVAL_AT_FRAME,))
        assert result.speedup["ReSV"] > result.speedup["ReSV w/o clustering"] >= 1.0
        assert result.speedup["ReSV"] > 3.0
        # Accuracy stays in a sane range for every configuration.
        for accuracy in result.accuracy.values():
            assert 0.0 <= accuracy <= 1.0
        assert _digest(result) == RESULT_SHA256["fig19"]


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

    def test_result_is_pinned(self, result):
        assert _digest(result) == RESULT_SHA256["table02"]
