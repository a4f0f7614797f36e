"""Unit tests of the e2e harness's own machinery: checks, tracing, comparison."""

from __future__ import annotations

import copy
import json

import compare
import run
from tracing import ROOT, Tracer


def test_perturbed_digest_raises_check_fail_share(monkeypatch):
    harness, _ = run.load_harness()
    checks = harness.checks
    pinned = checks.load_golden("plane_sweep", 0, "smoke")
    assert pinned is not None
    perturbed = copy.deepcopy(pinned)
    perturbed["scheduler"]["p99_ms"] = repr(float(pinned["scheduler"]["p99_ms"]) * (1 + 1e-12))
    assert checks.diff(pinned, perturbed) != []
    monkeypatch.setattr(checks, "load_golden", lambda *key: perturbed)
    result = harness.measure("plane_sweep", 0, run.SMOKE_SECONDS, trace=True, smoke=True)
    assert [c.name for c in result.outcomes if not c.ok] == ["golden_digest"]
    assert result.per_layer["harness.check_fail_share"].value > 0.0
    assert json.loads(result.last_line())["correct"] is False


def test_repin_reports_field_by_field(tmp_path, monkeypatch):
    harness, _ = run.load_harness()
    checks = harness.checks
    monkeypatch.setattr(checks, "GOLDEN_DIR", tmp_path)
    first = {"scheduler": {"p99_ms": "1.0", "served": 3}}
    assert checks.repin("w", 0, "smoke", first) == [
        "scheduler.p99_ms: <absent> -> 1.0",
        "scheduler.served: <absent> -> 3",
    ]
    second = {"scheduler": {"p99_ms": "1.5", "served": 3}}
    assert checks.repin("w", 0, "smoke", second) == ["scheduler.p99_ms: 1.0 -> 1.5"]
    assert checks.load_golden("w", 0, "smoke") == second
    assert checks.load_golden("w", 0, "full") is None


def test_self_times_sum_to_the_root_span(tmp_path):
    tracer = Tracer()
    with tracer.span(ROOT):
        with tracer.span("layer.a"):
            inner = tracer.wrap("layer.b", lambda: sum(range(1000)))
            inner()
            inner()
        with tracer.span("layer.c"):
            pass
    self_times = tracer.self_times(0)
    root = tracer.spans[0]
    assert set(self_times) == {ROOT, "layer.a", "layer.b", "layer.c"}
    assert abs(sum(self_times.values()) - root.duration_s) < 1e-9
    assert tracer.totals(0)["layer.b"][1] == 2
    assert tracer.spans[2].parent == 1  # layer.b was caused by layer.a
    tracer.write_chrome_trace(tmp_path / "trace.json")
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert len(events) == 5 and all(event["ph"] == "X" for event in events)


def test_verdicts():
    steady_a = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(steady_a, [1.03, 1.02, 1.04, 1.03, 1.05], "lower", 0.10)[0] == (
        compare.WITHIN
    )
    assert compare.verdict(steady_a, [1.20, 1.21, 1.19, 1.22, 1.20], "lower", 0.10)[0] == (
        compare.REGRESSED
    )
    # "higher is better": the same drop in a rate is a regression
    assert compare.verdict([100.0, 101.0], [80.0, 81.0], "higher", 0.10)[0] == compare.REGRESSED
    noisy_a = [1.0, 1.3, 0.8, 1.2, 0.9]
    noisy_b = [1.05, 1.25, 0.85, 1.15, 0.95]
    assert compare.verdict(noisy_a, noisy_b, "lower", 0.10)[0] == compare.UNRESOLVED
    # a wide spread still resolves when every run of B beats every run of A
    assert compare.verdict(noisy_a, [0.5, 0.6, 0.7, 0.55, 0.65], "lower", 0.10)[0] == (
        compare.WITHIN
    )


def test_compare_sets_flags_a_regression(capsys):
    spec = json.loads(run.SPEC_PATH.read_text())

    def one_set(wall: float) -> dict:
        metrics = {
            m["name"]: {"value": wall, "unit": m["unit"], "samples": [wall, wall * 1.01, wall]}
            for m in spec["end_to_end"]
        }
        return {"runs": [{"workload": w["name"], "metrics": metrics} for w in spec["workloads"]]}

    assert compare.compare_sets([one_set(1.0)], [one_set(1.02)], spec) == 0
    assert compare.compare_sets([one_set(1.0)], [one_set(1.5)], spec) == 1
    assert compare.REGRESSED in capsys.readouterr().out
