"""Tier-1 smoke of the e2e benchmark: every metric of BENCHMARK.json is emitted.

Each workload runs at smoke size (about 1/50 of the work), in-process, with
the same output checks as a full run; one workload additionally goes through
the command line to hold the driver's last-line contract.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import run

SPEC = json.loads(run.SPEC_PATH.read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_names_and_bounds():
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names), names
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert all(0.0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/e2e"]
    harness, _ = run.load_harness()
    specs = [{"name": w.name, "why": w.why} for w in harness.WORKLOADS.values()]
    assert SPEC["workloads"] == specs  # workloads.py states the same list; keep them one


# seeds 0 and 1 both carry pinned smoke digests; split them across the workloads
@pytest.mark.parametrize(
    ("workload", "seed"), [(name, index % 2) for index, name in enumerate(WORKLOADS)]
)
def test_smoke_emits_every_metric(workload, seed):
    harness, _ = run.load_harness()
    result = harness.measure(workload, seed, run.SMOKE_SECONDS, trace=True, smoke=True)
    assert [c.name for c in result.outcomes if not c.ok] == []
    assert any(c.name == "golden_digest" for c in result.outcomes)
    for group, emitted in (("end_to_end", result.end_to_end), ("per_layer", result.per_layer)):
        assert list(emitted) and set(emitted) == {m["name"] for m in SPEC[group]}
        for metric in SPEC[group]:
            value = emitted[metric["name"]]
            assert value.unit == metric["unit"], metric["name"]
            assert math.isfinite(value.value), metric["name"]
    assert all(result.end_to_end[m["name"]].value > 0 for m in SPEC["end_to_end"])
    assert result.per_layer["harness.check_fail_share"].value == 0.0


@pytest.mark.parametrize("trace", [0, 1])
def test_command_line_contract(trace):
    """The driver's invocation: last stdout line is one JSON object, exact keys."""
    command = [sys.executable, str(Path(run.__file__)), "--workload", "plane_sweep"]
    command += ["--seed", "7", "--seconds", str(run.SMOKE_SECONDS), "--trace", str(trace)]
    done = subprocess.run(command + ["--smoke"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    group = "per_layer" if trace else "end_to_end"
    assert set(last["metrics"]) == {m["name"] for m in SPEC[group]}
    assert all(set(value) == {"value", "unit"} for value in last["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own files."""
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__*")
    )
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload", "plane_sweep", "--smoke"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
