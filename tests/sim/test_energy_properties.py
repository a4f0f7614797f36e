"""Property pins for the energy plane.

Hypothesis-driven invariants over real scheduler runs:

* every priced quantity is non-negative and the report conserves;
* energy is additive over disjoint windows — extending the accounting
  window by ``delta`` adds exactly the always-on power times ``delta``
  (busy-only rows are unaffected by idle extension);
* busy energy is monotone in busy time at fixed window;
* a contended fleet never prices below the solo floor — adding streams
  can only grow the window and the traffic, never shrink the joules.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import energy_row

from repro.sim.arrivals import PoissonArrivals, rate_for_load
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.energy import EnergyInputs, assert_conserved, schedule_energy
from repro.sim.scheduler import SchedulerConfig, ServingScheduler
from repro.sim.systems import edge_systems
from repro.sim.workload import default_llm_workload


@pytest.fixture(scope="module")
def edge():
    return edge_systems(default_llm_workload().model_bytes())


@pytest.fixture(scope="module")
def contended(edge):
    """One contended V-Rex8 run reused by every property example."""
    plane = BatchLatencyModel()
    profiles = [StreamProfile(kv_len=40_000, session_id=i) for i in range(4)]
    solo = plane.frame_step(system := edge["V-Rex8"], profiles[:1]).streams[0].total_s
    traces = PoissonArrivals(rate_hz=rate_for_load(1.2, solo, 4)).generate(
        4, 6, seed=7
    )
    return ServingScheduler(plane, SchedulerConfig(max_queue_depth=4)).run(
        system, profiles, traces
    )


@given(window_scale=st.floats(min_value=1.0, max_value=100.0))
@settings(max_examples=25)
def test_report_non_negative_and_conserved(contended, window_scale):
    base = contended.energy()
    report = schedule_energy(
        contended, contended.energy_inputs, window_s=base.window_s * window_scale
    )
    for row in report.resources:
        assert row.busy_j >= 0.0
        assert row.idle_j >= 0.0
        assert row.busy_s >= 0.0
        assert 0.0 <= row.utilization <= 1.0
    assert report.total_j >= 0.0
    assert report.total_j >= report.busy_j
    assert_conserved(report)


@given(delta=st.floats(min_value=0.0, max_value=1e4))
@settings(max_examples=25)
def test_energy_additive_over_disjoint_windows(contended, delta):
    """E[0, W + delta] = E[0, W] + (always-on power) * delta."""
    base = contended.energy()
    extended = schedule_energy(
        contended, contended.energy_inputs, window_s=base.window_s + delta
    )
    always_on_w = sum(
        row.busy_power_w
        for row in base.resources
        if row.idle_j > 0.0 or row.name in ("lxe", "dre", "dram", "device")
    )
    assert extended.total_j == pytest.approx(
        base.total_j + always_on_w * delta, rel=1e-9, abs=1e-9
    )
    # busy-only rows (pcie/ssd) are untouched by idle extension
    for before, after in zip(base.resources, extended.resources, strict=True):
        if before.idle_j == 0.0 and before.name in ("pcie", "ssd"):
            assert after.busy_j == before.busy_j
            assert after.idle_j == 0.0


@given(scale=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=25)
def test_busy_energy_monotone_in_busy_time(contended, scale):
    """Scaling the link/DRE residency down never raises busy energy."""
    inputs = contended.energy_inputs
    scaled = EnergyInputs(
        device=inputs.device,
        priced=inputs.priced,
        dre_busy_s=inputs.dre_busy_s * scale,
        link_busy_s=inputs.link_busy_s * scale,
    )
    full = schedule_energy(contended, inputs)
    reduced = schedule_energy(contended, scaled)
    assert energy_row(reduced, "dre").busy_j <= energy_row(full, "dre").busy_j
    assert energy_row(reduced, "pcie").busy_j <= energy_row(full, "pcie").busy_j
    # always-on rows keep their window total: busy lost becomes idle
    assert energy_row(reduced, "dre").total_j == pytest.approx(
        energy_row(full, "dre").total_j, rel=1e-12
    )
    # busy-only rows shed the energy outright
    assert reduced.total_j <= full.total_j + 1e-12


@given(num_streams=st.integers(min_value=2, max_value=5))
@settings(max_examples=10)
def test_contended_run_never_prices_below_solo_floor(edge, num_streams):
    """More streams, aligned arrivals: joules only go up from the solo run."""
    system = edge["V-Rex8"]

    def run(count):
        plane = BatchLatencyModel()
        profiles = [StreamProfile(kv_len=40_000, session_id=i) for i in range(count)]
        return ServingScheduler(plane, SchedulerConfig()).run(
            system, profiles, [[0.0]] * count
        )

    solo = run(1).energy()
    contended = run(num_streams).energy()
    assert contended.window_s >= solo.window_s
    assert contended.total_j >= solo.total_j - 1e-12
    assert contended.tokens == pytest.approx(solo.tokens * num_streams, rel=1e-12)
    assert math.isfinite(contended.j_per_token)
