"""Tests for the hardware plane: specs, compute, memory, DRE, energy, roofline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.accelerator import VRexAccelerator
from repro.hw.compute import ComputeEngine, KernelCost
from repro.hw.dre.hcu import HCUModel, HCUWork
from repro.hw.dre.kvmu import KVFetchWork, KVMUModel
from repro.hw.dre.wtu import WTUModel, WTUWork
from repro.hw.energy import EnergyModel, core_area_power, vrex_chip_area_mm2
from repro.hw.event import EventLoop, ResourceQueue, Timeline
from repro.hw.gpu import GPUDevice, pcie_config_for
from repro.hw.memory.hierarchy import HierarchicalKVManager
from repro.hw.memory.pcie import PCIE3_X4, PCIE4_X16, PCIeLink, PCIeLinkQueue
from repro.hw.memory.ssd import SSDModel
from repro.hw.roofline import attainable_tflops
from repro.hw.specs import A100, AGX_ORIN, VREX8, VREX48, VRexCoreConfig, table_i_rows


class TestSpecs:
    def test_table_i_values(self):
        """Table I — hardware specifications."""
        assert AGX_ORIN.peak_tflops == 54.0
        assert AGX_ORIN.memory_bandwidth_gbps == pytest.approx(204.8)
        assert AGX_ORIN.pcie_bandwidth_gbps == 4.0
        assert AGX_ORIN.power_w == 40.0
        assert A100.peak_tflops == 312.0
        assert A100.memory_bandwidth_gbps == pytest.approx(1935.0)
        assert A100.pcie_bandwidth_gbps == 32.0

    def test_vrex_derived_throughput_matches_table_i(self):
        assert VREX8.peak_tflops == pytest.approx(53.3, rel=0.05)
        assert VREX48.peak_tflops == pytest.approx(319.5, rel=0.05)
        assert VREX8.num_cores == 8
        assert VREX48.num_cores == 48

    def test_core_config_throughput(self):
        core = VRexCoreConfig()
        assert core.peak_tflops == pytest.approx(2 * 64 * 64 * 800e6 / 1e12)
        assert core.hcu_bits_per_cycle == 16
        assert core.wtu_elements_per_cycle == 16

    def test_table_rows(self):
        rows = table_i_rows()
        assert len(rows) == 4
        assert {r["name"] for r in rows} == {"AGX Orin", "V-Rex8", "A100", "V-Rex48"}

    def test_pcie_config_selection(self):
        assert pcie_config_for(AGX_ORIN) is PCIE3_X4
        assert pcie_config_for(A100) is PCIE4_X16


class TestComputeEngine:
    def test_compute_bound_kernel(self):
        engine = ComputeEngine(peak_tflops=10, memory_bandwidth_gbps=1000, utilization=1.0)
        cost = KernelCost(flops=1e12, dram_bytes=1e6)
        assert engine.time_s(cost) == pytest.approx(0.1)

    def test_memory_bound_kernel(self):
        engine = ComputeEngine(peak_tflops=1000, memory_bandwidth_gbps=100, bandwidth_utilization=1.0)
        cost = KernelCost(flops=1e9, dram_bytes=1e9)
        assert engine.time_s(cost) == pytest.approx(0.01)

    def test_time_never_beats_sustained_rates(self):
        engine = ComputeEngine(peak_tflops=10, memory_bandwidth_gbps=100, utilization=0.5)
        cost = KernelCost(flops=1e12, dram_bytes=1e9)
        assert cost.flops / engine.time_s(cost) <= 5e12 * (1 + 1e-12)
        assert cost.dram_bytes / engine.time_s(cost) <= 80e9 * (1 + 1e-12)
        assert engine.time_s(cost) == max(engine.compute_time_s(cost), engine.memory_time_s(cost))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ComputeEngine(0, 100)
        with pytest.raises(ValueError):
            ComputeEngine(10, 100, utilization=0)


class TestMemoryModels:
    def test_ssd_sequential_faster_than_random(self):
        ssd = SSDModel()
        num_bytes = 1e9
        assert ssd.read_time_s(num_bytes, sequential_fraction=1.0) < ssd.read_time_s(
            num_bytes, sequential_fraction=0.0
        )

    def test_pcie_efficiency_saturates(self):
        link = PCIeLink(PCIE3_X4)
        assert link.efficiency(128) < link.efficiency(256 * 1024)
        assert link.efficiency(10 * 1024 * 1024) == pytest.approx(PCIE3_X4.max_efficiency)

    def test_pcie_transfer_time(self):
        link = PCIeLink(PCIE3_X4)
        one_gb = link.transfer_time_s(4e9, efficiency=1.0)
        assert one_gb == pytest.approx(1.0, rel=0.01)

    def test_pcie_invalid_efficiency(self):
        link = PCIeLink(PCIE3_X4)
        with pytest.raises(ValueError):
            link.transfer_time_s(1e6, efficiency=0.0)


class TestHierarchicalKVManager:
    def test_eviction_oldest_first(self):
        manager = HierarchicalKVManager(bytes_per_token=100.0, device_budget_bytes=500.0)
        evicted = manager.append(10)
        assert evicted == 5
        assert manager.resident_tokens == 5
        assert manager.fetch(np.array([0])).offchip_tokens == 1
        assert manager.fetch(np.array([9])).resident_tokens == 1

    def test_fetch_splits_resident_and_offchip(self):
        manager = HierarchicalKVManager(bytes_per_token=100.0, device_budget_bytes=500.0)
        manager.append(10)
        result = manager.fetch(np.array([0, 1, 7, 8]))
        assert result.resident_tokens == 2
        assert result.offchip_tokens == 2
        assert result.offchip_bytes == 200.0
        assert result.resident_tokens / result.requested_tokens == 0.5

    def test_cluster_mapping_coalesces_transfers(self):
        """Fetching one cluster's tokens is a single transfer with KVMU mapping."""
        cluster_ids = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        clustered = HierarchicalKVManager(100.0, 0.0, cluster_mapping=True)
        clustered.append(8, cluster_ids=cluster_ids)
        scattered = HierarchicalKVManager(100.0, 0.0, cluster_mapping=False)
        scattered.append(8, cluster_ids=cluster_ids)
        request = np.array([0, 2, 4, 6])  # cluster 0 only, interleaved in arrival order
        assert clustered.fetch(request).num_transfers == 1
        assert scattered.fetch(request).num_transfers == 4
        assert clustered.fetch(request).mean_contiguous_bytes > scattered.fetch(
            request
        ).mean_contiguous_bytes

    def test_fetch_out_of_range(self):
        manager = HierarchicalKVManager(100.0, 1000.0)
        manager.append(3)
        with pytest.raises(IndexError):
            manager.fetch(np.array([5]))

    @given(
        chunks=st.lists(st.integers(1, 20), min_size=1, max_size=10),
        budget_tokens=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_residency_invariants(self, chunks, budget_tokens):
        manager = HierarchicalKVManager(
            bytes_per_token=10.0, device_budget_bytes=budget_tokens * 10.0
        )
        for chunk in chunks:
            manager.append(chunk)
        assert manager.resident_tokens + manager.offloaded_tokens == manager._num_tokens
        assert manager.resident_tokens <= max(budget_tokens, 0)
        assert (
            manager.resident_tokens * 10.0 + manager.offloaded_bytes()
            == manager._num_tokens * 10.0
        )

    # -------------------------------------------------------------- #
    # array-backed cluster bookkeeping: equivalence with the old
    # dict-based per-token grouping, plus validation and boundaries
    # -------------------------------------------------------------- #
    @staticmethod
    def _dict_grouping(cluster_of_token: dict, offchip: np.ndarray) -> dict:
        """The pre-rewrite per-token grouping loop, kept for equivalence."""
        groups: dict[int, list[int]] = {}
        for token in offchip:
            cluster = cluster_of_token.get(int(token), -1)
            groups.setdefault(cluster, []).append(int(token))
        return groups

    @given(
        chunks=st.lists(
            st.tuples(st.integers(1, 12), st.booleans()), min_size=1, max_size=8
        ),
        budget_tokens=st.integers(0, 40),
        num_clusters=st.integers(1, 6),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_array_grouping_matches_dict_grouping(
        self, chunks, budget_tokens, num_clusters, seed
    ):
        """The vectorized grouping reproduces the old dict-loop transfers."""
        rng = np.random.default_rng(seed)
        manager = HierarchicalKVManager(
            bytes_per_token=10.0, device_budget_bytes=budget_tokens * 10.0
        )
        cluster_of_token: dict[int, int] = {}
        start = 0
        for count, clustered in chunks:
            if clustered:
                ids = rng.integers(0, num_clusters, size=count)
                for offset, cluster in enumerate(ids):
                    cluster_of_token[start + offset] = int(cluster)
                manager.append(count, cluster_ids=ids)
            else:
                manager.append(count)
            start += count
        if manager._num_tokens == 0:
            return
        request = rng.integers(0, manager._num_tokens, size=min(manager._num_tokens, 16))
        result = manager.fetch(request)
        offchip = np.unique(request)[np.unique(request) < manager.offloaded_tokens]
        groups = self._dict_grouping(cluster_of_token, offchip)
        if manager.cluster_mapping and cluster_of_token:
            expected_transfers = len(groups) if offchip.size else 0
        else:
            expected_transfers = (
                int(np.count_nonzero(np.diff(offchip) > 1)) + 1 if offchip.size else 0
            )
        assert result.num_transfers == expected_transfers
        assert result.offchip_tokens == offchip.size
        if expected_transfers:
            assert result.mean_contiguous_bytes == pytest.approx(
                offchip.size * 10.0 / expected_transfers
            )
        # grouping content matches as sets of tokens per cluster
        if manager.cluster_mapping and cluster_of_token and offchip.size:
            new_groups = manager._group_transfers(offchip)
            assert sorted(
                tuple(sorted(group.tolist())) for group in new_groups
            ) == sorted(tuple(sorted(tokens)) for tokens in groups.values())

    def test_cluster_ids_validation_errors(self):
        manager = HierarchicalKVManager(bytes_per_token=10.0, device_budget_bytes=1e9)
        with pytest.raises(ValueError, match="1-D"):
            manager.append(4, cluster_ids=np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="length"):
            manager.append(4, cluster_ids=np.array([0, 1]))
        with pytest.raises(ValueError, match="non-negative"):
            manager.append(2, cluster_ids=np.array([0, -3]))
        with pytest.raises(ValueError, match="integers"):
            manager.append(2, cluster_ids=np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            manager.append(-1)
        # integer-valued floats are accepted (the old int() cast behaviour)
        assert manager.append(2, cluster_ids=np.array([0.0, 1.0])) == 0
        assert manager._num_tokens == 2

    def test_eviction_boundary_exact_budget(self):
        """A resident set exactly at the budget evicts nothing."""
        manager = HierarchicalKVManager(bytes_per_token=100.0, device_budget_bytes=500.0)
        assert manager.append(5) == 0
        assert manager.resident_tokens == 5
        assert manager.append(1) == 1  # one over -> exactly one eviction
        assert manager.resident_tokens == 5
        assert manager.fetch(np.array([0])).offchip_tokens == 1
        assert manager.fetch(np.array([1])).resident_tokens == 1

    def test_eviction_boundary_fractional_bytes_per_token(self):
        """Sub-byte token sizes clamp to 1 byte for the budget division."""
        manager = HierarchicalKVManager(bytes_per_token=0.25, device_budget_bytes=4.0)
        assert manager.append(10) == 6  # budget of 4 clamped tokens
        assert manager.resident_tokens == 4

    def test_zero_token_append_and_empty_fetch(self):
        manager = HierarchicalKVManager(bytes_per_token=100.0, device_budget_bytes=500.0)
        assert manager.append(0) == 0
        assert manager.append(0, cluster_ids=np.array([], dtype=np.int64)) == 0
        manager.append(3)
        result = manager.fetch(np.array([], dtype=np.int64))
        assert result.requested_tokens == 0
        assert result.num_transfers == 0
        assert result.resident_tokens == result.offchip_tokens == 0

    def test_zero_budget_offloads_everything(self):
        manager = HierarchicalKVManager(bytes_per_token=100.0, device_budget_bytes=0.0)
        assert manager.append(7) == 7
        assert manager.resident_tokens == 0
        assert manager.offloaded_bytes() == 700.0

    def test_mixed_clustered_and_unclustered_appends_group_together(self):
        """Tokens appended without cluster ids coalesce into one catch-all
        transfer once any cluster mapping exists (the old dict behaviour)."""
        manager = HierarchicalKVManager(
            bytes_per_token=10.0, device_budget_bytes=0.0, cluster_mapping=True
        )
        manager.append(4)  # no clusters
        manager.append(4, cluster_ids=np.array([0, 1, 0, 1]))
        result = manager.fetch(np.arange(8))
        # one transfer per cluster {0, 1} plus one for the unmapped tokens
        assert result.num_transfers == 3


class TestDREUnits:
    def test_hcu_time_scales_with_work(self):
        hcu = HCUModel(num_cores=8)
        small = HCUWork(new_tokens=10, num_clusters=100, n_bits=32, kv_heads=8)
        large = HCUWork(new_tokens=10, num_clusters=1000, n_bits=32, kv_heads=8)
        assert hcu.time_s(large) > hcu.time_s(small)

    def test_hcu_more_cores_faster(self):
        work = HCUWork(10, 500, 32, 8)
        assert HCUModel(num_cores=8).time_s(work) < HCUModel(num_cores=1).time_s(work)

    def test_wtu_early_exit_speedup(self):
        wtu = WTUModel(num_cores=8)
        work = WTUWork(rows=320, clusters=1250, sort_fraction=0.16)
        assert wtu.early_exit_speedup(work) > 1.3
        assert wtu.time_s(work) < wtu.time_s(WTUWork(320, 1250, sort_fraction=1.0, early_exit=False))

    def test_wtu_invalid_sort_fraction(self):
        with pytest.raises(ValueError):
            WTUWork(rows=1, clusters=1, sort_fraction=1.5)

    def test_dre_prediction_is_microseconds(self):
        """The DRE hides prediction under LLM compute — it must be tiny."""
        hcu, wtu = HCUModel(num_cores=8), WTUModel(num_cores=8)
        total = hcu.time_s(HCUWork(10, 1250, 32, 8)) + wtu.time_s(WTUWork(320, 1250))
        assert total < 1e-3

    def test_kvmu_cluster_mapping_speeds_up_fetch(self):
        link = PCIeLink(PCIE3_X4)
        clustered = KVMUModel(link, cluster_mapping=True)
        scattered = KVMUModel(link, cluster_mapping=False)
        work = KVFetchWork(total_bytes=1e8, mean_contiguous_bytes=128 * 1024, from_ssd=True)
        assert clustered.fetch_time_s(work) < scattered.fetch_time_s(work)
        assert clustered.fetch_time_s(KVFetchWork(0.0, 1.0)) == 0.0


class TestDevices:
    def test_gpu_irregular_slower_than_dense(self):
        gpu = GPUDevice(AGX_ORIN)
        cost = KernelCost(flops=1e11, dram_bytes=1e8)
        assert gpu.irregular_time_s(cost) > gpu.dense_time_s(cost)

    def test_gpu_fetch(self):
        gpu = GPUDevice(AGX_ORIN)
        assert gpu.fetch_time_s(4e9) > 0.9

    def test_vrex_accelerator_requires_vrex_spec(self):
        with pytest.raises(ValueError):
            VRexAccelerator(AGX_ORIN)

    def test_vrex_prediction_and_fetch(self):
        accel = VRexAccelerator(VREX8)
        pred = accel.prediction_time_s(HCUWork(10, 1250, 32, 8), WTUWork(320, 1250))
        assert pred < 1e-3
        fetch = accel.fetch_time_s(KVFetchWork(1e8, 128 * 1024, from_ssd=True))
        assert fetch > 0


class TestEnergyAndRoofline:
    def test_table_iii_totals(self):
        aggregate = core_area_power()
        assert aggregate.total_area_mm2 == pytest.approx(1.89, abs=0.01)
        assert aggregate.total_power_mw == pytest.approx(2609.43, abs=0.5)
        assert aggregate.dre_area_fraction == pytest.approx(0.02, abs=0.01)
        assert aggregate.dre_power_fraction == pytest.approx(0.022, abs=0.01)

    def test_chip_areas_smaller_than_gpus(self):
        assert vrex_chip_area_mm2(8) < 200.0
        assert vrex_chip_area_mm2(48) < 826.0

    def test_system_power_near_paper_values(self):
        energy = EnergyModel()
        assert energy.vrex_system_power(8).total_w == pytest.approx(35.0, rel=0.15)
        assert energy.vrex_system_power(48).total_w == pytest.approx(203.68, rel=0.15)
        assert energy.vrex_system_power(8).total_w < AGX_ORIN.power_w
        assert energy.vrex_system_power(48).total_w < A100.power_w

    def test_inference_energy(self):
        energy = EnergyModel()
        gpu_energy = energy.inference_energy_j(AGX_ORIN, latency_s=1.0)
        assert gpu_energy == pytest.approx(40.0)
        vrex_energy = energy.inference_energy_j(VREX8, latency_s=1.0, pcie_busy_s=0.5)
        assert 0 < vrex_energy < gpu_energy
        assert EnergyModel.efficiency_gops_per_w(1e12, 10.0) == pytest.approx(100.0)

    def test_roofline(self):
        assert attainable_tflops(1000.0, 54.0, 204.8) == 54.0
        assert attainable_tflops(1.0, 54.0, 204.8) == pytest.approx(0.2048)


class TestEnergyModelFixes:
    """Regressions for the inference-energy and power-model bug fixes."""

    def test_full_load_io_helpers(self):
        energy = EnergyModel()
        assert energy.pcie_lanes(8) == 4
        assert energy.pcie_lanes(48) == 16
        assert energy.pcie_full_load_w(8) == pytest.approx(12.0)
        assert energy.pcie_full_load_w(48) == pytest.approx(48.0)
        assert energy.ssd_full_load_w(8) == pytest.approx(4.1)
        assert energy.ssd_full_load_w(48) == 0.0
        assert energy.io_full_load_w(8) == pytest.approx(16.1)
        assert energy.io_full_load_w(48) == pytest.approx(48.0)

    def test_busy_io_charged_at_full_load_not_derated(self):
        """One busy link-second costs full-load watts, not the x0.5/x0.7
        time-averaged derates of ``vrex_system_power`` (charging those per
        busy second applied the derate twice)."""
        energy = EnergyModel()
        delta8 = energy.inference_energy_j(
            VREX8, 1.0, pcie_busy_s=1.0
        ) - energy.inference_energy_j(VREX8, 1.0)
        assert delta8 == pytest.approx(16.1)
        delta48 = energy.inference_energy_j(
            VREX48, 1.0, pcie_busy_s=1.0
        ) - energy.inference_energy_j(VREX48, 1.0)
        assert delta48 == pytest.approx(48.0)
        # the pre-fix value: derated pcie_w + storage_w of the breakdown
        breakdown = energy.vrex_system_power(8)
        assert breakdown.pcie_w + breakdown.storage_w == pytest.approx(8.87)
        assert delta8 > breakdown.pcie_w + breakdown.storage_w

    def test_efficiency_zero_is_sentinel_negative_raises(self):
        assert EnergyModel.efficiency_gops_per_w(1e12, 0.0) == 0.0
        with pytest.raises(ValueError, match="negative energy"):
            EnergyModel.efficiency_gops_per_w(1e12, -1.0)

    def test_device_power_honours_core_overrides(self):
        """A non-default deployment's dram_w/pcie_lanes thread through to
        every power path instead of silently reverting to the Table I
        defaults keyed on core count."""
        default = EnergyModel().vrex_system_power(VREX8.num_cores).total_w
        tuned_model = EnergyModel(VRexCoreConfig(dram_w=10.0, pcie_lanes=8))
        tuned = tuned_model.vrex_system_power(VREX8.num_cores).total_w
        # +5 W DRAM override, +4 lanes at 3 W/lane derated x0.5
        assert tuned == pytest.approx(default + 5.0 + 4 * 3.0 * 0.5)
        assert tuned_model.dram_static_w(8) == 10.0
        assert tuned_model.pcie_full_load_w(8) == pytest.approx(24.0)
        assert tuned_model.io_full_load_w(8) == pytest.approx(24.0 + 4.1)


class TestResourceQueues:
    def test_fcfs_queueing_delay(self):
        queue = ResourceQueue("link")
        first = queue.enqueue(0.0, 2.0)
        second = queue.enqueue(0.0, 2.0)
        third = queue.enqueue(5.0, 1.0)
        assert first.wait_s == 0.0 and first.finish_s == 2.0
        assert second.start_s == 2.0 and second.wait_s == 2.0
        assert third.wait_s == 0.0  # arrives after the server drained
        assert queue.free_at_s == pytest.approx(6.0)
        assert queue.busy_s() == pytest.approx(5.0)

    def test_zero_service_passes_through(self):
        queue = ResourceQueue()
        queue.enqueue(0.0, 3.0)
        empty = queue.enqueue(0.0, 0.0)
        assert empty.wait_s == 0.0 and empty.finish_s == 0.0
        assert queue.free_at_s == pytest.approx(3.0)
        with pytest.raises(ValueError):
            queue.enqueue(0.0, -1.0)

    def test_pcie_link_queue_serializes_transfers(self):
        link = PCIeLink(PCIE3_X4)
        queue = PCIeLinkQueue(link)
        service = link.transfer_time_s(1e9)
        first = queue.enqueue(0.0, service)
        second = queue.enqueue(0.0, service)
        assert queue.name == PCIE3_X4.name and queue.link is link
        assert first.service_s == pytest.approx(service)
        assert second.wait_s == pytest.approx(service)
        assert second.finish_s - second.arrival_s == pytest.approx(2 * service)

    def test_accelerator_fetch_queue(self):
        """The device's KVMU fetches over the device's own link and SSD, so
        concurrent fetches queued on that link serialize their PCIe stage."""
        device = VRexAccelerator(VREX8)
        assert device.kvmu.link is device.link and device.kvmu.ssd is device.ssd
        work = KVFetchWork(total_bytes=1e7, mean_contiguous_bytes=8192.0, from_ssd=True)
        pcie_s = device.kvmu.pcie_time_s(work)
        assert device.fetch_time_s(work) == pytest.approx(
            max(pcie_s, device.kvmu.ssd_time_s(work))
        )
        queue = PCIeLinkQueue(device.link)
        queue.enqueue(0.0, pcie_s)
        second = queue.enqueue(0.0, pcie_s)
        assert second.wait_s == pytest.approx(pcie_s)
        assert queue.busy_s() == pytest.approx(2 * pcie_s)

    def test_link_occupancy_plus_latency_is_transfer_time(self):
        link = PCIeLink(PCIE4_X16)
        total = link.transfer_time_s(5e8, efficiency=0.8)
        occupancy = link.occupancy_s(5e8, efficiency=0.8)
        assert total == pytest.approx(occupancy + PCIE4_X16.latency_us * 1e-6)
        assert link.occupancy_s(0.0) == 0.0

    def test_kvmu_stage_split_consistent(self):
        kvmu = KVMUModel(PCIeLink(PCIE3_X4), SSDModel(), cluster_mapping=True)
        work = KVFetchWork(total_bytes=64e6, mean_contiguous_bytes=4096.0, from_ssd=True)
        assert kvmu.fetch_time_s(work) == pytest.approx(
            max(kvmu.pcie_time_s(work), kvmu.ssd_time_s(work))
        )
        cpu_work = KVFetchWork(total_bytes=64e6, mean_contiguous_bytes=4096.0, from_ssd=False)
        assert kvmu.ssd_time_s(cpu_work) == 0.0
        assert kvmu.fetch_time_s(cpu_work) == pytest.approx(kvmu.pcie_time_s(cpu_work))

    def test_ssd_occupancy_plus_latency_is_read_time(self):
        ssd = SSDModel()
        total = ssd.read_time_s(1e8, sequential_fraction=0.5)
        occupancy = ssd.read_occupancy_s(1e8, sequential_fraction=0.5)
        assert total == pytest.approx(occupancy + ssd.config.read_latency_us * 1e-6)


class TestEventLoop:
    def test_fires_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule(2.0, lambda: fired.append("late"))
        loop.schedule(1.0, lambda: fired.append("early"))
        assert loop.run() == 2
        assert fired == ["early", "late"]
        assert loop.now_s == 2.0
        assert loop.events_processed == 2

    def test_tie_breaking_priority_then_key_then_insertion(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append("p1"), priority=1, key=(0,))
        loop.schedule(1.0, lambda: fired.append("p0-b"), priority=0, key=(2,))
        loop.schedule(1.0, lambda: fired.append("p0-a"), priority=0, key=(1,))
        loop.schedule(1.0, lambda: fired.append("p0-a2"), priority=0, key=(1,))
        loop.run()
        assert fired == ["p0-a", "p0-a2", "p0-b", "p1"]

    def test_events_scheduled_during_run_fire(self):
        loop = EventLoop()
        fired = []

        def chain():
            fired.append("first")
            loop.schedule(loop.now_s + 1.0, lambda: fired.append("second"))

        loop.schedule(0.0, chain)
        loop.run()
        assert fired == ["first", "second"]

    def test_rejects_scheduling_in_the_past(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: loop.schedule(0.5, lambda: None))
        with pytest.raises(ValueError):
            loop.run()

    def test_run_until_leaves_later_events_queued(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append(1))
        loop.schedule(3.0, lambda: fired.append(3))
        assert loop.run(until_s=2.0) == 1
        assert fired == [1] and len(loop) == 1
        loop.run()
        assert fired == [1, 3]


class TestTimeline:
    def test_busy_time_merges_overlaps(self):
        timeline = Timeline()
        timeline.add("a", "compute", 0.0, 2.0)
        timeline.add("b", "compute", 1.0, 2.0)
        assert timeline.busy_time_s("compute") == pytest.approx(3.0)
        assert timeline.makespan_s == pytest.approx(3.0)

    def test_overlap_between_tasks(self):
        timeline = Timeline()
        timeline.add("attn", "compute", 1.0, 2.0)
        timeline.add("pred", "dre", 1.5, 1.0)
        assert timeline.overlap_s("pred", "attn") == pytest.approx(1.0)

    def test_invalid_task(self):
        with pytest.raises(ValueError):
            Timeline().add("a", "x", -1.0, 1.0)
