"""Inter-device link pricing and FCFS queueing (:mod:`repro.hw.interconnect`).

The fleet plane's migration costs ride entirely on this model: the spec's
latency + bytes/bandwidth pricing, the free preset's literal-zero transfer
times (the M=1 bit-exactness guarantee), and the link's FCFS serialization
of concurrent migrations with O(1) byte/busy accounting.
"""

from __future__ import annotations

import math

import pytest

from repro.hw.interconnect import (
    ETHERNET_100G,
    FREE_INTERCONNECT,
    NVLINK4,
    PCIE5_SWITCH,
    InterconnectLink,
    InterconnectSpec,
)


class TestInterconnectSpec:
    def test_transfer_time_prices_latency_plus_occupancy(self):
        spec = InterconnectSpec(name="test", bandwidth_gbps=100.0, latency_us=10.0, efficiency=1.0)
        assert spec.transfer_time_s(1e9) == pytest.approx(10e-6 + 0.01)

    def test_efficiency_derates_bandwidth(self):
        full = InterconnectSpec(name="a", bandwidth_gbps=100.0, latency_us=0.0, efficiency=1.0)
        half = InterconnectSpec(name="b", bandwidth_gbps=100.0, latency_us=0.0, efficiency=0.5)
        assert half.transfer_time_s(1e9) == pytest.approx(2.0 * full.transfer_time_s(1e9))

    def test_zero_bytes_is_literally_free(self):
        for spec in (FREE_INTERCONNECT, NVLINK4, PCIE5_SWITCH, ETHERNET_100G):
            assert spec.transfer_time_s(0) == 0.0

    def test_free_interconnect_transfers_take_literal_zero(self):
        # the M=1 guarantee rides on this being exactly 0.0, not just small
        assert FREE_INTERCONNECT.transfer_time_s(1e15) == 0.0
        assert math.isinf(FREE_INTERCONNECT.bandwidth_gbps)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            PCIE5_SWITCH.transfer_time_s(-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bandwidth_gbps": 0.0},
            {"bandwidth_gbps": -1.0},
            {"bandwidth_gbps": 10.0, "latency_us": -1.0},
            {"bandwidth_gbps": 10.0, "efficiency": 0.0},
            {"bandwidth_gbps": 10.0, "efficiency": 1.5},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            InterconnectSpec(name="bad", **kwargs)

    def test_faster_fabrics_price_lower(self):
        num_bytes = 10e9
        assert (
            NVLINK4.transfer_time_s(num_bytes)
            < PCIE5_SWITCH.transfer_time_s(num_bytes)
            < ETHERNET_100G.transfer_time_s(num_bytes)
        )


class TestInterconnectLink:
    def test_concurrent_migrations_serialize_fcfs(self):
        spec = InterconnectSpec(name="test", bandwidth_gbps=1.0, latency_us=0.0, efficiency=1.0)
        link = InterconnectLink(spec)
        first = link.ship(0.0, 1e9)  # 1 s service
        second = link.ship(0.2, 1e9)  # arrives mid-transfer: waits
        assert first.start_s == 0.0 and first.finish_s == pytest.approx(1.0)
        assert second.start_s == pytest.approx(1.0)
        assert second.service.wait_s == pytest.approx(0.8)
        assert second.finish_s == pytest.approx(2.0)

    def test_free_at_tracks_the_queued_backlog(self):
        """``free_at_s`` is where the queued backlog drains: the fleet's
        energy window must cover it."""
        spec = InterconnectSpec(name="test", bandwidth_gbps=1.0, latency_us=0.0, efficiency=1.0)
        link = InterconnectLink(spec)
        assert link.free_at_s == 0.0
        link.ship(0.0, 1e9)  # 1 s service
        link.ship(0.0, 1e9)  # queued behind: finishes at 2 s
        assert link.free_at_s == pytest.approx(2.0)
        link.ship(3.0, 0.0)  # an empty shard never holds the link
        assert link.free_at_s == pytest.approx(2.0)

    def test_byte_and_busy_accounting(self):
        link = InterconnectLink(PCIE5_SWITCH)
        link.ship(0.0, 3e9, session_id=7, src_device=0, dst_device=1)
        link.ship(1.0, 5e9, session_id=8, src_device=0, dst_device=2)
        assert link.total_bytes == 8e9
        assert link.num_transfers == 2
        assert link.busy_s() == pytest.approx(
            PCIE5_SWITCH.transfer_time_s(3e9) + PCIE5_SWITCH.transfer_time_s(5e9)
        )
        assert [t.session_id for t in link.transfers] == [7, 8]
        link.assert_conserved()

    def test_free_link_never_delays(self):
        link = InterconnectLink(FREE_INTERCONNECT)
        for index in range(5):
            transfer = link.ship(0.1 * index, 1e12)
            assert transfer.service.wait_s == 0.0
            assert transfer.finish_s == transfer.service.arrival_s
        assert link.busy_s() == 0.0
        link.assert_conserved()

    def test_record_false_keeps_accumulators_only(self):
        link = InterconnectLink(PCIE5_SWITCH, record=False)
        link.ship(0.0, 1e9)
        link.ship(0.5, 1e9)
        assert link.transfers == []
        assert link.num_transfers == 2
        assert link.total_bytes == 2e9
        link.assert_conserved()  # count-only check still runs

    def test_not_before_pins_transfer_release(self):
        spec = InterconnectSpec(
            name="test", bandwidth_gbps=1.0, latency_us=0.0, efficiency=1.0
        )
        link = InterconnectLink(spec)
        pinned = link.ship(0.0, 1e9, not_before_s=2.0)
        # shards that do not exist yet cannot leave before they exist
        assert pinned.service.arrival_s == 2.0
        assert pinned.start_s == 2.0
        assert pinned.finish_s == pytest.approx(3.0)

    def test_ship_order_never_overtakes(self):
        """A pinned transfer head-of-line blocks later-decided transfers."""
        spec = InterconnectSpec(
            name="test", bandwidth_gbps=1.0, latency_us=0.0, efficiency=1.0
        )
        link = InterconnectLink(spec)
        pinned = link.ship(0.0, 1e9, not_before_s=5.0)  # decided first
        later = link.ship(1.0, 1e9)  # decided second, arrives earlier
        assert pinned.start_s == 5.0
        # the later decision is floored to the pinned release: ship order
        assert later.service.arrival_s == 5.0
        assert later.start_s == pytest.approx(pinned.finish_s)
        assert later.finish_s > pinned.finish_s
        link.assert_conserved()

