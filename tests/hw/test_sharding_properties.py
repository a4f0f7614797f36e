"""Property tests for the sharded device-memory plane.

These pin the *invariants* of :mod:`repro.hw.memory.sharding` rather than
point values (they run under the dev/ci hypothesis profiles registered in
``tests/conftest.py``):

* **conservation** — across any sequence of registrations, touches,
  promotions and fetch commits, every session's per-bank warm shards plus
  its cold remainder sum to its total off-chip bytes, the bank occupancy
  is exactly the sum of warm shards, and no bank exceeds its budget;
* **hot tokens are sacred** — bank eviction only ever moves warm shards to
  the cold tier; device-DRAM-resident (hot) bytes never change;
* **one eviction plan** — ``plan_promotion`` is pure, ``apply_promotion``
  does what the plan says, and victims leave in least-recently-used order
  (checked against a brute-force last-use-clock oracle that scans every
  session — the plane itself walks a per-bank resident index, whose cost
  must not grow with the sessions that are cold in the bank);
* **bank parallelism only helps** — for cluster-aligned layouts (bank
  count divides the cluster count) the fetch makespan is monotone
  non-increasing in the number of banks, and the single-bank split prices
  exactly like the unsharded KVMU fetch;
* **admission is a function of the fleet** — the residency-aware
  admission controller's admit/defer/evict decisions (and the resulting
  sojourns) are invariant under permutation of the profile listing order;
* **numpy's float order** — the plane keeps its per-bank bytes as Python
  floats, yet every derived tier view is bit-identical to numpy over the
  warm shares as float64 arrays, at every bank count (numpy sums pairwise
  from 8 terms);
* **a stale plan is refused** — armed or not, before it mutates anything.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devtools.sanitizer import ENV_VAR
from repro.hw.dre.kvmu import KVFetchWork, KVMUModel
from repro.hw.memory.pcie import PCIE3_X4, PCIE4_X16, PCIeLink
from repro.hw.memory.sharding import (
    _COLD_SNAP_REL,
    EvictionRecord,
    ShardedKVHierarchy,
    ShardSplit,
    partition_by_cluster,
    sharded_fetch_makespan,
)
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.scheduler import SchedulerConfig, ServingScheduler
from repro.sim.systems import server_systems
from repro.sim.workload import default_llm_workload

GiB = 1024.0**3


def warm_bytes(hierarchy: ShardedKVHierarchy, session_id: int) -> np.ndarray:
    """Per-bank warm bytes of one session, as a fresh float64 array."""
    return np.array(hierarchy._shard(session_id).warm_bytes)


def bank_occupancy_bytes(hierarchy: ShardedKVHierarchy) -> np.ndarray:
    """Warm bytes per bank, as a fresh float64 array."""
    return np.array(hierarchy.occupancy_snapshot())

session_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),  # offloaded
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),  # hot
        st.integers(min_value=1, max_value=64),  # clusters
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),  # hc tables
    ),
    min_size=1,
    max_size=6,
)
bank_configs = st.tuples(
    st.integers(min_value=1, max_value=8),
    st.one_of(st.just(math.inf), st.floats(min_value=1e6, max_value=2e9)),
)
op_sequences = st.lists(
    st.tuples(st.sampled_from(["touch", "promote", "commit"]), st.integers(0, 5)),
    max_size=20,
)


def _build(bank_config, specs) -> ShardedKVHierarchy:
    num_banks, budget = bank_config
    hierarchy = ShardedKVHierarchy(num_banks=num_banks, bank_budget_bytes=budget)
    for session_id, (offloaded, hot, clusters, hc) in enumerate(specs):
        hierarchy.register(
            session_id,
            offloaded_bytes=offloaded,
            hot_bytes=hot,
            num_clusters=clusters,
            hc_table_bytes=hc,
        )
    return hierarchy


def _run_ops(hierarchy: ShardedKVHierarchy, ops, num_sessions: int) -> None:
    for op, index in ops:
        session = index % num_sessions
        if op == "touch":
            hierarchy.touch(session)
        elif op == "promote":
            hierarchy.promote(session)
        else:
            hierarchy.commit_fetch(session)


class TestShardConservation:
    @given(bank_config=bank_configs, specs=session_specs, ops=op_sequences)
    def test_shards_sum_to_offloaded_bytes(self, bank_config, specs, ops):
        """warm + cold == off-chip for every session, at every point."""
        hierarchy = _build(bank_config, specs)
        _run_ops(hierarchy, ops, len(specs))
        for session_id, (offloaded, _hot, _clusters, hc) in enumerate(specs):
            offchip = offloaded + hc
            warm = warm_bytes(hierarchy, session_id).sum()
            cold = hierarchy.cold_bytes(session_id)
            # the cold remainder snaps ulp-level float-sum residue to zero,
            # so conservation holds to that (relative) slack
            assert warm + cold == pytest.approx(offchip, rel=1e-9, abs=1e-3)
            assert hierarchy.offchip_bytes(session_id) == offchip
            assert -1e-6 <= cold <= offchip + 1e-6
            # the partition itself is exact by construction
            home = partition_by_cluster(_clusters, hierarchy.num_banks, offchip)
            assert home.sum() == offchip

    @given(bank_config=bank_configs, specs=session_specs, ops=op_sequences)
    def test_occupancy_is_sum_of_warm_shards_and_respects_budgets(
        self, bank_config, specs, ops
    ):
        hierarchy = _build(bank_config, specs)
        _run_ops(hierarchy, ops, len(specs))
        total = np.zeros(hierarchy.num_banks)
        for session_id in range(len(specs)):
            total += warm_bytes(hierarchy, session_id)
        occupancy = bank_occupancy_bytes(hierarchy)
        assert occupancy == pytest.approx(total, rel=1e-9, abs=1e-6)
        assert np.all(occupancy <= hierarchy.bank_budget_bytes * (1 + 1e-12) + 1e-6)

    @given(bank_config=bank_configs, specs=session_specs, ops=op_sequences)
    def test_eviction_never_drops_hot_tokens(self, bank_config, specs, ops):
        """Demotion moves warm bank shards cold; device-resident bytes never move."""
        hierarchy = _build(bank_config, specs)
        _run_ops(hierarchy, ops, len(specs))
        for session_id, (_offloaded, hot, _clusters, _hc) in enumerate(specs):
            assert hierarchy._shard(session_id).hot_bytes == hot
        for eviction in hierarchy.evictions:
            assert eviction.bytes > 0  # only warm bank shards are demoted
            assert 0 <= eviction.bank < hierarchy.num_banks

    @given(specs=session_specs, ops=op_sequences)
    def test_unbounded_single_bank_is_always_fully_warm(self, specs, ops):
        """The degenerate configuration never demotes and never evicts."""
        hierarchy = _build((1, math.inf), specs)
        _run_ops(hierarchy, ops, len(specs))
        assert hierarchy.evictions == []
        for session_id in range(len(specs)):
            assert hierarchy.cold_fraction(session_id) == 0.0
            split = hierarchy.fetch_split(session_id)
            assert split.cold_fraction == 0.0

    @given(
        num_banks=st.integers(min_value=1, max_value=8),
        num_clusters=st.integers(min_value=1, max_value=200),
        total_mib=st.floats(min_value=0.01, max_value=4096.0, allow_nan=False),
        ops=op_sequences,
    )
    def test_unbounded_banks_report_exactly_zero_cold_fraction(
        self, num_banks, num_clusters, total_mib, ops
    ):
        """Fully-warm sessions never price a spurious SSD leg.

        Regression: with a non-bank-aligned cluster count the per-bank
        float fractions can sum to 1 - 1ulp; the cold fraction must come
        from the (snapped) byte remainder, not from ``1 - sum(fractions)``
        — a 1e-16 "cold" share would otherwise pay the SSD's whole fixed
        access latency and break makespan monotonicity in bank count.
        """
        hierarchy = ShardedKVHierarchy(num_banks=num_banks)
        hierarchy.register(0, total_mib * 1024**2, num_clusters=num_clusters)
        _run_ops(hierarchy, ops, 1)
        split = hierarchy.fetch_split(0)
        assert split.cold_fraction == 0.0
        assert hierarchy.cold_bytes(0) == 0.0
        assert hierarchy.cold_fraction(0) == 0.0
        assert hierarchy.evictions == []


class TestClusterPartition:
    @pytest.mark.parametrize("num_banks", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("num_clusters", [1, 3, 4, 5, 17, 5_000, 12_345])
    def test_closed_form_counts_are_the_listed_clusters_counts(
        self, num_clusters, num_banks
    ):
        """``c -> c % num_banks`` counted per bank without listing the clusters.

        The reference lists every cluster and bins it; the shares derived
        from either count vector must be the same floats, bit for bit.
        """
        counts = np.bincount(np.arange(num_clusters) % num_banks, minlength=num_banks)
        prefix = np.cumsum(counts) / num_clusters
        for total_bytes in (float(num_clusters), 4.0 * GiB + 7.0):
            listed = np.diff(np.concatenate([[0.0], prefix * total_bytes]))
            shares = partition_by_cluster(num_clusters, num_banks, total_bytes)
            assert shares.tobytes() == listed.tobytes()
            assert shares.sum() == total_bytes
        # at one byte per cluster the shares are the counts themselves
        per_cluster = partition_by_cluster(num_clusters, num_banks, float(num_clusters))
        assert np.array_equal(np.rint(per_cluster), counts)


class _LastUseOracle:
    """The memory plane's eviction semantics as a global scan, kept as a test oracle.

    Tracks its own last-use clock beside the hierarchy and derives each
    promotion's demotions by brute force: every bank's warm unprotected
    sessions sorted by ``(last_used, session_id)``, taken until the
    promotion fits.  The plane never scans its sessions — each bank keeps
    an index of its residents in last-use order — so agreement here is
    the proof that the index *is* this scan: same members, same bytes,
    same order, including a session promoted without a touch, which must
    be filed between older and newer residents rather than at the end.
    """

    def __init__(self, hierarchy: ShardedKVHierarchy, specs):
        self.hierarchy = hierarchy
        self.clock = 0
        self.last_used: dict[int, int] = {}
        self.home = {}
        for session_id, (offloaded, _hot, clusters, hc) in enumerate(specs):
            offchip = offloaded + hc
            self.home[session_id] = (
                partition_by_cluster(clusters, hierarchy.num_banks, offchip)
                if offchip > 0
                else np.zeros(hierarchy.num_banks)
            )
            self.use(session_id)  # registration counts as a use

    def use(self, session_id: int) -> None:
        self.last_used[session_id] = self.clock
        self.clock += 1

    def expected_evictions(self, session_id, protected) -> list[EvictionRecord]:
        hierarchy = self.hierarchy
        exclude = set(protected) | {session_id}
        warm = {sid: warm_bytes(hierarchy, sid) for sid in sorted(self.home)}
        occupancy = bank_occupancy_bytes(hierarchy)
        expected = []
        for bank in range(hierarchy.num_banks):
            home = self.home[session_id][bank]
            need = home - warm[session_id][bank]
            if need <= home * _COLD_SNAP_REL:
                continue
            headroom = hierarchy.bank_budget_bytes - occupancy[bank]
            candidates = sorted(
                (sid for sid in warm if sid not in exclude and warm[sid][bank] > 0),
                key=lambda sid: (self.last_used[sid], sid),
            )
            freed = 0.0
            victims = []
            for sid in candidates:
                if headroom + freed >= need:
                    break
                victims.append(EvictionRecord(sid, bank, float(warm[sid][bank])))
                freed += float(warm[sid][bank])
            if min(need, headroom + freed) > 0:
                expected.extend(victims)
        return expected


class TestOneEvictionPlan:
    @given(
        num_banks=st.integers(min_value=1, max_value=8),
        # banks hold several mean-sized shards: promotions need several
        # victims, and a promoted-but-untouched session lands mid-bank
        budget_shards=st.floats(min_value=0.5, max_value=8.0),
        specs=st.lists(
            st.tuples(
                st.floats(min_value=1e6, max_value=1e9),  # offloaded
                st.just(0.0),  # hot
                st.integers(min_value=1, max_value=64),  # clusters
                st.floats(min_value=0.0, max_value=1e6),  # hc tables
            ),
            min_size=3,
            max_size=24,
        ),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["touch", "promote", "commit"]),
                st.integers(0, 23),
                st.frozensets(st.integers(0, 23), max_size=3),
            ),
            min_size=8,
            max_size=40,
        ),
    )
    def test_plans_are_pure_and_victims_leave_in_lru_order(
        self, num_banks, budget_shards, specs, ops
    ):
        mean_shard = sum(spec[0] + spec[3] for spec in specs) / (len(specs) * num_banks)
        hierarchy = _build((num_banks, budget_shards * mean_shard), specs)
        oracle = _LastUseOracle(hierarchy, specs)
        sessions = range(len(specs))
        for op, index, protected in ops:
            session = index % len(specs)
            if op == "touch":
                hierarchy.touch(session)
                oracle.use(session)
                continue
            if op == "commit":
                oracle.use(session)  # commit_fetch touches, then promotes
                cold = hierarchy.fetch_split(session).cold_fraction > 0.0
                expected = (
                    oracle.expected_evictions(session, protected) if cold else []
                )
                already = len(hierarchy.evictions)
                hierarchy.commit_fetch(session, protected=protected)
                assert hierarchy.evictions[already:] == expected
                continue
            expected = oracle.expected_evictions(session, protected)
            version = hierarchy.occupancy_version
            occupancy = bank_occupancy_bytes(hierarchy)
            warm = [warm_bytes(hierarchy, sid) for sid in sessions]
            already = len(hierarchy.evictions)

            plan = hierarchy.plan_promotion(session, protected)
            # planning mutates nothing
            assert hierarchy.occupancy_version == version
            assert len(hierarchy.evictions) == already
            assert np.array_equal(bank_occupancy_bytes(hierarchy), occupancy)
            for sid in sessions:
                assert np.array_equal(warm_bytes(hierarchy, sid), warm[sid])
            # the plan names the oracle's victims, in the oracle's order
            planned = [
                EvictionRecord(sid, bank, bytes_out)
                for bank, _gain, victims in plan.steps
                for sid, bytes_out in victims
            ]
            assert planned == expected
            # the plan's total is a left fold from 0.0 in step order (builtin
            # sum() compensates float items on CPython >= 3.12, so it is no
            # oracle for an exact comparison)
            promoted = 0.0
            for _, gain, _ in plan.steps:
                promoted += gain
            assert plan.promoted_bytes == promoted

            # applying does exactly what was planned
            assert hierarchy.apply_promotion(plan) == plan.promoted_bytes
            assert hierarchy.evictions[already:] == expected
            gained = warm_bytes(hierarchy, session).sum() - warm[session].sum()
            assert gained == pytest.approx(plan.promoted_bytes, rel=1e-9, abs=1e-3)
            hierarchy.sanity_check()

    def test_untouched_promotion_is_filed_between_older_and_newer_residents(self):
        """The admission path: a session promoted *before* it is touched.

        Two banks of 500 bytes; every session homes half its bytes in each.
        Sessions 0-4 (100 bytes a bank) fill both banks, session 5 registers
        cold behind them and sessions 3 and 4 are touched afterwards, so in
        last-use order 5 sits after 0, 1, 2 and before 3, 4.  Promoting 5
        with 0 and 1 protected evicts 2 and must file 5 *between* the two
        older residents and the two newer ones — an index that appended it
        would evict it last, one that kept 2 would evict it again.
        """
        specs = [(200.0, 0.0, 2, 0.0)] * 6 + [(1000.0, 0.0, 2, 0.0)]
        hierarchy = _build((2, 500.0), specs)
        oracle = _LastUseOracle(hierarchy, specs)
        for session in (3, 4):
            hierarchy.touch(session)
            oracle.use(session)
        assert hierarchy.cold_fraction(5) == 1.0 and hierarchy.cold_fraction(6) == 1.0

        expected = oracle.expected_evictions(5, protected={0, 1})
        assert expected == [EvictionRecord(2, 0, 100.0), EvictionRecord(2, 1, 100.0)]
        assert hierarchy.promote(5, protected={0, 1}) == 200.0
        assert hierarchy.evictions == expected

        # session 6 needs both banks whole: everyone leaves, oldest use first
        expected = oracle.expected_evictions(6, protected=())
        assert [(e.session_id, e.bank) for e in expected] == [
            (session, bank) for bank in (0, 1) for session in (0, 1, 5, 3, 4)
        ]
        plan = hierarchy.plan_promotion(6)
        assert [
            EvictionRecord(sid, bank, bytes_out)
            for bank, _gain, victims in plan.steps
            for sid, bytes_out in victims
        ] == expected
        assert hierarchy.apply_promotion(plan) == 1000.0
        hierarchy.sanity_check()

    def test_planning_cost_does_not_scale_with_cold_sessions(self):
        """A plan walks the bank's residents, not every registered session.

        Eight sessions fill four banks; 2 000 more register fully cold
        behind them and the residents are touched afterwards, so a scan in
        last-use order would pass every cold session before reaching the
        first victim.  The plan must name the same victims as on the
        eight-session plane and take about as long (a scan is two orders
        of magnitude over; the 5x margin is for timer noise).
        """

        def plane(cold_sessions: int) -> ShardedKVHierarchy:
            hierarchy = ShardedKVHierarchy(num_banks=4, bank_budget_bytes=800.0)
            for session in range(8):
                hierarchy.register(session, 400.0, num_clusters=4)
            for session in range(9, 9 + cold_sessions):
                hierarchy.register(session, 400.0, num_clusters=4)
            hierarchy.register(8, 1200.0, num_clusters=4)  # the promoted one
            for session in range(8):
                hierarchy.touch(session)
            return hierarchy

        def best_plan_s(hierarchy: ShardedKVHierarchy) -> float:
            best = math.inf
            for _ in range(7):
                start = time.perf_counter()  # simlint: ignore[SIM002] — host cost is the claim
                for _ in range(200):
                    hierarchy.plan_promotion(8, protected=(0,))
                elapsed = time.perf_counter() - start  # simlint: ignore[SIM002] — as above
                best = min(best, elapsed)
            return best

        small, large = plane(0), plane(2_000)
        assert large.cold_fraction(2_008) == 1.0
        steps = small.plan_promotion(8, protected=(0,)).steps
        assert [[sid for sid, _ in victims] for _, _, victims in steps] == [[1, 2, 3]] * 4
        assert large.plan_promotion(8, protected=(0,)).steps == steps
        assert best_plan_s(large) <= 5.0 * best_plan_s(small)

    def test_reapplied_plan_is_refused_unarmed(self, monkeypatch):
        """Applying one plan twice must raise, not corrupt the plane.

        One 1 GiB bank: sessions 0 and 1 hold 0.75 GiB each, session 2
        0.5 GiB, so session 1 registers 0.5 GiB cold.  Re-applying its
        promotion plan evicted the victim a second time (deleting session
        1's own index entry) and promoted past home — session 1 at 1.25 GiB
        warm of a 0.75 GiB home, the bank reporting 0.5 GiB — with nothing
        raised until a later ``sanity_check``.
        """
        monkeypatch.delenv(ENV_VAR, raising=False)
        hierarchy = ShardedKVHierarchy(num_banks=1, bank_budget_bytes=GiB)
        hierarchy.register(0, 0.75 * GiB)
        hierarchy.register(1, 0.75 * GiB)
        hierarchy.register(2, 0.5 * GiB)
        plan = hierarchy.plan_promotion(1)
        assert hierarchy.apply_promotion(plan) == 0.5 * GiB
        state = (
            hierarchy.occupancy_version,
            bank_occupancy_bytes(hierarchy).tolist(),
            [warm_bytes(hierarchy, sid).tolist() for sid in range(3)],
            list(hierarchy.evictions),
        )
        with pytest.raises(
            ValueError,
            match="stale promotion plan for session 1: planned at occupancy "
            "version 3, applied at 4",
        ):
            hierarchy.apply_promotion(plan)
        assert state == (
            hierarchy.occupancy_version,
            bank_occupancy_bytes(hierarchy).tolist(),
            [warm_bytes(hierarchy, sid).tolist() for sid in range(3)],
            list(hierarchy.evictions),
        )
        assert state[2] == [[0.0], [0.75 * GiB], [0.0]]
        hierarchy.sanity_check()


class TestNumpyFloatOrder:
    @given(
        num_banks=st.integers(min_value=1, max_value=12),
        budget_shards=st.floats(min_value=0.3, max_value=4.0),
        specs=st.lists(
            st.tuples(
                st.floats(min_value=1e6, max_value=1e9),  # offloaded
                st.integers(min_value=1, max_value=64),  # clusters
                st.floats(min_value=0.0, max_value=1e6),  # hc tables
            ),
            min_size=2,
            max_size=10,
        ),
        ops=st.lists(
            st.tuples(st.sampled_from(["register", "commit", "promote"]), st.integers(0, 9)),
            max_size=30,
        ),
    )
    def test_tier_views_equal_numpy_over_the_public_arrays(
        self, num_banks, budget_shards, specs, ops
    ):
        """Python-float shard state, numpy's bits, at every bank count.

        ``cold_bytes`` must be off-chip minus ``np.sum`` of the warm array
        (snapped as the plane snaps) and the split's fractions the warm
        array over off-chip, compared with ``==``: numpy sums left to
        right below 8 terms and pairwise from 8, so a plain left fold at
        every bank count disagrees from 8 banks on.
        """
        mean_shard = sum(spec[0] + spec[2] for spec in specs) / (len(specs) * num_banks)
        hierarchy = ShardedKVHierarchy(
            num_banks=num_banks, bank_budget_bytes=budget_shards * mean_shard
        )
        registered = 0
        for op, index in [("register", 0), *ops]:
            if op == "register":
                if registered < len(specs):
                    offloaded, clusters, hc = specs[registered]
                    hierarchy.register(
                        registered, offloaded, num_clusters=clusters, hc_table_bytes=hc
                    )
                    registered += 1
            elif op == "commit":
                hierarchy.commit_fetch(index % registered)
            else:
                hierarchy.promote(index % registered)
            for session in range(registered):
                warm = warm_bytes(hierarchy, session)
                offchip = hierarchy.offchip_bytes(session)
                cold = offchip - float(np.sum(warm))
                if cold <= offchip * _COLD_SNAP_REL:
                    cold = 0.0
                assert hierarchy.cold_bytes(session) == cold
                split = hierarchy.fetch_split(session)
                assert split.warm_fractions == tuple((warm / offchip).tolist())
                assert split.cold_fraction == cold / offchip


class TestShardedFetchMakespan:
    @given(
        total_mib=st.floats(min_value=0.1, max_value=512.0, allow_nan=False),
        clusters_per_8=st.integers(min_value=1, max_value=64),
        contiguous_kib=st.floats(min_value=1.0, max_value=512.0, allow_nan=False),
        from_ssd=st.booleans(),
        link=st.sampled_from([PCIE3_X4, PCIE4_X16]),
    )
    def test_makespan_monotone_in_bank_count_for_aligned_layouts(
        self, total_mib, clusters_per_8, contiguous_kib, from_ssd, link
    ):
        """More banks never slow a cluster-aligned fetch down."""
        kvmu = KVMUModel(PCIeLink(link))
        total_bytes = total_mib * 1024**2
        num_clusters = clusters_per_8 * 8  # aligned with every tested bank count
        work = KVFetchWork(total_bytes, contiguous_kib * 1024.0, from_ssd=from_ssd)
        times = []
        for num_banks in (1, 2, 4, 8):
            hierarchy = ShardedKVHierarchy(num_banks=num_banks)
            hierarchy.register(0, total_bytes, num_clusters=num_clusters)
            times.append(kvmu.sharded_fetch_time_s(work, hierarchy.fetch_split(0)))
        for wider, narrower in zip(times[1:], times, strict=False):
            assert wider <= narrower * (1 + 1e-12)

    @given(
        total_mib=st.floats(min_value=0.1, max_value=512.0, allow_nan=False),
        num_clusters=st.integers(min_value=8, max_value=200),
        contiguous_kib=st.floats(min_value=1.0, max_value=512.0, allow_nan=False),
    )
    def test_makespan_monotone_for_unaligned_layouts_too(
        self, total_mib, num_clusters, contiguous_kib
    ):
        """The ``c % N`` mapping leaves the fullest bank with ``ceil(C/N)``
        clusters, which is non-increasing in N even when N does not divide
        C — so (with the cold-fraction snap in place) monotonicity is not
        limited to aligned layouts."""
        kvmu = KVMUModel(PCIeLink(PCIE4_X16))
        total_bytes = total_mib * 1024**2
        work = KVFetchWork(total_bytes, contiguous_kib * 1024.0)
        times = []
        for num_banks in (1, 2, 4, 8):
            hierarchy = ShardedKVHierarchy(num_banks=num_banks)
            hierarchy.register(0, total_bytes, num_clusters=num_clusters)
            times.append(kvmu.sharded_fetch_time_s(work, hierarchy.fetch_split(0)))
        for wider, narrower in zip(times[1:], times, strict=False):
            assert wider <= narrower * (1 + 1e-12)

    @given(
        total_mib=st.floats(min_value=0.1, max_value=512.0, allow_nan=False),
        contiguous_kib=st.floats(min_value=1.0, max_value=512.0, allow_nan=False),
        from_ssd=st.booleans(),
    )
    def test_single_bank_split_prices_exactly_like_unsharded_fetch(
        self, total_mib, contiguous_kib, from_ssd
    ):
        kvmu = KVMUModel(PCIeLink(PCIE4_X16))
        work = KVFetchWork(total_mib * 1024**2, contiguous_kib * 1024.0, from_ssd)
        split = ShardSplit(warm_fractions=(1.0,), cold_fraction=0.0)
        assert kvmu.sharded_fetch_time_s(work, split) == kvmu.fetch_time_s(work)

    @given(
        total_mib=st.floats(min_value=0.1, max_value=512.0, allow_nan=False),
        cold_fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_cold_shards_never_speed_a_fetch_up(self, total_mib, cold_fraction):
        """On a CPU-offload link, demoting shards to SSD cannot help."""
        kvmu = KVMUModel(PCIeLink(PCIE4_X16))
        total_bytes = total_mib * 1024**2
        work = KVFetchWork(total_bytes, 256 * 1024.0, from_ssd=False)
        warm_split = ShardSplit(warm_fractions=(1.0,), cold_fraction=0.0)
        mixed_split = ShardSplit(
            warm_fractions=(1.0 - cold_fraction,), cold_fraction=cold_fraction
        )
        mixed = kvmu.sharded_fetch_time_s(work, mixed_split)
        # pricing the cold share on the SSD tier can only be slower than
        # pricing the same share on the warm CPU path (max(pcie, ssd) >= pcie)
        same_split_all_warm = sharded_fetch_makespan(
            work.total_bytes,
            mixed_split,
            lambda b: kvmu.fetch_time_s(KVFetchWork(b, work.mean_contiguous_bytes)),
            lambda b: kvmu.fetch_time_s(KVFetchWork(b, work.mean_contiguous_bytes)),
        )
        assert mixed >= same_split_all_warm * (1 - 1e-12)
        # a fully-warm single bank prices exactly like the unsharded fetch
        assert kvmu.sharded_fetch_time_s(work, warm_split) == kvmu.fetch_time_s(work)
        assert sharded_fetch_makespan(0.0, mixed_split, lambda b: b, lambda b: b) == 0.0


class TestAdmissionPermutationInvariance:
    SYSTEM = server_systems(default_llm_workload().model_bytes())["V-Rex48"]
    PLANE = BatchLatencyModel(
        memory=ShardedKVHierarchy(num_banks=2, bank_budget_bytes=6.0 * GiB)
    )

    @given(
        order=st.permutations(list(range(4))),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=15, deadline=None)
    def test_admission_decisions_independent_of_listing_order(self, order, seed):
        """Admit/defer/evict outcomes are keyed on sessions, not list slots."""
        from repro.sim.arrivals import BurstyArrivals

        profiles = [
            StreamProfile(kv_len=40_000, session_id=index) for index in range(4)
        ]
        solo = self.PLANE.frame_step(self.SYSTEM, profiles[:1]).streams[0].total_s
        traces = BurstyArrivals(burst_rate_hz=30.0, mean_idle_s=0.2).generate(
            4, 4, seed=seed
        )
        config = SchedulerConfig(
            deadline_s=2.0 * solo, max_queue_depth=2, admission="residency"
        )
        scheduler = ServingScheduler(self.PLANE, config)
        baseline = scheduler.run(self.SYSTEM, profiles, traces)
        permuted = scheduler.run(
            self.SYSTEM,
            [profiles[i] for i in order],
            [traces[i] for i in order],
        )

        def by_session(result):
            outcomes: dict[int, list] = {}
            for record in result.records:
                outcomes.setdefault(record.session_id, []).append(
                    (record.kind, record.job_index, record.admission, record.dropped)
                )
            return outcomes

        assert by_session(baseline) == by_session(permuted)
        for session_id in range(4):
            base_sojourns = [
                r.sojourn_s
                for r in baseline.records
                if r.session_id == session_id and not r.dropped
            ]
            perm_sojourns = [
                r.sojourn_s
                for r in permuted.records
                if r.session_id == session_id and not r.dropped
            ]
            assert base_sojourns == pytest.approx(perm_sojourns, rel=1e-9)
