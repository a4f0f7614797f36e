"""Sharded device-memory plane: offloaded KV shards across memory banks.

The KVMU's cluster-wise mapping (:mod:`repro.hw.memory.hierarchy`) lays a
*single* offload target out so that retrieving a cluster is one contiguous
transfer.  A production deployment has several such targets — CPU memory
banks, NUMA nodes, peer devices — and a single 40k+-token stream's
offloaded cache can exceed any one of them.  :class:`ShardedKVHierarchy`
partitions each session's offloaded KV cache (and its HC tables) across
``num_banks`` banks using the **cluster id as the partitioning key**
(cluster ``c`` lives in bank ``c % num_banks``), so one cluster's tokens
never straddle banks and a retrieval fans out into at most one contiguous
transfer per bank, served in parallel.

Three tiers are modelled:

* **hot** — tokens resident in device DRAM (the per-stream
  ``kv_device_budget_bytes`` window).  Hot bytes are owned by the device's
  own hierarchy and are *never* touched by bank eviction.
* **warm** — offloaded shards currently held in a bank, fetched at the
  system's offload-target pricing (CPU memory or SSD over PCIe).
* **cold** — shards demoted out of a full bank onto the SSD tier, fetched
  at SSD pricing until promoted back.

Banks enforce per-bank capacity budgets.  Registration fills banks
first-come-first-served; **cold-shard eviction** demotes the
least-recently-used sessions' per-bank shards when a later promotion needs
the space.  Recency is a last-use stamp taken at registration and at every
touch, so shard placement — and every admission decision derived from it —
is a function of the fleet and its fetch history, never of the caller's
listing order.  One **recency index** lists the sessions warm in any bank,
least recently used first: a touch moves one entry, a promotion files the
promoted session once, at its own last-use position, and a bank's eviction
order is the index filtered by that bank's warm bytes — so a promotion
walks the warm sessions, never the cold ones.

The degenerate configuration (``num_banks=1`` with the default unbounded
budget) keeps every session fully warm in one bank; the fetch makespan of
that split equals the single-channel fetch time bit for bit, which is how
the batched plane's memory-aware mode and the serving scheduler reproduce
the existing contended and time-sliced results exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Container
from dataclasses import dataclass

import numpy as np

from repro.config import require_number
from repro.devtools.sanitizer import SHARD_CONSERVATION, SanitizerError, sanitize_enabled


@dataclass(frozen=True)
class ShardSplit:
    """How one session's next fetch splits across the memory tiers.

    ``warm_fractions[b]`` is the share of the session's off-chip bytes
    currently warm in bank ``b``; ``cold_fraction`` is the share demoted to
    the SSD tier.  Fractions sum to 1 for a session with off-chip bytes;
    a session with nothing off-chip reports one fully-warm pseudo-bank so
    callers can price the (empty) fetch through the same path.
    """

    warm_fractions: tuple[float, ...]
    cold_fraction: float


@dataclass(frozen=True)
class EvictionRecord:
    """One cold-shard demotion (a session's shard pushed out of a bank)."""

    session_id: int
    bank: int
    bytes: float


@dataclass(frozen=True)
class PromotionPlan:
    """A priced, not yet applied promotion of one session's cold shards.

    ``steps`` holds one ``(bank, gain_bytes, victims)`` entry per bank that
    gains bytes, ``victims`` being the ``(session_id, bytes)`` demotions
    that make the room, least-recently-used first.  A plan is only valid
    for the occupancy it was made against (``occupancy_version``).
    """

    session_id: int
    promoted_bytes: float
    steps: tuple[tuple[int, float, tuple[tuple[int, float], ...]], ...]
    occupancy_version: int


#: Relative slack under which a shard's cold remainder is *zero*: summing
#: per-bank float shares can miss the exact total by a few ulps, and a
#: 1e-16-fraction "cold" share must not price a whole fixed-latency SSD leg.
_COLD_SNAP_REL = 1e-12

#: numpy's float64 sum is a left fold from zero below this many terms and
#: pairwise (unrolled accumulators) from it on
_PAIRWISE_MIN_TERMS = 8


def _fold(values: list[float]) -> float:
    """Sum per-bank bytes in numpy's float64 order, bit for bit.

    Below eight terms a plain loop is numpy's order, without the array
    round trip; from eight on the sum *is* numpy's.  Never the builtin
    ``sum()``, which CPython 3.12 compensates.
    """
    if len(values) >= _PAIRWISE_MIN_TERMS:
        return float(np.sum(values))
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass
class _SessionShards:
    """Internal per-session shard state.

    Per-bank bytes are plain ``list[float]``: every hot-path use is a
    scalar read or write, and scalar float64 arithmetic is the same IEEE
    operation in Python and numpy (sums keep numpy's order via
    :func:`_fold`).  ``cold_bytes`` and the derived :class:`ShardSplit`
    are cached between warm-byte mutations: steady-state fetches
    (everything warm, or a stable cold remainder re-read by the admission
    controller) are the scheduler's hot path, and the cache turns them
    into attribute reads.  The cached values are produced by the exact
    same expressions as the uncached path, so invalidation only ever
    changes *when* the floats are computed, never their values.
    """

    hot_bytes: float
    offchip_bytes: float  # offloaded KV + HC tables (warm + cold)
    home_bytes: list[float]  # cluster-wise home distribution across banks
    warm_bytes: list[float]  # currently held in banks (<= home_bytes)
    last_use: int  # stamp of the registration or latest touch; unique
    _cold_cache: float | None = None
    _split_cache: "ShardSplit | None" = None

    def invalidate(self) -> None:
        """Drop cached tier views after a warm-byte mutation."""
        self._cold_cache = None
        self._split_cache = None

    @property
    def cold_bytes(self) -> float:
        """Bytes on the SSD tier, snapped to zero within float-sum slack."""
        cold = self._cold_cache
        if cold is None:
            cold = self.offchip_bytes - _fold(self.warm_bytes)
            if cold <= self.offchip_bytes * _COLD_SNAP_REL:
                cold = 0.0
            self._cold_cache = cold
        return cold


def partition_by_cluster(
    num_clusters: int, num_banks: int, total_bytes: float
) -> np.ndarray:
    """Cluster-wise home distribution of ``total_bytes`` across banks.

    Cluster ``c`` (of ``num_clusters`` equal-sized clusters) lives in bank
    ``c % num_banks`` — the KVMU cluster-wise mapping extended across
    banks, so a cluster's contiguous layout is preserved inside its bank.
    """
    require_number("num_clusters", num_clusters, minimum=1, integer=True)
    # clusters per bank under c -> c % num_banks, without listing the clusters
    counts = num_clusters // num_banks + (np.arange(num_banks) < num_clusters % num_banks)
    # Telescoping split: bank shares are differences of prefix cuts, so they
    # sum to ``total_bytes`` *exactly* and the single-bank share IS the
    # total (the prefix fraction ends at exactly 1.0) — the bit-for-bit
    # anchor of the degenerate single-bank configuration.
    prefix = np.cumsum(counts) / num_clusters
    return np.diff(prefix * total_bytes, prepend=0.0)


def sharded_fetch_makespan(
    total_bytes: float,
    split: ShardSplit,
    warm_time_s: Callable[[float], float],
    cold_time_s: Callable[[float], float],
) -> float:
    """Makespan of one fetch fanned out across parallel banks.

    Each bank serves its warm share concurrently (one DMA channel per
    bank); the cold share streams from the SSD tier concurrently with
    them.  ``warm_time_s`` / ``cold_time_s`` price one channel's bytes —
    the caller builds them from the same :class:`~repro.hw.dre.kvmu.KVMUModel`
    (or GPU fetch) pricing the unsharded plane uses, so the single-bank
    all-warm split reproduces the single-channel fetch time bit for bit.
    """
    times = [
        warm_time_s(total_bytes * fraction)
        for fraction in split.warm_fractions
        if fraction > 0.0
    ]
    if split.cold_fraction > 0.0:
        times.append(cold_time_s(total_bytes * split.cold_fraction))
    return max(times, default=0.0)


_FULLY_WARM = ShardSplit(warm_fractions=(1.0,), cold_fraction=0.0)


class ShardedKVHierarchy:
    """Partitions sessions' offloaded KV caches across N memory banks.

    Parameters
    ----------
    num_banks:
        Number of parallel memory banks/devices holding offloaded shards.
    bank_budget_bytes:
        Per-bank capacity; ``inf`` (the default) never demotes anything.
    """

    def __init__(
        self,
        num_banks: int = 1,
        bank_budget_bytes: float = math.inf,
    ):
        require_number("num_banks", num_banks, minimum=1, integer=True)
        require_number("bank_budget_bytes", bank_budget_bytes, exclusive=True)
        self.num_banks = int(num_banks)
        self.bank_budget_bytes = float(bank_budget_bytes)
        self._sanitize = sanitize_enabled()
        #: hot-byte snapshot at registration; the hot tier must never move
        self._hot_at_register: dict[int, float] = {}
        self._shards: dict[int, _SessionShards] = {}
        #: last-use stamps handed out so far; the stamp is the one encoding of recency
        self._clock = 0
        #: recency index: the ``(last_use, session_id, shards)`` of every session
        #: warm in any bank, least recently used first, for planning to walk
        self._recency: list[tuple[int, int, _SessionShards]] = []
        self._occupancy = [0.0] * self.num_banks
        self.evictions: list[EvictionRecord] = []
        #: bumped on every occupancy mutation (registration, promotion,
        #: demotion) — lets pollers skip re-reading unchanged occupancy
        self.occupancy_version = 0

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        session_id: int,
        offloaded_bytes: float,
        hot_bytes: float = 0.0,
        num_clusters: int = 1,
        hc_table_bytes: float = 0.0,
    ) -> None:
        """Register one session's shards; banks fill in registration order.

        A session whose home banks are already full keeps the overflow
        cold (on the SSD tier) until :meth:`promote` makes room —
        registration never demotes previously registered sessions.
        """
        if session_id in self._shards:
            raise ValueError(f"session {session_id} is already registered")
        require_number("offloaded_bytes", offloaded_bytes, finite=True)
        require_number("hot_bytes", hot_bytes, finite=True)
        require_number("hc_table_bytes", hc_table_bytes, finite=True)
        offchip = offloaded_bytes + hc_table_bytes
        home = partition_by_cluster(num_clusters, self.num_banks, offchip).tolist()
        occupancy = self._occupancy
        self._clock += 1
        warm = []
        for bank, home_in_bank in enumerate(home):
            warm_in_bank = min(home_in_bank, max(self.bank_budget_bytes - occupancy[bank], 0.0))
            occupancy[bank] += warm_in_bank
            warm.append(warm_in_bank)
        self.occupancy_version += 1
        shard = self._shards[session_id] = _SessionShards(
            hot_bytes=float(hot_bytes),
            offchip_bytes=float(offchip),
            home_bytes=home,
            warm_bytes=warm,
            last_use=self._clock,
        )
        if max(warm) > 0.0:
            self._recency.append((self._clock, session_id, shard))
        if self._sanitize:
            self._hot_at_register[session_id] = float(hot_bytes)
            self.sanity_check()

    def _shard(self, session_id: int) -> _SessionShards:
        try:
            return self._shards[session_id]
        except KeyError:
            raise KeyError(
                f"session {session_id} is not registered with the memory plane"
            ) from None

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def offchip_bytes(self, session_id: int) -> float:
        """Total off-chip bytes of a session (warm + cold)."""
        return self._shard(session_id).offchip_bytes

    def cold_bytes(self, session_id: int) -> float:
        """Bytes demoted to the SSD tier."""
        return self._shard(session_id).cold_bytes

    def cold_fraction(self, session_id: int) -> float:
        """Cold share of a session's off-chip bytes (0.0 if nothing off-chip).

        Written as ``1 - warm share`` so it rounds exactly as admission's
        hot read always has.
        """
        shard = self._shard(session_id)
        if shard.offchip_bytes <= 0.0:
            return 0.0
        return 1.0 - (1.0 - shard.cold_bytes / shard.offchip_bytes)

    def occupancy_snapshot(self) -> tuple[float, ...]:
        """Current warm bytes per bank as a tuple of floats (what trajectories record)."""
        return tuple(self._occupancy)

    def fetch_split(self, session_id: int) -> ShardSplit:
        """Read-only tier split a fetch issued *now* would see.

        A fetch touches the session's shards proportionally (selection is
        spread across clusters, clusters are spread across banks), so the
        per-bank shares are the warm-byte fractions and the remainder is
        served cold.  A session with nothing off-chip reports the
        degenerate fully-warm single-channel split.
        """
        shard = self._shard(session_id)
        split = shard._split_cache
        if split is not None:
            return split
        offchip = shard.offchip_bytes
        if offchip <= 0.0:
            shard._split_cache = _FULLY_WARM
            return _FULLY_WARM
        split = ShardSplit(
            warm_fractions=tuple([warm / offchip for warm in shard.warm_bytes]),
            # derived from the byte-level remainder (snapped within float-sum
            # slack), never from 1 - sum(fractions): a fully-warm session
            # must not price a spurious 1e-16-fraction SSD leg
            cold_fraction=shard.cold_bytes / offchip,
        )
        shard._split_cache = split
        return split

    def home_split(self, session_id: int) -> ShardSplit:
        """The split a fully-promoted fetch would see (all shards home-warm).

        The admission controller prices "what would this stream cost if
        eviction made it warm?" with this split before deciding to evict.
        """
        shard = self._shard(session_id)
        offchip = shard.offchip_bytes
        if offchip <= 0:
            return _FULLY_WARM
        return ShardSplit(
            warm_fractions=tuple([home / offchip for home in shard.home_bytes]),
            cold_fraction=0.0,
        )

    # ------------------------------------------------------------------ #
    # dynamics
    # ------------------------------------------------------------------ #
    def touch(self, session_id: int) -> None:
        """Mark a session most-recently-used (eviction prefers older ones)."""
        shard = self._shard(session_id)
        stale = shard.last_use
        self._clock += 1
        shard.last_use = self._clock
        # a session is in the recency index iff it is warm in some bank
        recency = self._recency
        at = bisect_left(recency, (stale,))
        if at < len(recency) and recency[at][0] == stale:
            del recency[at]
            recency.append((self._clock, session_id, shard))

    def plan_promotion(
        self, session_id: int, protected: Container[int] = ()
    ) -> PromotionPlan:
        """Price pulling a session's cold shards back into their home banks.

        Pure: nothing is mutated.  Per bank, the plan demotes the
        least-recently-used unprotected sessions' shards (whole per-bank
        shards at a time — the cluster-contiguous layout is rebuilt per
        shard, not per token) until the promotion fits or no victims
        remain; whatever still does not fit stays cold.  Hot bytes are
        never touched: demotion only ever moves warm bank bytes to the
        cold tier.  The admission controller's "would eviction make this
        stream warm?" probe; :meth:`apply_promotion` carries the plan out.
        """
        shard = self._shard(session_id)
        home = shard.home_bytes
        warm = shard.warm_bytes
        occupancy = self._occupancy
        promoted = 0.0
        steps = []
        for bank in range(self.num_banks):
            need = home[bank] - warm[bank]
            if need <= home[bank] * _COLD_SNAP_REL:
                continue  # home-warm within float slack: nothing to promote
            headroom = self.bank_budget_bytes - occupancy[bank]
            freed = 0.0
            victims: list[tuple[int, float]] = []
            if headroom < need:
                # the bank's residents: the recency index filtered by its warm bytes
                for _, sid, resident in self._recency:
                    bytes_out = resident.warm_bytes[bank]
                    if bytes_out <= 0.0 or sid == session_id or sid in protected:
                        continue
                    victims.append((sid, bytes_out))
                    freed += bytes_out
                    if headroom + freed >= need:
                        break
            gain = min(need, headroom + freed)
            if gain <= 0.0:
                continue
            promoted += gain
            steps.append((bank, gain, tuple(victims)))
        return PromotionPlan(session_id, promoted, tuple(steps), self.occupancy_version)

    def apply_promotion(self, plan: PromotionPlan) -> float:
        """Carry out a plan made against the current occupancy.

        Banks are independent (a step reads and writes only its own bank's
        occupancy and warm bytes), so applying the steps after planning
        them all is the same float sequence as planning and applying bank
        by bank.  Returns the promoted byte count.  A plan made against
        another occupancy raises ``ValueError`` and mutates nothing: its
        victims and gains no longer describe the banks.
        """
        if plan.occupancy_version != self.occupancy_version:
            raise ValueError(
                f"stale promotion plan for session {plan.session_id}: planned at "
                f"occupancy version {plan.occupancy_version}, applied at "
                f"{self.occupancy_version}"
            )
        shards = self._shards
        shard = shards[plan.session_id]
        occupancy = self._occupancy
        recency = self._recency
        for bank, gain, victims in plan.steps:
            self.occupancy_version += 1
            for sid, bytes_out in victims:
                victim = shards[sid]
                victim.warm_bytes[bank] = 0.0
                victim.invalidate()
                if max(victim.warm_bytes) <= 0.0:  # cold in every bank now
                    del recency[bisect_left(recency, (victim.last_use,))]
                occupancy[bank] -= bytes_out
                self.evictions.append(EvictionRecord(sid, bank, bytes_out))
            shard.warm_bytes[bank] += gain
            shard.invalidate()
            occupancy[bank] += gain
        if plan.steps:
            # a session warm nowhere until now enters at its own last-use
            # position (an untouched one between older and newer entries)
            at = bisect_left(recency, (shard.last_use,))
            if at == len(recency) or recency[at][1] != plan.session_id:
                recency.insert(at, (shard.last_use, plan.session_id, shard))
        if self._sanitize:
            self.sanity_check()
        return plan.promoted_bytes

    def promote(self, session_id: int, protected: Container[int] = ()) -> float:
        """Plan and apply a promotion in one step; returns the promoted bytes."""
        return self.apply_promotion(self.plan_promotion(session_id, protected))

    def commit_fetch(
        self, session_id: int, protected: Container[int] = ()
    ) -> ShardSplit:
        """Record one fetch: returns the split it was served at, then warms it.

        The fetch itself pays the *current* split (cold shards stream from
        the SSD tier); afterwards the fetched shards are promoted back
        into their home banks — evicting colder unprotected shards if
        needed — and the session becomes most-recently-used.
        """
        split = self.fetch_split(session_id)
        self.touch(session_id)
        if split.cold_fraction > 0.0:
            self.promote(session_id, protected=protected)
        return split

    # ------------------------------------------------------------------ #
    # sanitizer
    # ------------------------------------------------------------------ #
    def sanity_check(self) -> None:
        """Assert shard-byte conservation across every registered session.

        Checks — run automatically after each mutation when sanitizing,
        callable directly from tests:

        * per-session warm bytes are non-negative and never exceed the
          home distribution (warm + cold telescopes back to off-chip);
        * the hot tier is byte-for-byte what registration installed —
          eviction must never touch device DRAM;
        * bank occupancy equals the per-session warm sums (to float
          accumulation slack) and respects the bank budget;
        * the recency index lists exactly the sessions warm in some bank,
          with their current last-use stamps, in last-use order.

        Raises :class:`~repro.devtools.sanitizer.SanitizerError` with code
        ``shard-conservation`` on the first violated invariant.
        """
        expected = np.zeros(self.num_banks)
        for sid in sorted(self._shards):
            shard = self._shards[sid]
            warm = np.array(shard.warm_bytes)
            home = np.array(shard.home_bytes)
            atol = 1e-6 + 1e-9 * shard.offchip_bytes
            if (warm < 0).any():
                raise SanitizerError(
                    SHARD_CONSERVATION,
                    f"session {sid}: negative warm bytes {warm.min()} "
                    f"in bank {int(warm.argmin())}",
                )
            if (warm > home + atol).any():
                bank = int((warm - home).argmax())
                raise SanitizerError(
                    SHARD_CONSERVATION,
                    f"session {sid}: bank {bank} holds {warm[bank]} warm bytes, "
                    f"more than its home share {home[bank]}",
                )
            warm_total = float(warm.sum())
            if warm_total > shard.offchip_bytes + atol:
                raise SanitizerError(
                    SHARD_CONSERVATION,
                    f"session {sid}: warm bytes {warm_total} exceed off-chip "
                    f"total {shard.offchip_bytes} (bytes created from nothing)",
                )
            hot_expected = self._hot_at_register.get(sid, shard.hot_bytes)
            # simlint: exact — the hot tier must be byte-for-byte untouched
            if shard.hot_bytes != hot_expected:
                raise SanitizerError(
                    SHARD_CONSERVATION,
                    f"session {sid}: hot tier changed from {hot_expected} to "
                    f"{shard.hot_bytes} bytes (hot shards must never be evicted)",
                )
            expected += warm
        occupancy = np.array(self._occupancy)
        occ_atol = 1e-6 + 1e-9 * float(expected.max(initial=0.0))
        if not np.allclose(occupancy, expected, rtol=1e-9, atol=occ_atol):
            bank = int(np.abs(occupancy - expected).argmax())
            raise SanitizerError(
                SHARD_CONSERVATION,
                f"bank {bank} occupancy {occupancy[bank]} disagrees with "
                f"per-session warm sum {expected[bank]}",
            )
        if (occupancy > self.bank_budget_bytes + occ_atol).any():
            bank = int(occupancy.argmax())
            raise SanitizerError(
                SHARD_CONSERVATION,
                f"bank {bank} occupancy {occupancy[bank]} exceeds budget "
                f"{self.bank_budget_bytes}",
            )
        indexed = [
            (stamp, sid, shard is self._shards.get(sid)) for stamp, sid, shard in self._recency
        ]
        warm_anywhere = sorted(
            (shard.last_use, sid, True)
            for sid, shard in self._shards.items()
            if max(shard.warm_bytes) > 0
        )
        if indexed != warm_anywhere:
            raise SanitizerError(
                SHARD_CONSERVATION,
                f"recency index {indexed} is not the sessions warm in some bank as "
                f"(last_use, session, own shards) in last-use order {warm_anywhere}",
            )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def clone_empty(self) -> "ShardedKVHierarchy":
        """A fresh hierarchy with the same bank configuration, no sessions."""
        return ShardedKVHierarchy(self.num_banks, self.bank_budget_bytes)
