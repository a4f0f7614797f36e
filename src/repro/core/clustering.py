"""Hamming-distance clustering and the hash cluster (HC) table.

Paper Sec. IV-B: tokens whose hash-bit signatures differ by fewer than
``Th_hd`` bits are grouped into a cluster.  Each cluster keeps

* the indices of its member tokens,
* a representative key (``Key_cluster``) — the running mean of member keys,
* a representative hash-bit signature (majority vote of member bits),
* the member count (``Token Count``),

which is exactly the HC-table layout in Fig. 8/10.  The table is maintained
per decoder layer and per KV head.

Storage layout
--------------
The engine is *lane-batched*, like the DRE's bank of parallel HCU lanes:
:class:`HashClusterLanes` holds the tables of one decoder layer as
struct-of-arrays whose leading axis is the lane (one lane per KV head).
Packed ``uint64`` representative signatures, per-bit vote tallies, token
counts and key sums are ``(lanes, capacity, ...)`` arrays that grow
geometrically; ``live[lane]`` slots of a lane are in use, so lanes may
hold different numbers of clusters.  :class:`HashClusterTable` is the
per-(layer, head) handle: a view of one lane, which owns a one-lane store
when constructed standalone.

Clustering is *order dependent* within a lane by construction (each
insertion can move a cluster's majority-vote signature before the next
token is matched), so a chunk is one arrival-order walk; lanes are
independent, so every step of the walk advances all lanes with one batched
XOR + popcount, ``argmin`` and scatter — the 64-bit datapath the HCU
implements — instead of one Python round-trip per head.
"""

from __future__ import annotations

import numpy as np

from repro.core.hashbit import pack_bits_u64, popcount_u64, words_for_bits
from repro.devtools.sanitizer import TABLE_CONSERVATION, SanitizerError, sanitize_enabled

_MIN_CAPACITY = 16


def _grown(array: np.ndarray, axis: int, needed: int) -> np.ndarray:
    """``array`` itself if ``axis`` holds ``needed`` entries, else a zero-padded doubled copy."""
    capacity = array.shape[axis]
    if needed <= capacity:
        return array
    shape = list(array.shape)
    shape[axis] = max(needed, _MIN_CAPACITY, capacity * 2)
    grown = np.zeros(shape, dtype=array.dtype)
    grown[(slice(None),) * axis + (slice(capacity),)] = array
    return grown


class HashClusterLanes:
    """The HC tables of ``lanes`` independent lanes (a layer's KV heads) in one store.

    All lanes observe the same tokens (same ids, same arrival order) and
    cluster them independently, each against its own keys and signatures.
    """

    def __init__(self, lanes: int, head_dim: int, n_bits: int, hamming_threshold: int):
        # A threshold of -1 disables clustering entirely (every token becomes
        # its own cluster) — used by the "ReSV without clustering" ablation.
        if hamming_threshold < -1:
            raise ValueError("hamming_threshold must be >= -1")
        self.lanes = lanes
        self.head_dim = head_dim
        self.n_bits = n_bits
        self.hamming_threshold = hamming_threshold
        self.num_tokens = 0
        #: live cluster count per lane; slots ``[0:live[lane]]`` are in use
        self.live = np.zeros(lanes, dtype=np.int64)
        words = words_for_bits(n_bits)
        self._signatures = np.zeros((lanes, 0, words), dtype=np.uint64)
        # Per-bit tally of member votes, +1 for a set bit and -1 for a clear
        # one: the representative bit is set while the tally is >= 0, which
        # is the majority rule ``2 * set_votes >= count`` without the count.
        self._votes = np.zeros((lanes, 0, n_bits), dtype=np.int32)
        self._counts = np.zeros((lanes, 0), dtype=np.int64)
        self._key_sums = np.zeros((lanes, 0, head_dim), dtype=np.float64)
        # Per-token state in insertion order; token ids are shared by all lanes.
        self._token_ids = np.zeros((0,), dtype=np.int64)
        self._assignments = np.zeros((lanes, 0), dtype=np.int64)
        self._pack_pad = np.zeros((lanes, 64 * words), dtype=bool)
        self._sanitize = sanitize_enabled()

    def table(self, lane: int) -> HashClusterTable:
        """The per-head handle of one lane."""
        view = HashClusterTable.__new__(HashClusterTable)
        view._store = self
        view._lane = lane
        return view

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #
    def update(
        self, keys: np.ndarray, hash_bits: np.ndarray, token_indices: np.ndarray
    ) -> np.ndarray:
        """Insert one chunk of tokens into every lane.

        ``keys`` is ``(lanes, new_tokens, head_dim)``, ``hash_bits`` their
        ``(lanes, new_tokens, n_bits)`` signatures and ``token_indices`` the
        tokens' non-negative indices in the layer's KV cache, shared by all
        lanes.  Returns the cluster index assigned to each new token,
        ``(lanes, new_tokens)``.
        """
        keys = np.asarray(keys, dtype=np.float64)
        hash_bits = np.asarray(hash_bits, dtype=bool)
        token_indices = np.asarray(token_indices, dtype=np.int64)
        lanes = self.lanes
        if keys.ndim != 3 or keys.shape[0] != lanes or keys.shape[2] != self.head_dim:
            raise ValueError(
                f"expected keys of shape ({lanes}, n, {self.head_dim}), got {keys.shape}"
            )
        n = keys.shape[1]
        if hash_bits.shape != (lanes, n, self.n_bits):
            raise ValueError(
                f"expected hash_bits of shape ({lanes}, {n}, {self.n_bits}), "
                f"got {hash_bits.shape}"
            )
        if token_indices.shape != (n,):
            raise ValueError("token_indices length must match the number of new keys")
        if n == 0:
            return np.zeros((lanes, 0), dtype=np.int64)
        if int(token_indices.min()) < 0:
            raise ValueError("token_indices must be non-negative")

        # Room for every new token to open a cluster: no growth inside the walk.
        clusters = int(self.live.max()) + n
        if clusters > self._counts.shape[1]:
            self._signatures = _grown(self._signatures, 1, clusters)
            self._votes = _grown(self._votes, 1, clusters)
            self._counts = _grown(self._counts, 1, clusters)
            self._key_sums = _grown(self._key_sums, 1, clusters)
        tokens = self.num_tokens + n
        self._token_ids = _grown(self._token_ids, 0, tokens)
        self._assignments = _grown(self._assignments, 1, tokens)

        assignments = self._place(hash_bits)
        self.live = np.maximum(self.live, assignments.max(axis=1) + 1)
        # Counts and key sums feed no clustering decision, so they are
        # accumulated once per chunk.  ``np.add.at`` is unbuffered and walks
        # its indices in order: per cluster, the same float additions in the
        # same (arrival) order as inserting the tokens one at a time.
        flat = (self._first_slots()[:, None] + assignments).ravel()
        np.add.at(self._counts.reshape(-1), flat, 1)
        np.add.at(
            self._key_sums.reshape(-1, self.head_dim), flat, keys.reshape(-1, self.head_dim)
        )

        self._token_ids[self.num_tokens : tokens] = token_indices
        self._assignments[:, self.num_tokens : tokens] = assignments
        self.num_tokens = tokens
        if self._sanitize:
            self.sanity_check()
        return assignments

    def _first_slots(self) -> np.ndarray:
        """Index of every lane's slot 0 in the flattened ``(lane, slot)`` axis."""
        return np.arange(self.lanes) * self._counts.shape[1]

    def _place(self, hash_bits: np.ndarray) -> np.ndarray:
        """Assign one chunk's tokens to clusters, updating votes and signatures.

        An arrival-order walk whose every step advances all lanes.  Per
        token: one XOR + popcount of its signature against the lane's
        representatives, one first-minimum ``argmin`` over the distances,
        one scatter.  A dead slot costs ``threshold + ½`` whatever the token:
        less than any live cluster beyond the threshold and more than any
        within it, so the ``argmin`` is the nearest live cluster exactly when
        the per-table rule joins it (integer distance <= threshold, first
        minimum on ties) and otherwise the first dead slot — all dead slots
        tie — which is the cluster to open.  Joining and opening are then
        the same scatter: a fresh slot tallies zeros, and the majority of
        one vote is the token's own signature.
        """
        lanes, n, n_bits = hash_bits.shape
        signed_bits = hash_bits.astype(np.int32) * 2 - 1
        packed = pack_bits_u64(hash_bits)
        words = packed.shape[2]
        # Flat (lane, slot) views: one fancy index per scatter instead of two.
        first_slot = self._first_slots()
        signatures = self._signatures.reshape(-1, words)
        votes = self._votes.reshape(-1, n_bits)
        if self.hamming_threshold < 0:
            # Clustering disabled: every token opens its own cluster, no walk.
            assignments = self.live[:, None] + np.arange(n)
            flat = (first_slot[:, None] + assignments).ravel()
            votes[flat] = signed_bits.reshape(-1, n_bits)
            signatures[flat] = packed.reshape(-1, words)
            return assignments

        open_cost = self.hamming_threshold + 0.5
        # Slots [0:bound + i] hold every lane's live clusters at step i (one
        # may open per step) and at least one dead slot.
        bound = int(self.live.max()) + 1
        is_dead = np.arange(self._counts.shape[1]) >= self.live[:, None]
        dead_flat = is_dead.reshape(-1)
        pad_bits = self._pack_pad[:, :n_bits]
        steps = np.ascontiguousarray(packed.transpose(1, 0, 2))[:, :, None, :]
        step_votes = np.ascontiguousarray(signed_bits.transpose(1, 0, 2))
        assignments = np.empty((n, lanes), dtype=np.int64)
        for i in range(n):
            differing = popcount_u64(self._signatures[:, : bound + i] ^ steps[i])
            distances = (
                differing[:, :, 0] if words == 1 else differing.sum(axis=2, dtype=np.int64)
            )
            slot = np.where(is_dead[:, : bound + i], open_cost, distances).argmin(axis=1)
            flat = first_slot + slot
            tally = votes[flat]
            tally += step_votes[i]
            votes[flat] = tally
            np.greater_equal(tally, 0, out=pad_bits)
            signatures[flat] = np.packbits(self._pack_pad, axis=1, bitorder="little").view(
                np.uint64
            )
            dead_flat[flat] = False
            assignments[i] = slot
        return np.ascontiguousarray(assignments.T)

    # ------------------------------------------------------------------ #
    # lane-stacked views used by WiCSum thresholding
    # ------------------------------------------------------------------ #
    def key_clusters(self) -> np.ndarray:
        """Representative keys, ``(lanes, max(live), head_dim)``; dead slots are zero rows."""
        k_max = int(self.live.max())
        return self._key_sums[:, :k_max] / np.maximum(self._counts[:, :k_max, None], 1)

    def token_counts(self) -> np.ndarray:
        """Member counts per cluster, a ``(lanes, max(live))`` view; dead slots hold zero."""
        return self._counts[:, : int(self.live.max())]

    def members(self, wanted: np.ndarray) -> np.ndarray:
        """Which tokens (insertion order) belong to the ``wanted`` clusters.

        ``wanted`` is a boolean ``(lanes, clusters)`` mask; the result is a
        boolean ``(lanes, num_tokens)`` mask.
        """
        first_cluster = np.arange(self.lanes)[:, None] * wanted.shape[1]
        return wanted.take(self._assignments[:, : self.num_tokens] + first_cluster)

    # ------------------------------------------------------------------ #
    # REPRO_SANITIZE=1 invariant check
    # ------------------------------------------------------------------ #
    def sanity_check(self) -> None:
        """Assert table conservation (runs after every update when sanitizing).

        Per lane the live counts sum to the tokens observed, dead slots hold
        no counts, votes or key sums, and every live signature is the packed
        majority of its votes.  Raises
        :class:`~repro.devtools.sanitizer.SanitizerError` with code
        ``table-conservation``.
        """
        is_live = np.arange(self._counts.shape[1]) < self.live[:, None]
        observed = np.where(is_live, self._counts, 0).sum(axis=1)
        if (observed != self.num_tokens).any():
            lane = int((observed != self.num_tokens).argmax())
            raise SanitizerError(
                TABLE_CONSERVATION,
                f"lane {lane}: live cluster counts sum to {observed[lane]}, "
                f"{self.num_tokens} tokens observed",
            )
        dead = ~is_live
        if self._counts[dead].any() or self._votes[dead].any() or self._key_sums[dead].any():
            raise SanitizerError(
                TABLE_CONSERVATION, "a dead cluster slot holds counts, votes or key sums"
            )
        stale = is_live & (self._signatures != pack_bits_u64(self._votes >= 0)).any(axis=2)
        if stale.any():
            lane, slot = np.argwhere(stale)[0]
            raise SanitizerError(
                TABLE_CONSERVATION,
                f"lane {lane} cluster {slot}: signature is not the packed majority of its votes",
            )


class HashClusterTable:
    """HC table for one (layer, KV-head) pair: a view of one lane of a store."""

    def __init__(self, head_dim: int, n_bits: int, hamming_threshold: int):
        self._store = HashClusterLanes(1, head_dim, n_bits, hamming_threshold)
        self._lane = 0

    head_dim = property(lambda self: self._store.head_dim)
    n_bits = property(lambda self: self._store.n_bits)
    hamming_threshold = property(lambda self: self._store.hamming_threshold)

    def __len__(self) -> int:
        return self.num_clusters

    @property
    def num_clusters(self) -> int:
        return int(self._store.live[self._lane])

    @property
    def num_tokens(self) -> int:
        return self._store.num_tokens

    def update(
        self, keys: np.ndarray, hash_bits: np.ndarray, token_indices: np.ndarray
    ) -> np.ndarray:
        """Insert new tokens, clustering them against existing representatives.

        ``keys`` is ``(new_tokens, head_dim)``, ``hash_bits``
        ``(new_tokens, n_bits)`` and ``token_indices`` their non-negative
        global indices; returns the cluster index assigned to each token.
        Only a standalone table can be updated on its own — the lanes of a
        wider store share their tokens and advance together through
        :meth:`HashClusterLanes.update`.
        """
        keys = np.asarray(keys, dtype=np.float64)
        hash_bits = np.asarray(hash_bits, dtype=bool)
        return self._store.update(keys[None], hash_bits[None], token_indices)[0]

    # ------------------------------------------------------------------ #
    # table views used by WiCSum thresholding and the KVMU memory mapping
    # ------------------------------------------------------------------ #
    def key_clusters(self) -> np.ndarray:
        """Representative keys, shape ``(num_clusters, head_dim)``."""
        return self._store.key_clusters()[self._lane, : self.num_clusters]

    def token_counts(self) -> np.ndarray:
        """Member counts per cluster."""
        return self._store.token_counts()[self._lane, : self.num_clusters].copy()

    def assignments(self) -> tuple[np.ndarray, np.ndarray]:
        """``(token_ids, cluster_index)`` pairs in insertion order."""
        n = self.num_tokens
        return self._store._token_ids[:n], self._store._assignments[self._lane, :n]

    def tokens_of(self, cluster_indices) -> np.ndarray:
        """All member token indices of the given clusters (sorted, unique)."""
        cluster_indices = np.asarray(cluster_indices, dtype=np.int64)
        if self.num_tokens == 0 or cluster_indices.size == 0:
            return np.zeros((0,), dtype=np.int64)
        token_ids, assignments = self.assignments()
        wanted = np.zeros(self.num_clusters, dtype=bool)
        wanted[cluster_indices] = True
        return np.unique(token_ids[wanted[assignments]])

    def memory_overhead_bytes(self, key_bytes: int = 2) -> int:
        """Approximate HC-table storage: representative keys, signatures, counts, indices.

        Used to verify the paper's claim that the table occupies roughly
        1.67 % of the full KV cache at an average of 32 tokens per cluster.
        """
        n = self.num_clusters
        rep_keys = n * self.head_dim * key_bytes
        signatures = n * ((self.n_bits + 7) // 8)
        counts = n * 4
        indices = self.num_tokens * 4
        return rep_keys + signatures + counts + indices

    def mean_tokens_per_cluster(self) -> float:
        """Average cluster occupancy."""
        if not self.num_clusters:
            return 0.0
        return self.num_tokens / self.num_clusters
