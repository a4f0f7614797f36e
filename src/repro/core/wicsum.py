"""Weighted cumulative-sum (WiCSum) thresholding.

Paper Sec. IV-C / Eq. (1)-(3): for every score row (one row per query
vector and attention head) the algorithm

1. computes the weighted sum of cluster scores and member counts,
2. derives a threshold ``Th_wics = Sum * Th_r-wics``,
3. sorts the row in descending score order and accumulates the weighted
   scores until the accumulated value exceeds the threshold,
4. keeps the clusters visited so far.

Two accountings are provided: a reference full-sort version and the
bucketised *early-exit* version that mirrors the WTU hardware dataflow
(Fig. 11).  Both must select the same clusters; the early-exit version
additionally reports how much sorting work was skipped, which feeds the
hardware latency model.  Both run on one lane-batched core,
:func:`wicsum_lanes`, which thresholds every score row of every lane (the
KV heads of a layer) in one pass over a padded ``(lanes, rows, clusters)``
block; :func:`wicsum_select` / :func:`wicsum_select_early_exit` are its
one-lane, unpadded call.

Implementation note (documented substitution): the raw ``Q · K_cluster^T``
scores can be negative, which would make a weighted-sum threshold
ill-defined.  We therefore pass scores through the attention's own
exponential (an unnormalised softmax, computed per row with the max
subtracted) before thresholding.  This is a strictly monotone transform, so
the descending order — and therefore which clusters are "most important" —
is unchanged, while every importance weight becomes non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Score buckets of the WTU's early-exit walk.
NUM_BUCKETS = 16


def importance_scores(raw_scores: np.ndarray, head_dim: int) -> np.ndarray:
    """Convert raw dot-product scores into non-negative importance weights.

    ``-inf`` entries (the padding of a lane block) come out as exact zeros.
    """
    raw_scores = np.asarray(raw_scores, dtype=np.float64)
    scaled = raw_scores / np.sqrt(head_dim)
    shifted = scaled - np.max(scaled, axis=-1, keepdims=True)
    return np.exp(shifted)


@dataclass
class WiCSumResult:
    """Output of WiCSum thresholding over a score matrix."""

    #: boolean ``(rows, clusters)``: the clusters each score row keeps
    kept: np.ndarray
    #: union of the kept clusters over all rows
    selected_clusters: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    sorted_elements: int = 0
    total_elements: int = 0

    @property
    def sort_fraction(self) -> float:
        """Fraction of score elements that actually had to be sorted."""
        if self.total_elements == 0:
            return 0.0
        return self.sorted_elements / self.total_elements


def lane_totals(weighted: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Row sums of a padded ``(lanes, rows, k_max)`` block, ``(lanes, rows)``.

    Each lane is summed over its ``live`` columns only, which is bit-identical
    to summing the lane's unpadded matrix (the float-order rule of
    :func:`wicsum_lanes`).
    """
    totals = np.empty(weighted.shape[:2])
    for lane, k in enumerate(live.tolist()):
        totals[lane] = weighted[lane, :, :k].sum(axis=1)
    return totals


def wicsum_lanes(
    scores: np.ndarray,
    token_counts: np.ndarray,
    live: np.ndarray,
    threshold_ratio: float,
    num_buckets: int | None = None,
) -> tuple[np.ndarray, int]:
    """WiCSum-threshold every row of every lane in one batched pass.

    Parameters
    ----------
    scores:
        Non-negative importance scores, ``(lanes, rows, k_max)``; lane
        ``l`` has ``live[l] >= 1`` clusters and its columns past that are
        zero padding.
    token_counts:
        Member counts, ``(lanes, k_max)``, zero in padded columns.
    live:
        Live cluster count of every lane, ``(lanes,)``.
    threshold_ratio:
        :math:`Th_{r-wics}` — fraction of a row's weighted sum that the
        kept clusters must cover.
    num_buckets:
        ``None`` for full-sort accounting, else the bucket count of the
        early-exit walk (see :func:`wicsum_select_early_exit`).

    Returns ``(kept, sorted_elements)``: a boolean ``(lanes, rows, k_max)``
    mask of the clusters each row keeps (never a padded column) and the
    number of score elements the sort touched.

    Float-order rule: a row's total is numpy *pairwise* summation, whose
    value depends on the row length — over 3 000 random blocks the sum of a
    zero-padded row differed from the unpadded one in 2 617 and
    ``np.add.reduceat`` over the live segment in 2 833, while the sliced
    ``weighted[lane, :, :live[lane]].sum(axis=1)`` never did — so totals are
    taken per lane on the unpadded slice.  Everything else is padding-proof:
    ``cumsum`` is sequential, so trailing zeros change nothing; padded
    columns score 0 at index >= ``live``, so the stable descending sort
    ranks them after live zero-score clusters; and ``stops`` is capped at
    ``live``, which keeps the ``threshold_ratio = 1.0`` edge exact.
    """
    lanes, rows, k_max = scores.shape
    weighted = scores * token_counts[:, None, :]
    totals = lane_totals(weighted, live)
    order = np.argsort(-scores, axis=2, kind="stable")
    # Flat positions of each row's clusters in descending score order: one
    # ``take``/``put`` per gather below instead of the ``*_along_axis`` helpers.
    row_start = (np.arange(lanes * rows) * k_max).reshape(lanes, rows)
    by_rank = order + row_start[:, :, None]
    cumulative = np.cumsum(weighted.take(by_rank), axis=2)
    # First rank whose accumulated weighted score strictly exceeds the
    # threshold (paper Eq. 3 uses Acc(t) > Th_wics); that cluster is kept.
    crossing = np.count_nonzero(cumulative <= (totals * threshold_ratio)[:, :, None], axis=2)
    # stops[lane, row] = how many clusters the accumulate-until-threshold walk visits
    stops = np.minimum(crossing + 1, live[:, None])
    # rank[lane, row, c] = position of cluster c in the row's descending
    # order (``put`` cycles the k_max rank values over the rows).
    rank = np.empty_like(order)
    rank.put(by_rank, np.arange(k_max))
    kept = rank < stops[:, :, None]
    if num_buckets is None:
        return kept, rows * int(live.sum())  # full sort touches every element

    # Bucket index per element; degenerate rows (all scores equal) collapse
    # into bucket 0, matching the single-bucket fallback of the sequential
    # WTU walk.  The zero padding never exceeds a (non-negative) live score.
    is_live = (np.arange(k_max) < live[:, None])[:, None, :]
    low = np.min(scores, axis=2, keepdims=True, where=is_live, initial=np.inf)
    span = np.maximum(scores.max(axis=2, keepdims=True) - low, 0.0)
    span = np.where(span > 0.0, span, 1.0)
    bucket_of = np.minimum(((scores - low) / span * num_buckets).astype(np.int64), num_buckets - 1)
    # The walk stops inside the bucket of the last element it takes; that
    # bucket is sorted in full, buckets above it were fully visited, buckets
    # below are skipped.
    stop_bucket = bucket_of.take(by_rank.take(row_start + stops - 1))
    sorted_mask = (bucket_of >= stop_bucket[:, :, None]) & is_live
    return kept, int(np.count_nonzero(sorted_mask))


def _select_one_lane(
    scores: np.ndarray, token_counts: np.ndarray, threshold_ratio: float, num_buckets: int | None
) -> WiCSumResult:
    scores = np.asarray(scores, dtype=np.float64)
    token_counts = np.asarray(token_counts, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must be 2-D (rows, clusters)")
    if token_counts.shape[0] != scores.shape[1]:
        raise ValueError("token_counts length must match the number of clusters")
    if not 0.0 < threshold_ratio <= 1.0:
        raise ValueError("threshold_ratio must lie in (0, 1]")
    if num_buckets is not None and num_buckets <= 0:
        raise ValueError("num_buckets must be positive")

    rows, clusters = scores.shape
    result = WiCSumResult(kept=np.zeros(scores.shape, dtype=bool), total_elements=rows * clusters)
    if clusters:
        kept, result.sorted_elements = wicsum_lanes(
            scores[None], token_counts[None], np.array([clusters]), threshold_ratio, num_buckets
        )
        result.kept = kept[0]
        result.selected_clusters = np.nonzero(result.kept.any(axis=0))[0]
    return result


def wicsum_select(
    scores: np.ndarray, token_counts: np.ndarray, threshold_ratio: float
) -> WiCSumResult:
    """Reference (full-sort) WiCSum thresholding.

    Parameters
    ----------
    scores:
        Non-negative importance scores of shape ``(rows, clusters)``.
    token_counts:
        Member count of each cluster, shape ``(clusters,)``.
    threshold_ratio:
        :math:`Th_{r-wics}` — fraction of the row's weighted sum that must
        be covered by the selected clusters.
    """
    return _select_one_lane(scores, token_counts, threshold_ratio, None)


def wicsum_select_early_exit(
    scores: np.ndarray,
    token_counts: np.ndarray,
    threshold_ratio: float,
    num_buckets: int = NUM_BUCKETS,
) -> WiCSumResult:
    """Early-exit bucketised WiCSum thresholding (WTU dataflow, Fig. 11).

    The preprocess step computes the weighted sum, the min/max score range
    and the threshold.  The token-selection step then walks score buckets
    from the highest range downwards; within each bucket elements are taken
    in descending order, the weighted cumulative sum is updated and the walk
    stops ("early exit") as soon as the threshold is crossed.  Because a
    small number of large scores typically dominates the weighted sum
    (~16 % of a row on average in the paper), most buckets are skipped.

    The bucket walk visits elements in exactly the stable descending score
    order (buckets are monotone in score, ties share a bucket), so the kept
    clusters are identical to :func:`wicsum_select`; only the sorted-work
    accounting differs — members of buckets below the one where the walk
    stops are never sorted.
    """
    return _select_one_lane(scores, token_counts, threshold_ratio, num_buckets)
