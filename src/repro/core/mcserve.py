"""Sort-free Monte Carlo valuation for the serving overload rung.

The reference estimator in :mod:`repro.core.montecarlo` replays each
permutation with a per-insertion Python heap — O(N) heap operations per
permutation per test point, fine for the paper's convergence figures
but far too slow to be a *degradation* path: under overload it must
beat the exact kernel, whose cost is one distance computation plus one
O(N log N) sort per test point.

This module is the serving-grade form of the paper's Algorithm 2
insight: in a random permutation only the points that actually enter
the running K-nearest heap contribute a nonzero marginal, and in
expectation only ``O(K ln N)`` of the N insertions do (the harmonic
argument behind Theorem 5's tiny variances).  So instead of replaying
every insertion, :func:`mc_values_from_distances`

1. works directly on **raw distances** — no ranking, no sort: the
   heap of the K smallest distances seen so far is the K-NN set of the
   permutation prefix, by definition;
2. **skip-scans** between heap events with vectorized numpy block
   comparisons against the current K-th smallest distance, so the
   Python-level loop runs ``O(K ln N)`` times per permutation while
   the O(N) scan work stays in C;
3. records only the heap **events** (insertion time, evicted time),
   reads the match labels at those positions alone and scatters those
   few marginals into the result, so per permutation and test point
   the O(N) work is one distance gather and one scan.

The estimator is unbiased for the unweighted KNN classification
utility (the same utility :class:`~repro.core.montecarlo` replays:
``U(S) = |{matching among the min(|S|,K) nearest}| / K``), and the
same T permutations serve every training point, so the
``(epsilon, delta)`` budgets of :mod:`repro.core.bounds` apply
unchanged — Theorem 5 sizes T for a target epsilon, and
:func:`~repro.core.bounds.certified_epsilon` inverts an explicit T
back into the error the run can certify.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..exceptions import DataValidationError, ParameterError

__all__ = ["mc_values_from_distances"]

#: elements compared per vectorized skip-scan step; big enough that the
#: Python-level loop overhead amortizes, small enough that a scan which
#: finds an early event has not touched much dead tail
_SCAN_BLOCK = 2048


def _heap_events(
    d: np.ndarray, k: int, block: int
) -> tuple[list[int], list[int]]:
    """One permutation's heap events, in insertion order.

    ``d`` is the distance vector gathered in permutation order.
    Returns the insertion time of every point that entered the running
    K-nearest heap and, for each, the insertion time of the point it
    evicted (-1 while the heap was still filling).  Ties evict the
    earliest-inserted of the farthest points.
    """
    n = d.shape[0]
    # prefix smaller than K: every insertion joins the neighbor set
    # and evicts nobody
    filled = min(k, n)
    inserted = list(range(filled))
    evicted = [-1] * filled
    heap = [(-dt, t) for t, dt in enumerate(d[:filled].tolist())]
    heapq.heapify(heap)  # max-heap by distance: (-d, t)
    t = filled
    while t < n:
        # skip-scan: the next event is the first remaining point
        # closer than the current K-th nearest
        hits = np.flatnonzero(d[t : t + block] < -heap[0][0])
        if not hits.size:
            t += block
            continue
        t += int(hits[0])
        evicted.append(heapq.heapreplace(heap, (-float(d[t]), t))[1])
        inserted.append(t)
        t += 1
    return inserted, evicted


def mc_values_from_distances(
    dist: np.ndarray,
    match: np.ndarray,
    k: int,
    n_permutations: int,
    rng: np.random.Generator,
    block: int = _SCAN_BLOCK,
) -> np.ndarray:
    """Per-test Monte Carlo Shapley estimates from raw distances.

    Parameters
    ----------
    dist:
        ``(n_test, n_train)`` raw test-to-train distances — unsorted;
        avoiding the sort is the point.
    match:
        ``(n_test, n_train)`` float 0/1 label agreement
        (``y_train == y_test[j]``).
    k:
        The K of KNN.
    n_permutations:
        Permutations to average (size with
        :func:`repro.core.bounds.bennett_permutations`).
    rng:
        The permutation source; one shared permutation per round
        serves every test point, as in the paper.

    Returns
    -------
    ``(n_test, n_train)`` float64 estimates of the per-test values;
    the request value is their mean over axis 0 (eq 8 additivity).
    """
    dist = np.ascontiguousarray(dist, dtype=np.float64)
    match = np.ascontiguousarray(match, dtype=np.float64)
    if dist.ndim != 2 or match.shape != dist.shape:
        raise DataValidationError(
            f"dist and match must be matching 2-D arrays, got "
            f"{dist.shape} and {match.shape}"
        )
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    if n_permutations <= 0:
        raise ParameterError(
            f"n_permutations must be positive, got {n_permutations}"
        )
    q, n = dist.shape
    values = np.zeros((q, n), dtype=np.float64)
    filled = min(k, n)  # events that fill the heap and evict nobody
    for _ in range(n_permutations):
        perm = rng.permutation(n)
        for j in range(q):
            # per-row 1-D take: contiguous-source gathers are several
            # times faster than one strided (q, n) column gather
            inserted, evicted = _heap_events(dist[j].take(perm), k, block)
            # only the O(K ln N) event points carry a nonzero marginal:
            # the inserted point's match, minus the evicted one's once
            # the heap is full
            idx = perm[inserted]
            marginal = match[j].take(idx)
            marginal[filled:] -= match[j].take(perm[evicted[filled:]])
            # each point is inserted once per permutation, so idx
            # holds unique indices and fancy += is a scatter
            values[j, idx] += marginal / k
    values /= n_permutations
    return values
