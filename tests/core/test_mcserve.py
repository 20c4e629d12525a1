"""The event-sparse Monte Carlo kernel against a dense replay oracle."""

import heapq

import numpy as np
import pytest

from repro.core.mcserve import mc_values_from_distances
from repro.exceptions import DataValidationError, ParameterError


def _dense_permutation(d, m, k, out):
    """Replay every insertion of one permutation (permuted order).

    ``out[t]`` receives the marginal of the point inserted at time t:
    its match while the heap fills, then its match minus the evicted
    point's whenever it is closer than the current K-th nearest.
    """
    heap = []  # max-heap by distance: (-d, t)
    for t in range(d.shape[0]):
        if len(heap) < k:
            heapq.heappush(heap, (-d[t], t))
            out[t] += m[t] / k
        elif d[t] < -heap[0][0]:
            _, evicted = heapq.heapreplace(heap, (-d[t], t))
            out[t] += (m[t] - m[evicted]) / k


def _dense_values(dist, match, k, n_permutations, rng):
    """The dense estimator: an N-length marginal vector per permutation
    and test row, scattered back in full."""
    q, n = dist.shape
    values = np.zeros((q, n), dtype=np.float64)
    buf = np.empty(n, dtype=np.float64)
    for _ in range(n_permutations):
        perm = rng.permutation(n)
        for j in range(q):
            buf[:] = 0.0
            _dense_permutation(dist[j].take(perm), match[j].take(perm), k, buf)
            values[j, perm] += buf
    values /= n_permutations
    return values


def _tie_heavy(seed, q, n, levels):
    rng = np.random.default_rng(seed)
    dist = rng.integers(0, levels, (q, n)).astype(np.float64)
    match = (rng.integers(0, 3, (q, n)) == 0).astype(np.float64)
    return dist, match


@pytest.mark.parametrize(
    "q,n,k,levels,block",
    [
        (3, 500, 3, 2, 2048),  # almost every distance duplicated
        (2, 400, 5, 7, 16),  # duplicates across many scan blocks
        (4, 6000, 5, 1000, 2048),  # N above the scan block
        (3, 90, 5, 4, 2048),  # N below the scan block
        (2, 4, 10, 2, 2048),  # K >= N: the heap never fills
        (2, 10, 10, 3, 2048),  # K == N
        (1, 1, 1, 1, 2048),
        (3, 300, 1, 3, 1),  # one-element scan steps
    ],
)
def test_event_sparse_kernel_equals_dense_oracle(q, n, k, levels, block):
    dist, match = _tie_heavy(q * n + k, q, n, levels)
    got = mc_values_from_distances(
        dist, match, k, 4, np.random.default_rng(7), block=block
    )
    want = _dense_values(dist, match, k, 4, np.random.default_rng(7))
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_event_sparse_kernel_equals_oracle_on_duplicate_rows():
    """Duplicated training points tie exactly on every test row."""
    rng = np.random.default_rng(3)
    base = rng.random((3, 200))
    dist = np.concatenate([base, base[:, :50]], axis=1)
    match = (rng.integers(0, 2, dist.shape)).astype(np.float64)
    got = mc_values_from_distances(dist, match, 3, 6, np.random.default_rng(1))
    want = _dense_values(dist, match, 3, 6, np.random.default_rng(1))
    assert np.array_equal(got, want)


def test_kernel_rejects_bad_input():
    d = np.zeros((2, 5))
    with pytest.raises(DataValidationError):
        mc_values_from_distances(d, np.zeros((2, 4)), 1, 1, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        mc_values_from_distances(d, d, 0, 1, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        mc_values_from_distances(d, d, 1, 0, np.random.default_rng(0))
