"""Tests for the permutation-budget bounds (Theorem 5 and baselines)."""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.core import (
    bennett_approx_permutations,
    bennett_h,
    bennett_permutations,
    bennett_qi,
    hoeffding_permutations,
)
from repro.core.bounds import certified_epsilon
from repro.exceptions import ParameterError


def _exact_lhs(epsilon, n, k, r):
    """Eq (32)'s left-hand side summed over all n ranks, as a function of T."""
    q = bennett_qi(n, k)
    one_minus = 1.0 - q**2
    exponents = one_minus * np.asarray(bennett_h(epsilon / (one_minus * r)))
    return lambda t: float(np.exp(-t * exponents).sum())


def _exact_budget(epsilon, delta, n, k, r):
    """The smallest integer T whose exact eq (32) sum is <= delta / 2."""
    lhs = _exact_lhs(epsilon, n, k, r)
    t = 1
    while lhs(t) > delta / 2:
        t += 1
    return t


def _nested_certified_epsilon(n_permutations, delta, n, k, r, max_iter=100):
    """Bisect epsilon for the smallest budget that fits, solving the
    budget afresh at every step."""
    lo, hi = 0.0, float(r)
    while bennett_permutations(hi, delta, n, k, r) > n_permutations:
        hi *= 2.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0:
            break
        if bennett_permutations(mid, delta, n, k, r) > n_permutations:
            lo = mid
        else:
            hi = mid
    return hi


def test_bennett_h_properties():
    assert bennett_h(0.0) == pytest.approx(0.0)
    # h is increasing and convex on [0, inf)
    u = np.linspace(0.0, 5.0, 50)
    h = np.asarray(bennett_h(u))
    assert np.all(np.diff(h) > 0)
    assert np.all(np.diff(h, 2) > -1e-12)
    # h(u) <= u^2 (used by the approximate bound derivation)
    assert np.all(h <= u**2 + 1e-12)


def test_qi_structure():
    q = bennett_qi(10, 3)
    assert q.shape == (10,)
    np.testing.assert_array_equal(q[:3], 0.0)
    expected = np.array([(i - 3) / i for i in range(4, 11)])
    np.testing.assert_allclose(q[3:], expected)
    assert np.all(np.diff(q[3:]) > 0)  # increases with rank


def test_hoeffding_grows_with_n():
    budgets = [
        hoeffding_permutations(0.1, 0.05, n, 1.0) for n in (100, 1000, 10000)
    ]
    assert budgets[0] < budgets[1] < budgets[2]


def test_bennett_flattens_with_n():
    """Figure 11's point: the Bennett budget barely moves with N while
    Hoeffding's keeps growing, so Bennett wins at scale.  (At small N
    the two are comparable — Bennett's h(u) ~ u^2/2 exponent is no
    tighter per point; the win comes from far points' tiny variance.)"""
    ns = (100, 10000, 1000000, 100000000)
    budgets = [bennett_permutations(0.1, 0.05, n, 1, 1.0) for n in ns]
    assert budgets[-1] <= budgets[0] * 1.1  # nearly flat
    hoeff = [hoeffding_permutations(0.1, 0.05, n, 1.0) for n in ns]
    assert hoeff[-1] > hoeff[0] * 2  # Hoeffding keeps growing
    assert budgets[-1] < hoeff[-1]  # Bennett wins at large N


def test_bennett_solves_equation():
    """The returned T satisfies eq (32)'s LHS <= delta/2 and T-1 does not."""
    eps, delta, n, k, r = 0.1, 0.05, 500, 3, 1.0
    t_star = bennett_permutations(eps, delta, n, k, r)
    q = bennett_qi(n, k)
    one_minus = 1.0 - q**2
    exponents = one_minus * np.asarray(bennett_h(eps / (one_minus * r)))

    def lhs(t):
        return float(np.exp(-t * exponents).sum())

    assert lhs(t_star) <= delta / 2 + 1e-9
    assert lhs(max(t_star - 2, 0)) > delta / 2


@pytest.mark.parametrize("n", [10, 100, 5000, 100_000, 1_000_000])
def test_bennett_equals_exact_sum_budget_on_grid(n):
    """The closed-form tail never moves T off the exact-sum T: T fits
    the full sum over all N ranks (never too small) and T - 1 does not
    (never too large)."""
    for eps, k in itertools.product((0.05, 0.1, 0.3, 0.5, 1.0), (1, 3, 5, 10)):
        r = 1.0 / k
        lhs = _exact_lhs(eps, n, k, r)
        for delta in (0.05, 0.01):
            t = bennett_permutations(eps, delta, n, k, r)
            assert lhs(t) <= delta / 2, (eps, delta, k, n, t)
            assert lhs(t - 1) > delta / 2, (eps, delta, k, n, t)


def test_bennett_tiny_epsilon_sums_more_ranks_exactly():
    """At eps / r = 1e-3 the tail bound over ranks past 4096 has a base
    above 1; more ranks are summed exactly and T is still the exact-sum T."""
    eps, delta, n, k, r = 0.001, 0.05, 20_000, 1, 1.0
    t = bennett_permutations(eps, delta, n, k, r)
    lhs = _exact_lhs(eps, n, k, r)
    assert lhs(t) <= delta / 2 < lhs(t - 1)


def test_bennett_never_below_exact_sum_budget():
    """Off the grid too, and for ranges other than 1/K, the budget always
    fits the exact sum: the tail bound only ever errs upwards."""
    rng = np.random.default_rng(0)
    for _ in range(40):
        eps = float(rng.uniform(0.02, 2.0))
        delta = float(rng.uniform(0.001, 0.5))
        k = int(rng.integers(1, 40))
        n = int(rng.choice([k, 4095, 4097, 12_000, 200_000]))
        r = float(rng.uniform(0.05, 1.0))
        t = bennett_permutations(eps, delta, n, k, r)
        assert _exact_lhs(eps, n, k, r)(t) <= delta / 2, (eps, delta, k, n, r)


def test_bennett_counts_the_ranks_beyond_the_exact_sum():
    """With delta / 2 between the 4096-rank and the 1e6-rank sums at
    T = 1, the far ranks alone push the budget to T = 2."""
    eps, k, r = 3.0, 1, 1.0
    near = _exact_lhs(eps, 4096, k, r)(1)
    far = _exact_lhs(eps, 10**6, k, r)(1)
    assert near < far
    delta = near + far
    assert bennett_permutations(eps, delta, 4096, k, r) == 1
    assert bennett_permutations(eps, delta, 10**6, k, r) == 2
    assert _exact_budget(eps, delta, 10**6, k, r) == 2


@pytest.mark.parametrize(
    "eps,delta,k,r", [(0.1, 0.05, 1, 1.0), (0.5, 0.05, 5, 0.2), (0.05, 0.01, 10, 0.1)]
)
def test_bennett_non_decreasing_in_n(eps, delta, k, r):
    """A larger training set never needs fewer permutations: the
    router's "partial" policy sizes T on the full fleet and relies on
    it covering every surviving subgame."""
    ns = (1, 2, 5, 10, 50, 100, 1000, 4095, 4096, 4097, 10**4, 10**6, 10**8)
    budgets = [bennett_permutations(eps, delta, n, k, r) for n in ns]
    assert budgets == sorted(budgets)


@pytest.mark.parametrize(
    "t,k,n", [(4, 5, 100_000), (20, 1, 50), (100, 5, 3000), (500, 1, 20_000)]
)
def test_certified_epsilon_matches_nested_bisection(t, k, n):
    r = 1.0 / k
    assert certified_epsilon(t, 0.05, n, k, r) == _nested_certified_epsilon(
        t, 0.05, n, k, r
    )


def test_certified_epsilon_inverts_the_budget():
    eps = certified_epsilon(100, 0.05, 10_000, 5, 0.2)
    assert bennett_permutations(eps, 0.05, 10_000, 5, 0.2) <= 100
    assert bennett_permutations(eps * (1 - 1e-9), 0.05, 10_000, 5, 0.2) > 100


def test_budget_solve_allocates_nothing_n_sized():
    """An N-length float vector at N = 1e9 would be 8 GB."""
    tracemalloc.start()
    try:
        bennett_permutations(0.1, 0.05, 10**9, 1, 1.0)
        certified_epsilon(50, 0.05, 10**9, 5, 0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_bennett_approx_independent_of_n():
    a = bennett_approx_permutations(0.1, 0.05, 3, 1.0)
    assert a == bennett_approx_permutations(0.1, 0.05, 3, 1.0)
    assert a > 0
    # grows with k and shrinks with epsilon
    assert bennett_approx_permutations(0.1, 0.05, 10, 1.0) > a
    assert bennett_approx_permutations(0.2, 0.05, 3, 1.0) < a


def test_knn_range_tightens_budgets():
    """r = 1/K for the KNN utility shrinks every budget by ~K^2."""
    loose = hoeffding_permutations(0.05, 0.05, 1000, 1.0)
    tight = hoeffding_permutations(0.05, 0.05, 1000, 1.0 / 5)
    assert tight < loose / 20


@pytest.mark.parametrize(
    "fn,args",
    [
        (hoeffding_permutations, (0.0, 0.1, 10, 1.0)),
        (hoeffding_permutations, (0.1, 0.0, 10, 1.0)),
        (hoeffding_permutations, (0.1, 1.5, 10, 1.0)),
        (hoeffding_permutations, (0.1, 0.1, 0, 1.0)),
        (hoeffding_permutations, (0.1, 0.1, 10, 0.0)),
        (bennett_permutations, (0.1, 0.1, 10, 0, 1.0)),
        (bennett_approx_permutations, (0.1, 0.1, 0, 1.0)),
    ],
)
def test_rejects_bad_parameters(fn, args):
    with pytest.raises(ParameterError):
        fn(*args)
