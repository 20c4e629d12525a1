"""Sample-complexity bounds for Monte Carlo Shapley estimation.

Three permutation budgets appear in the paper's Figure 11:

* **Hoeffding** (Section 2.2, the baseline): treats every marginal
  contribution as an arbitrary bounded variable, giving
  ``T = (r^2 / (2 eps^2)) * ln(2N / delta)``.
* **Bennett** (Theorem 5, the paper's improvement): exploits that for
  KNN most insertions do not change the K nearest neighbors, so the
  *variance* of the marginal contribution of a far point is tiny even
  though its *range* is not.  The budget solves
  ``sum_i exp(-T (1 - q_i^2) h(eps / ((1 - q_i^2) r))) = delta / 2``
  with ``q_i = 0`` for ``i <= K`` and ``q_i = (i - K)/i`` otherwise,
  and ``h(u) = (1 + u) ln(1 + u) - u``.  Ranks past a few thousand
  enter through a closed-form upper bound, so the solve costs the same
  at any N and T never comes out below the exact-sum solution.
* **Bennett, closed-form approximation** (eq 34 / Appendix H):
  ``T ≈ (1 / h(eps / r)) * ln(2K / delta)``, which no longer grows
  with N.

All budgets are per-test-point permutation counts over the training
set; the same permutations serve every training point.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..exceptions import ConvergenceError, ParameterError

__all__ = [
    "bennett_h",
    "hoeffding_permutations",
    "bennett_permutations",
    "bennett_approx_permutations",
    "bennett_qi",
    "certified_epsilon",
]


def _validate(epsilon: float, delta: float, r: float) -> None:
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    if r <= 0:
        raise ParameterError(f"range r must be positive, got {r}")


def bennett_h(u: np.ndarray | float) -> np.ndarray | float:
    """Bennett's function ``h(u) = (1 + u) ln(1 + u) - u`` (u >= 0)."""
    u_arr = np.asarray(u, dtype=np.float64)
    out = (1.0 + u_arr) * np.log1p(u_arr) - u_arr
    return out if isinstance(u, np.ndarray) else float(out)


def hoeffding_permutations(
    epsilon: float, delta: float, n: int, r: float
) -> int:
    """Baseline permutation budget from Hoeffding's inequality.

    ``T = ceil( (r^2 / (2 eps^2)) * ln(2N / delta) )``

    Parameters
    ----------
    epsilon, delta:
        Target (epsilon, delta)-approximation of the max-norm error.
    n:
        Number of training points (the union bound is over all N).
    r:
        Range of the marginal contribution ``phi_i`` (``1/K`` for the
        unweighted KNN classification utility).
    """
    _validate(epsilon, delta, r)
    if n <= 0:
        raise ParameterError(f"n must be positive, got {n}")
    return int(math.ceil(r**2 / (2.0 * epsilon**2) * math.log(2.0 * n / delta)))


def bennett_qi(n: int, k: int) -> np.ndarray:
    """The zero-marginal probabilities ``q_i`` of Theorem 5 (eq 33).

    ``q_i`` lower-bounds the probability that inserting the i-th
    nearest training point into a random permutation prefix leaves the
    K nearest neighbors unchanged: 0 for the K nearest points and
    ``(i - K) / i`` beyond.
    """
    if n <= 0 or k <= 0:
        raise ParameterError(f"n and k must be positive, got n={n}, k={k}")
    i = np.arange(1, n + 1, dtype=np.float64)
    q = np.where(i <= k, 0.0, (i - k) / i)
    return q


#: ranks whose eq (32) terms are summed exactly; the rest of the sum is
#: bounded above in closed form (see :func:`_bennett_lhs`), so a budget
#: solve costs the same at any N
_EXACT_RANKS = 4096


def _bennett_lhs(
    epsilon: float, n: int, k: int, r: float
) -> Callable[[int], float]:
    """Eq (32)'s left-hand side as a function of T, never below the exact sum.

    With ``c = eps / r``, the first ``M = min(n, max(4096, 2 e^2 K / c))``
    ranks are summed exactly.  Beyond rank K,
    ``a_i = 1 - q_i^2 = K (2i - K) / i^2 <= 2K / i`` and ``a h(c / a)``
    falls as ``a`` grows, so ``a_i h(c / a_i) >= c ln(c i / (2 e K))``
    and term i is at most ``(2 e K / (c i))^(T c)``.  That bound
    decreases in i, so the tail ``i > M`` is at most its integral from
    M, ``(2 e K / (c M))^(T c) M / (T c - 1)``, which is infinite for
    ``T c <= 1``; ``M >= 2 e^2 K / c`` keeps its base at most ``1 / e``,
    so it vanishes as T grows.  With ``n <= M`` the sum is exact, term
    for term the same floats as summing all n ranks.
    """
    c = epsilon / r
    m = min(n, max(_EXACT_RANKS, math.ceil(2.0 * math.e**2 * k / c)))
    q = bennett_qi(m, k)
    one_minus_q2 = 1.0 - q**2
    h_vals = np.asarray(bennett_h(epsilon / (one_minus_q2 * r)))
    exponents = one_minus_q2 * h_vals  # per-point decay rate
    log_base = math.log(2.0 * math.e * k / (c * m))

    def lhs(t: int) -> float:
        head = float(np.exp(-t * exponents).sum())
        if m == n:
            return head
        p = t * c
        if p <= 1.0:
            return math.inf
        log_tail = p * log_base + math.log(m / (p - 1.0))
        if log_tail > 700.0:  # exp would overflow; no delta fits anyway
            return math.inf
        return head + math.exp(log_tail)

    return lhs


def bennett_permutations(
    epsilon: float,
    delta: float,
    n: int,
    k: int,
    r: float,
    max_iter: int = 200,
) -> int:
    """Permutation budget from Theorem 5 (Bennett's inequality).

    The smallest integer ``T`` whose eq (32) left-hand side is at most
    ``delta / 2``.  The left-hand side is strictly decreasing in ``T``,
    so doubling brackets it and an integer bisection finds it in about
    ``2 log2 T`` evaluations.  Each evaluation sums at most a few
    thousand ranks exactly and bounds the rest in closed form
    (:func:`_bennett_lhs`), so the solve costs the same at any N; the
    budget is non-decreasing in N and constant once N passes the
    exactly summed ranks.
    """
    _validate(epsilon, delta, r)
    lhs = _bennett_lhs(epsilon, n, k, r)
    target = delta / 2.0
    hi = 1
    it = 0
    while lhs(hi) > target:
        hi *= 2
        it += 1
        if it > max_iter:
            raise ConvergenceError(
                "failed to bracket the Bennett permutation budget"
            )
    # lhs(lo) > target: lo failed the doubling, or is 0 (lhs = n)
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lhs(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def bennett_approx_permutations(
    epsilon: float, delta: float, k: int, r: float
) -> int:
    """Closed-form approximation of the Bennett budget (eq 34).

    ``T ≈ ceil( (1 / h(eps / r)) * ln(2K / delta) )`` — independent of
    N, which is the qualitative point of Figure 11: the required
    permutation count flattens out as the training set grows.
    """
    _validate(epsilon, delta, r)
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    h_val = float(bennett_h(epsilon / r))
    return int(math.ceil(math.log(2.0 * k / delta) / h_val))


def certified_epsilon(
    n_permutations: int,
    delta: float,
    n: int,
    k: int,
    r: float,
    max_iter: int = 100,
) -> float:
    """Invert Theorem 5: the error an explicit budget certifies.

    The smallest ``epsilon`` whose Bennett budget
    (:func:`bennett_permutations`) fits within ``n_permutations`` —
    i.e. the ``(epsilon, delta)`` guarantee a run of ``T`` permutations
    can legitimately claim.  This is the certificate the serving
    layer's Monte Carlo precision rung records next to each degraded
    result, so an operator (or the benchmark gate) can hard-check the
    measured error against it.
    """
    if n_permutations <= 0:
        raise ParameterError(
            f"n_permutations must be positive, got {n_permutations}"
        )
    if not 0 < delta < 1:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    if r <= 0:
        raise ParameterError(f"range r must be positive, got {r}")
    # eq (32)'s left-hand side at T = n_permutations falls as epsilon
    # grows, and "fits" is exactly "bennett_permutations(eps) <= T";
    # bracket then bisect for the smallest epsilon that fits
    target = delta / 2.0

    def fits(eps: float) -> bool:
        return _bennett_lhs(eps, n, k, r)(n_permutations) <= target

    lo, hi = 0.0, float(r)
    it = 0
    while not fits(hi):
        hi *= 2.0
        it += 1
        if it > max_iter:
            raise ConvergenceError(
                "failed to bracket the certified epsilon"
            )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0:
            break
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi
