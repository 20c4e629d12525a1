"""Correctness checks behind the benchmark's ``ok_frac``.

Every check runs off the clock: the workloads record what the program
answered, and these functions judge the answers afterwards (or, for
the Monte Carlo rung, between requests with the request timer
stopped).  Each check is a plain function of the answer so the
benchmark's own tests can feed it a perturbed answer and see it fail.
"""

from __future__ import annotations

import numpy as np

#: |sum(values) - mean U(D)| allowed by the efficiency check
EFFICIENCY_TOL = 1e-9
#: max-abs gap allowed between a router answer and one engine's answer
ROUTER_TOL = 1e-12


class EfficiencyChecker:
    """The efficiency axiom for exact KNN-Shapley values.

    Shapley values sum to ``U(D) - U(empty)``; for the unweighted KNN
    classifier ``U(empty) = 0`` and ``U(D)`` is the share of a test
    point's K nearest neighbours that carry its label.  A batch's
    value is the mean of its points' values, so the values of one
    request must sum to the batch mean of ``U(D)``.  The top K come
    from the benchmark's own ``np.argpartition``, not from the
    program's ranking.
    """

    def __init__(self, x_train: np.ndarray, y_train: np.ndarray, k: int) -> None:
        self.x_train = x_train
        self.y_train = y_train
        self.k = int(k)
        self._norms = np.einsum("ij,ij->i", x_train, x_train)

    def utility(self, xb: np.ndarray, yb: np.ndarray) -> float:
        """Batch mean of ``U(D)`` over the full training set."""
        sq = (
            np.einsum("ij,ij->i", xb, xb)[:, None]
            - 2.0 * (xb @ self.x_train.T)
            + self._norms[None, :]
        )
        top = np.argpartition(sq, self.k - 1, axis=1)[:, : self.k]
        return float((self.y_train[top] == yb[:, None]).mean(axis=1).mean())

    def ok(self, xb: np.ndarray, yb: np.ndarray, value_sum: float) -> bool:
        """Whether one request's values sum to its batch utility."""
        return abs(value_sum - self.utility(xb, yb)) <= EFFICIENCY_TOL


def router_ok(answer: np.ndarray, reference: np.ndarray) -> bool:
    """Whether a router answer matches one engine's replayed answer."""
    answer = np.asarray(answer)
    reference = np.asarray(reference)
    if answer.shape != reference.shape:
        return False
    return bool(np.max(np.abs(answer - reference), initial=0.0) <= ROUTER_TOL)


def mc_ok(mc_values: np.ndarray, exact_values: np.ndarray, certificate: dict) -> bool:
    """Whether a Monte Carlo answer is within the epsilon it certifies."""
    err = np.max(np.abs(np.asarray(mc_values) - np.asarray(exact_values)))
    return bool(err <= float(certificate["epsilon"]))


def ok_fraction(passed: int, attempted: int) -> float:
    """Share of attempted requests that returned and passed their check."""
    if attempted <= 0:
        raise ValueError("no request was attempted")
    return passed / attempted
