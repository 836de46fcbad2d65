"""Shared test fixtures: independent oracles and hand-built scenario streams.

The brute-force functions here deliberately avoid the library's DP and
matrix-summation code paths so they can serve as independent checks.
"""

import math
from itertools import product

import numpy as np

from retrainer import (
    CostMatrix,
    CumulativeThresholdPolicy,
    DataBatch,
    PeriodicPolicy,
    QueryBatch,
    Strategy,
    ThresholdPolicy,
    replay_policy,
    strategy_cost,
)
from retrainer.models import LogisticClassifier


def reachable_strategies(start, end):
    """Every strategy the decision loop can produce over [start, end]."""
    n = end - start + 1
    for bits in product((0, 1), repeat=n - 1):
        served = [start]
        for i, bit in enumerate(bits, start=1):
            served.append(start + i if bit else served[-1])
        yield Strategy(start, end, np.array(served, dtype=np.int64))


def naive_strategy_cost(strategy, c):
    """Per-element accumulation, independent of the vectorized implementation."""
    total = 0.0
    for t in range(strategy.start, strategy.end + 1):
        total += c.entries[strategy.serving(t) - c.start, t - c.start]
    return total


def brute_force_optimum(c: CostMatrix):
    """(min cost, best strategy) by exhaustive enumeration."""
    best_cost, best = None, None
    for s in reachable_strategies(c.start, c.end):
        cost = naive_strategy_cost(s, c)
        if best_cost is None or cost < best_cost:
            best_cost, best = cost, s
    return best_cost, best


def random_cost_matrix(rng, n, kappa, start=0, low=-1.0, high=1.0):
    """Uniform off-diagonal staleness, constant kappa, +inf below diagonal."""
    entries = np.full((n, n), np.inf)
    iu = np.triu_indices(n, k=1)
    entries[iu] = rng.uniform(low, high, size=iu[0].size)
    np.fill_diagonal(entries, kappa)
    return CostMatrix(start, entries, kappa)


# ---------------------------------------------------------------------------
# Reference offline calibration: one replay per candidate.
#
# The same candidates, refinement and tie rules as ``optimize_offline``, but
# every candidate is priced by running the policy object through
# ``replay_policy`` and ``strategy_cost``; the batched evaluator must return
# the same parameters.
# ---------------------------------------------------------------------------


def replay_cost(policy, c):
    return strategy_cost(replay_policy(policy, c), c)


def _reference_candidates(values):
    finite = np.unique(values[np.isfinite(values)])
    return np.concatenate(([-math.inf], finite, [math.inf]))


def _reference_search(make, candidates, c, refine=64):
    evaluated = [(float(tau), replay_cost(make(tau), c)) for tau in candidates]
    best_tau, _ = min(evaluated, key=lambda item: (item[1], -item[0]))
    idx = int(np.searchsorted(candidates, best_tau))
    lo = candidates[idx - 1] if idx > 0 else -math.inf
    hi = candidates[idx + 1] if idx + 1 < candidates.size else math.inf
    if math.isfinite(lo) and math.isfinite(hi) and hi > lo:
        for tau in np.linspace(lo, hi, refine):
            evaluated.append((float(tau), replay_cost(make(tau), c)))
    best_tau, _ = min(evaluated, key=lambda item: (item[1], -item[0]))
    return best_tau


def reference_optimize_offline(family, c):
    """Per-candidate replay search; returns the calibrated policy."""
    psi = c.staleness_entries()
    upper = psi[np.triu_indices(c.n, k=1)] if c.n > 1 else np.empty(0)
    if family == "threshold":
        if upper.size == 0 or not np.any(upper != 0.0):
            return ThresholdPolicy(math.inf)
        return ThresholdPolicy(_reference_search(ThresholdPolicy, _reference_candidates(upper), c))
    if family == "cumulative":
        if upper.size == 0 or not np.any(upper != 0.0):
            return CumulativeThresholdPolicy(math.inf)
        sums = []
        for i in range(c.n - 1):
            row = psi[i, i + 1 :]
            sums.append(np.cumsum(row[np.isfinite(row)]))
        candidates = _reference_candidates(np.concatenate(sums))
        tau = _reference_search(CumulativeThresholdPolicy, candidates, c)
        return CumulativeThresholdPolicy(tau)
    assert family == "periodic"
    best = None
    for period in range(1, max(1, c.end) + 1):
        for offset in range(period):
            key = (replay_cost(PeriodicPolicy(period, offset), c), -period, offset)
            if best is None or key < best[0]:
                best = (key, period, offset)
    return PeriodicPolicy(best[1], best[2])


# ---------------------------------------------------------------------------
# Hand-built 4-batch scenario streams (deterministic, no rng).
#
# Linear drift: the true class boundary sits at x1 = 5 + t; each class is a
# fixed grid on its side of the boundary, so the initial model misclassifies
# a steadily growing set of invading class-0 points. "Near" queries sit right
# on that invading front, "far" queries sit deep inside stable class-0
# territory.
# ---------------------------------------------------------------------------

SCENARIO_MODEL = LogisticClassifier(learning_rate=0.5, epochs=300)


def drift_batch(t):
    boundary = 5.0 + t
    x1_class0 = np.array([boundary - 0.5 - 3.0 * j / 9 for j in range(10)])
    x1_class1 = np.array([boundary + 0.5 + 3.0 * j / 9 for j in range(10)])
    rows, labels = [], []
    for x2 in (-1.0, 1.0):
        for v in x1_class0:
            rows.append([v, x2])
            labels.append(0)
        for v in x1_class1:
            rows.append([v, x2])
            labels.append(1)
    return DataBatch(t, np.array(rows), labels)


def _query_grid(t, x1_center):
    rows = [[x1_center + dx, x2] for x2 in (-1.0, 1.0) for dx in (-0.2, -0.1, 0.0, 0.1, 0.2)]
    return QueryBatch(t, np.array(rows))


def near_queries(t):
    return _query_grid(t, 5.0 + t - 0.5)


def far_queries(t):
    return _query_grid(t, -2.0)


def drift_scenario(query_position="near", n_batches=4):
    data = [drift_batch(t) for t in range(n_batches)]
    make = near_queries if query_position == "near" else far_queries
    queries = [make(t) for t in range(n_batches)]
    return data, queries, SCENARIO_MODEL.clone()


def static_batch(t):
    """Same labeled grid at every t; the boundary sits at x1 = 5."""
    x1_class0 = np.linspace(1.5, 4.5, 10)
    x1_class1 = np.linspace(5.5, 8.5, 10)
    rows, labels = [], []
    for x2 in (-1.0, 1.0):
        for v in x1_class0:
            rows.append([v, x2])
            labels.append(0)
        for v in x1_class1:
            rows.append([v, x2])
            labels.append(1)
    return DataBatch(t, np.array(rows), labels)


def marching_queries(t):
    """Queries drift toward the (static) boundary batch by batch."""
    return _query_grid(t, 1.0 + 1.3 * t)


def static_scenario(n_batches=4):
    data = [static_batch(t) for t in range(n_batches)]
    queries = [marching_queries(t) for t in range(n_batches)]
    return data, queries, SCENARIO_MODEL.clone()
