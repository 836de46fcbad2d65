"""Shared test fixtures: independent oracles and hand-built scenario streams.

The brute-force functions here deliberately avoid the library's DP and
matrix-summation code paths so they can serve as independent checks, and the
reference staleness forms restate the per-query definition that
``StreamCosts.staleness_matrix`` computes as whole matrices.
"""

import copy
import math
from itertools import product

import numpy as np

from retrainer import (
    ContractViolationError,
    CostMatrix,
    DataBatch,
    InvalidInputError,
    QueryBatch,
    Strategy,
    replay_policy,
    strategy_cost,
)
from retrainer.costmatrix import format_value, rbf_weights, write_csv
from retrainer.models import LogisticClassifier
from retrainer.policies import CumulativeThresholdPolicy, PeriodicPolicy, ThresholdPolicy
from retrainer.validation import check_same_dim


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
        total += c.cost(strategy.serving(t), t)
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
    """Uniform staleness above the diagonal, 0 on it and +inf below; constant kappa."""
    staleness = np.full((n, n), np.inf)
    iu = np.triu_indices(n, k=1)
    staleness[iu] = rng.uniform(low, high, size=iu[0].size)
    np.fill_diagonal(staleness, 0.0)
    return CostMatrix(start, staleness, kappa)


def reference_dp_table(c: CostMatrix):
    """The oracle's (n, n) best-cost table filled whole, with range-relative
    indices: the first column is the cumulative cost of never retraining,
    interior cells extend the previous row's value by one batch, and the
    diagonal pays kappa on top of the previous row's minimum."""
    n = c.n
    E = c.staleness.copy()
    np.fill_diagonal(E, c.kappa)
    V = np.full((n, n), math.inf)
    V[:, 0] = np.cumsum(E[0, :])
    for t in range(1, n):
        prev = V[t - 1]
        if t > 1:
            V[t, 1:t] = E[1:t, t] + prev[1:t]
        V[t, t] = E[t, t] + prev[:t].min()
    return V


def reference_save_stream_csv(path, data, queries):
    """The stream CSV as ``csv.writer`` writes it, each feature through
    ``format_value``: the bytes ``save_stream_csv`` must write."""
    query_by_t = {q.t: q for q in queries}

    def rows():
        for batch in data:
            for x, y in zip(batch.X, batch.y):
                yield [batch.t] + [format_value(v) for v in x] + [int(y), 0]
            q = query_by_t.get(batch.t)
            if q is not None:
                for x, y in zip(q.X, q.eval_labels):
                    yield [batch.t] + [format_value(v) for v in x] + [int(y), 1]

    write_csv(path, ["t"] + [f"f{i}" for i in range(data[0].dim)] + ["label", "is_query"], rows())


# Streams that break "batch t at position t", as (data indices, query
# indices, the refusal), each list in stream order; ``indexed_stream`` builds
# them.
MALFORMED_STREAMS = {
    "empty": ([], [], "data stream is empty"),
    "gap": ([0, 2], [0, 2], "data batch 2 is at position 1"),
    "not-from-0": ([1, 2], [], "data batch 1 is at position 0"),
    "index-10": ([10], [10], "data batch 10 is at position 0"),
    "duplicate-data": ([0, 0, 1], [0, 1], "data batch 0 is at position 1"),
    "misordered-data": ([1, 0], [1, 0], "data batch 1 is at position 0"),
    "duplicate-query": ([0, 1, 2], [0, 1, 1], "query batch 1 is at position 2"),
    "misordered-query": ([0, 1, 2], [0, 2, 1], "query batch 2 is at position 1"),
    "partial-queries": ([0, 1, 2], [0], "expected 3 query batches or none, got 1"),
    "stray-query": ([0, 1, 2], [0, 1, 2, 7], "expected 3 query batches or none, got 4"),
}


def indexed_stream(data_ts, query_ts):
    """2-D data batches of two points and labeled query batches of one, at
    the given indices and in the given order; the k-th batch of each list
    has every feature at k."""
    data = [DataBatch(t, np.full((2, 2), float(k)), [0, 1]) for k, t in enumerate(data_ts)]
    queries = [QueryBatch(t, np.full((1, 2), float(k)), [1]) for k, t in enumerate(query_ts)]
    return data, queries


# ---------------------------------------------------------------------------
# Reference staleness: the definition, one query and one point at a time.
#
#   query_staleness(q, D, M) = (1/|D|) * sum over (x, y) in D of
#                                  sim(q, x) * loss(M, x, y)
#
# summed over a query batch for ``staleness_total``; ``relative_staleness``
# is the total on today's batch minus the total on the training batch.
# ---------------------------------------------------------------------------


def as_point(x, dim=None, name="point"):
    """A finite 1-D float64 vector, optionally checked to have ``dim`` features."""
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size < 1:
        raise InvalidInputError(f"{name} must have at least one feature")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains NaN or infinite entries")
    if dim is not None and arr.size != dim:
        raise InvalidInputError(f"{name} has {arr.size} features, expected {dim}")
    return arr


def rbf_similarity(q, x, gamma):
    """exp(-gamma * ||q - x||^2); symmetric, in (0, 1]."""
    q = as_point(q, name="q")
    x = as_point(x, dim=q.size, name="x")
    diff = q - x
    return float(np.exp(-gamma * float(diff @ diff)))


def zero_one_loss(model, x, y):
    """1 if the model mislabels the point, else 0."""
    return int(model.predict(as_point(x).reshape(1, -1))[0] != int(y))


def error_vector(model, batch):
    """Per-point 0/1 losses of the model on a batch, in stream order."""
    return (model.predict(batch.X) != batch.y).astype(np.float64)


def query_staleness(q, data, model, gamma):
    """Expected loss of one query in the region of the data; in [0, 1]."""
    if data.size == 0:
        raise InvalidInputError("data batch is empty")
    q = as_point(q, dim=data.dim, name="q")
    sims = rbf_weights(q.reshape(1, -1), data.X, gamma)[0]
    return float(sims @ error_vector(model, data)) / data.size


def staleness_total(queries, data, model, gamma):
    """Sum of per-query staleness over the batch; in [0, n_queries]."""
    if data.size == 0:
        raise InvalidInputError("data batch is empty")
    check_same_dim(data.dim, queries.dim, name="queries")
    sims = rbf_weights(queries.X, data.X, gamma)
    return float(sims.sum(axis=0) @ error_vector(model, data)) / data.size


def relative_staleness(queries, data_now, data_train, model, gamma):
    """Increase in staleness from the training batch to the current batch.

    Requires the model to have been trained on ``data_train`` and that batch
    to be no newer than ``data_now``.
    """
    trained_at = getattr(model, "trained_at_", None)
    if trained_at is not None and trained_at != data_train.t:
        raise ContractViolationError(f"model was trained at batch {trained_at}, not at {data_train.t}")
    if data_train.t > data_now.t:
        raise ContractViolationError(
            f"training batch {data_train.t} is newer than current batch {data_now.t}"
        )
    return staleness_total(queries, data_now, model, gamma) - staleness_total(
        queries, data_train, model, gamma
    )


def reference_sigmoid(z):
    """The logistic function with one branch per sign, each computed on its
    own gathered points."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_logistic_fit(X, y, learning_rate, epochs):
    """``LogisticClassifier``'s gradient descent as one expression per epoch,
    each allocating its results: the ``(coef_, intercept_)`` a fit must give
    bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    if y.min() != y.max():
        yf = y.astype(np.float64)
        for _ in range(epochs):
            z = X @ w + b
            e = np.exp(-np.abs(z))
            residual = np.where(z >= 0, 1.0, e) / (1.0 + e) - yf
            w -= learning_rate * (X.T @ residual / n)
            b -= learning_rate * float(residual.mean())
    return w, b


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
    psi = c.staleness
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
# Reference drift detectors: each reads one error bit at a time. The
# policies decide a whole batch in one call; their decisions, and their state
# when nothing is detected, must be these.
# ---------------------------------------------------------------------------


def reference_ddm(bits, min_samples=30, drift_sigma=3.0):
    """DDM's running statistics recomputed bit by bit: the index of the first
    detection (None if there is none) and the statistics (n, errors, p_min,
    s_min) after the last bit read."""
    n = errors = 0
    p_min = s_min = math.inf
    for i, bit in enumerate(bits):
        n += 1
        errors += bit
        if n < min_samples:
            continue
        p = errors / n
        s = math.sqrt(p * (1 - p) / n)
        if p + s < p_min + s_min:
            p_min, s_min = p, s
        if p + s >= p_min + drift_sigma * s_min and p + s > p_min + s_min:
            return i, (n, errors, p_min, s_min)
    return None, (n, errors, p_min, s_min)


class ReferenceAdwinDetector:
    """ADWIN one bit at a time: insert the bit, merge overflowing levels,
    then walk every cut of the window through a generator, oldest bucket
    first. ``update`` is True at the first cut that is a drift; the window
    is never shrunk, because a drift restarts the policy."""

    def __init__(self, delta, max_buckets):
        self.delta = delta
        self.max_buckets = max_buckets
        self.reset()

    def reset(self):
        self.rows_ = [[]]  # per level, oldest bucket sum first
        self.width_ = 0
        self.total_ = 0.0

    def update(self, bit) -> bool:
        value = float(bit)
        self.rows_[0].append(value)
        self.width_ += 1
        self.total_ += value
        level = 0
        while len(self.rows_[level]) > self.max_buckets:
            if level + 1 == len(self.rows_):
                self.rows_.append([])
            # the merged pair is newer than everything already at level + 1
            self.rows_[level + 1].append(self.rows_[level].pop(0) + self.rows_[level].pop(0))
            level += 1
        return any(self._cuts())

    def _buckets_oldest_first(self):
        for level in range(len(self.rows_) - 1, -1, -1):
            size = float(1 << level)
            for s in self.rows_[level]:
                yield size, s

    def _cuts(self):
        """Per cut of the window, oldest first, whether it is a drift."""
        width = self.width_
        log_term = math.log(4.0 / (self.delta / width))
        n0 = 0.0
        sum0 = 0.0
        for size, s in self._buckets_oldest_first():
            n0 += size
            sum0 += s
            n1 = width - n0
            if n1 <= 0:
                return
            mu0 = sum0 / n0
            mu1 = (self.total_ - sum0) / n1
            m = 1.0 / (1.0 / n0 + 1.0 / n1)
            yield abs(mu0 - mu1) >= math.sqrt(log_term / (2.0 * m))


# ---------------------------------------------------------------------------
# Reference forest: each tree grows depth first, every node argsorting its
# own rows, and predict walks each tree one level at a time and counts the
# votes, as the forest once did. The library's level-wise growth must give
# the same trees, node for node and threshold for threshold, and its vote
# table the same predictions.
# ---------------------------------------------------------------------------


class ReferenceCartTree:
    def __init__(self, max_depth):
        self.max_depth = max_depth
        self.feature, self.threshold, self.left, self.right, self.value = [], [], [], [], []

    def fit(self, X, y):
        self._grow(X, y, 0)
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=np.int64)
        return self

    def _grow(self, X, y, depth):
        node = len(self.feature)
        n = y.size
        ones = int(y.sum())
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(node)
        self.right.append(node)
        self.value.append(1 if 2 * ones > n else 0)
        if depth >= self.max_depth or ones == 0 or ones == n:
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        feat, thr = split
        mask = X[:, feat] <= thr
        self.feature[node] = int(feat)
        self.threshold[node] = float(thr)
        self.left[node] = self._grow(X[mask], y[mask], depth + 1)
        self.right[node] = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    @staticmethod
    def _best_split(X, y):
        n = y.size
        best_gini = math.inf
        best = None
        for feat in range(X.shape[1]):
            vals = X[:, feat]
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            ones = np.cumsum(y[order])
            boundaries = np.nonzero(sv[1:] > sv[:-1])[0]
            if boundaries.size == 0:
                continue
            n_left = boundaries + 1.0
            ones_left = ones[boundaries].astype(np.float64)
            n_right = n - n_left
            ones_right = ones[-1] - ones_left
            gini_left = 1.0 - (ones_left / n_left) ** 2 - ((n_left - ones_left) / n_left) ** 2
            gini_right = 1.0 - (ones_right / n_right) ** 2 - ((n_right - ones_right) / n_right) ** 2
            weighted = (n_left * gini_left + n_right * gini_right) / n
            k = int(np.argmin(weighted))
            if weighted[k] < best_gini:
                best_gini = float(weighted[k])
                cut = boundaries[k]
                lo, hi = sv[cut], sv[cut + 1]
                with np.errstate(over="ignore"):
                    mid = 0.5 * (lo + hi)
                best = (int(feat), mid if lo <= mid < hi else lo)
        return best


def reference_forest_trees(forest, X, y):
    """The trees ``forest``'s hyperparameters grow on (X, y), each node argsorting its rows."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if y.min() == y.max():
        return []
    n = X.shape[0]
    rng = np.random.default_rng(forest.seed) if forest.bootstrap else None
    trees = []
    for _ in range(forest.n_trees):
        idx = rng.integers(0, n, size=n) if forest.bootstrap else np.arange(n)
        trees.append(ReferenceCartTree(forest.max_depth).fit(X[idx], y[idx]))
    return trees


def canonical_tree(nodes, root):
    """The tree under ``root`` of the flat node arrays ``(feature, threshold,
    left, right, value)`` as nested ``(feature, threshold bits, value, left
    subtree, right subtree)``, whatever the node numbering; a child that is
    the node itself (as a leaf's are) reads None."""
    feature, threshold, left, right, value = nodes

    def subtree(node):
        children = [None if child == node else subtree(child) for child in (left[node], right[node])]
        return (int(feature[node]), threshold[node].tobytes(), int(value[node]), *children)

    return subtree(root)


def reference_nodes(tree):
    return tree.feature, tree.threshold, tree.left, tree.right, tree.value


def reference_tree_predict(tree, X):
    idx = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.arange(X.shape[0])
    for _ in range(tree.max_depth):
        feat = tree.feature[idx]
        internal = feat >= 0
        if not internal.any():
            break
        xf = X[rows, np.where(internal, feat, 0)]
        go_left = xf <= tree.threshold[idx]
        nxt = np.where(go_left, tree.left[idx], tree.right[idx])
        idx = np.where(internal, nxt, idx)
    return tree.value[idx]


def reference_forest_predict(trees, n_trees, X):
    """Majority vote of the walked trees; a tie resolves to class 0."""
    votes = np.zeros(X.shape[0], dtype=np.int64)
    for tree in trees:
        votes += reference_tree_predict(tree, X)
    return (2 * votes > n_trees).astype(np.int64)


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
    return data, queries, copy.copy(SCENARIO_MODEL)


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
    return data, queries, copy.copy(SCENARIO_MODEL)
