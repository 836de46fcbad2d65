"""Interval cost matrices and retraining strategies.

For a batch range [start, end] the cost matrix C holds, at C[t', t]:

* t' <  t : the relative staleness of serving batch t with the model
            trained at t' (may be negative, never clamped);
* t' == t : the retraining cost kappa_t charged for training at t;
* t' >  t : +inf (a model cannot serve batches before it exists).

A strategy records which trained model served each batch. Reachable
strategies start with a forced training at ``start`` and at every later step
either keep the previous model or switch to one trained at the current
batch. The cost of a strategy is the sum of its matrix entries.

``StreamCosts`` is the shared computation cache behind matrix builds, policy
replays and evaluation: per-batch fitted models and query predictions are
computed once and reused, and ``staleness_matrix`` is the one place staleness
is computed.
Staleness entries do not depend on kappa, so the matrices of every kappa
over one range share the one cached staleness array.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InvalidInputError
from .models import BaseClassifier, fit_model
from .streams import DataBatch, QueryBatch, check_stream
from .validation import as_count, as_int, as_point_matrix, check_finite, check_same_dim


def rbf_weights(Q, X, gamma: float) -> np.ndarray:
    """Pairwise similarities exp(-gamma * ||q - x||^2), shape (n_queries, n_points)."""
    Q = as_point_matrix(Q, name="Q")
    X = as_point_matrix(X, name="X")
    check_same_dim(Q.shape[1], X.shape[1], name="X")
    return _rbf(np.dot(Q, X.T), _sq_norms(Q), _sq_norms(X), gamma)


def _sq_norms(P: np.ndarray) -> np.ndarray:
    return np.sum(P * P, axis=1)


def _rbf(G: np.ndarray, qq: np.ndarray, xx: np.ndarray, gamma: float) -> np.ndarray:
    """The RBF kernel from the cross products ``G`` of queries and points,
    given their squared norms; ``G`` is overwritten.

    ``G`` has shape (..., n_queries, n_points), ``qq`` (..., n_queries) and
    ``xx`` (n_points,), so a stack of kernels against one set of points is
    one call. Every step is elementwise, so each similarity keeps its bits
    whatever the stack. At most ``G`` and one result array are alive."""
    G *= 2.0
    sq = qq[..., None] + xx
    sq -= G
    del G
    np.maximum(sq, 0.0, out=sq)
    sq *= -gamma
    return np.exp(sq, out=sq)


@dataclass(frozen=True)
class Strategy:
    """Model assignment s_t for every batch t in [start, end]."""

    start: int
    end: int
    served_by: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "start", as_int(self.start, "strategy start", 0))
        object.__setattr__(self, "end", as_int(self.end, "strategy end", 0))
        if self.end < self.start:
            raise InvalidInputError(f"strategy range [{self.start}, {self.end}] ends before it starts")
        served = as_count(self.served_by, "served_by", 0)
        if served.ndim != 1 or served.size != self.end - self.start + 1:
            raise InvalidInputError(
                f"served_by must have length {self.end - self.start + 1}, got {served.size}"
            )
        object.__setattr__(self, "served_by", served)

    def serving(self, t: int) -> int:
        """Training batch of the model that served batch t."""
        if not self.start <= t <= self.end:
            raise InvalidInputError(f"batch {t} outside strategy range [{self.start}, {self.end}]")
        return int(self.served_by[t - self.start])

    @property
    def n_retrains(self) -> int:
        """Number of trainings, including the forced one at ``start``."""
        t = np.arange(self.start, self.end + 1)
        return int(np.count_nonzero(self.served_by == t))

    @property
    def retrain_batches(self) -> tuple[int, ...]:
        t = np.arange(self.start, self.end + 1)
        return tuple(int(v) for v in t[self.served_by == t])

    def __str__(self):
        return "|".join(str(int(s)) for s in self.served_by)


def validate_strategy(strategy: Strategy) -> str | None:
    """Return None if the strategy is reachable by the decision loop,
    otherwise a description of the first violation."""
    s = strategy.served_by
    if s[0] != strategy.start:
        return (
            f"s_{strategy.start} = {s[0]} but the initial training must happen "
            f"at the range start {strategy.start}"
        )
    for i in range(1, s.size):
        t = strategy.start + i
        if s[i] != s[i - 1] and s[i] != t:
            return f"s_{t} = {s[i]} is neither the previous model {s[i - 1]} nor {t}"
    return None


@dataclass(frozen=True)
class CostMatrix:
    """Decision costs for batches [start, end]: C[t', t] is ``kappa[j]`` for
    t' == t and ``staleness[i, j]`` otherwise, with (i, j) = (t' - start,
    t - start). ``staleness`` is 0 on its diagonal and +inf below it, and is
    kept as a read-only view, so every kappa shares the cache's one array."""

    start: int
    staleness: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "start", as_int(self.start, "cost matrix start", 0))
        psi = np.asarray(self.staleness, dtype=np.float64)
        if psi.ndim != 2 or psi.shape[0] != psi.shape[1] or psi.size == 0:
            raise InvalidInputError(f"staleness must be square and non-empty, got shape {psi.shape}")
        kappa = np.asarray(self.kappa, dtype=np.float64)
        if kappa.ndim != 0 and kappa.shape != (psi.shape[0],):
            raise InvalidInputError(f"kappa must be a scalar or a length-{psi.shape[0]} vector, got shape {kappa.shape}")
        kappa = np.broadcast_to(kappa, (psi.shape[0],)).copy()
        if not (np.all(np.isfinite(kappa)) and np.all(kappa >= 0)):
            raise InvalidInputError(f"retraining costs must be finite and >= 0, got {kappa}")
        for i, row in enumerate(psi):  # row by row: no n^2 temporary
            nan = self.start + np.flatnonzero(np.isnan(row))
            if nan.size:
                raise InvalidInputError(f"cost matrix cell (t_prime={self.start + i}, t={nan[0]}) is NaN")
            if row[i] != 0.0 or np.isfinite(row[:i]).any():
                raise InvalidInputError(f"staleness row {self.start + i} is not 0 on the diagonal and infinite below")
        psi = psi.view()
        psi.flags.writeable = False
        object.__setattr__(self, "staleness", psi)
        object.__setattr__(self, "kappa", kappa)

    @property
    def n(self) -> int:
        return self.staleness.shape[0]

    @property
    def end(self) -> int:
        return self.start + self.n - 1

    def cost(self, t_prime: int, t: int) -> float:
        """C[t', t] with absolute batch indices."""
        if not self.start <= min(t_prime, t) <= max(t_prime, t) <= self.end:
            raise InvalidInputError(f"cell ({t_prime}, {t}) outside matrix range [{self.start}, {self.end}]")
        i, j = t_prime - self.start, t - self.start
        return float(self.kappa[j] if i == j else self.staleness[i, j])

    def to_csv(self, path) -> None:
        """Write all cells as (t_prime, t, value) rows; inf as the literal 'inf'."""
        batches = range(self.start, self.end + 1)
        rows = ([tp, t, format_value(self.cost(tp, t))] for tp in batches for t in batches)
        write_csv(path, ["t_prime", "t", "value"], rows)


def format_value(x: float) -> str:
    """Shortest round-trip decimal text; infinities as 'inf' / '-inf'."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


def write_csv(path, header, rows) -> None:
    """Write a header line and then the rows through ``csv.writer``. Every CSV
    the package writes goes through here except the stream CSV, whose cells
    never need quoting (see ``harness.save_stream_csv``)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class StreamCosts:
    """Caches everything derivable from (streams, model prototype, gamma).

    The staleness of a model M with respect to a query q is M's expected
    misclassification in the query's neighborhood:

        psi(q, D, M) = (1/|D|) * sum over (x, y) in D of
                           sim(q, x) * loss(M, x, y)

    with an RBF similarity sim(q, x) = exp(-gamma * ||q - x||^2) (``gamma``
    defaults to 1/d) and the 0/1 loss. Summing over a query batch Q gives
    total(Q, D, M). The decision signal is the *relative* staleness: how much
    worse the model trained at t' does on today's data than on the data it
    was trained on,

        total(Q_t, D_t, M_t') - total(Q_t, D_t', M_t').

    It is zero when the data distribution is static (retraining would
    reproduce the same model), and can be negative.

    The matrix is built one row (one model t') at a time, and a pair's error
    vector is dropped once its entry is known; ``errors`` computes a pair's
    vector on each request and keeps nothing.

    The training term reads the kernel only at the points its model gets
    wrong, and is exactly 0.0 for a model without training errors. That is
    exact, not an approximation: every other point adds sim * 0 = 0.0 to the
    dot product. The BLAS cross product still covers the whole batch, its
    erring columns are gathered, and the dot still runs over the whole error
    vector, so each product and each partial sum keeps its bits.

    A stream holds batch t at position t (``streams.check_stream``); the
    queries may be empty when only ``errors`` and fits are read.
    """

    def __init__(
        self,
        data,
        queries,
        model: BaseClassifier,
        gamma: float | None = None,
    ):
        check_stream(data, queries)
        self._data, self._queries = list(data), list(queries)
        self.model = model
        self.gamma = 1.0 / data[0].dim if gamma is None else gamma
        check_finite(self.gamma, "gamma")
        if not self.gamma > 0:
            raise InvalidInputError(f"gamma must be > 0, got {self.gamma}")
        self._models: dict[int, BaseClassifier] = {}
        self._query_preds: dict[tuple[int, int], np.ndarray] = {}
        self._staleness_base: dict[tuple[int, int], np.ndarray] = {}

    def data_batch(self, t: int) -> DataBatch:
        return _batch_at(self._data, t, "data")

    def query_batch(self, t: int) -> QueryBatch:
        return _batch_at(self._queries, t, "query")

    def model_at(self, t: int) -> BaseClassifier:
        """The model trained on batch t (fitted lazily, cached)."""
        if t not in self._models:
            self._models[t] = fit_model(self.data_batch(t), self.model)
        return self._models[t]

    def errors(self, t_model: int, t_data: int) -> np.ndarray:
        """0/1 losses of model t_model on data batch t_data, stream order, as
        bools; computed on each request, not kept."""
        batch = self.data_batch(t_data)
        return self.model_at(t_model).predict(batch.X) != batch.y

    def query_predictions(self, t_model: int, t_query: int) -> np.ndarray:
        key = (t_model, t_query)
        if key not in self._query_preds:
            self._query_preds[key] = self.model_at(t_model).predict(self.query_batch(t_query).X)
        return self._query_preds[key]

    def staleness_matrix(self, start: int, end: int) -> np.ndarray:
        """Upper-triangular relative staleness over [start, end]; zero diagonal,
        +inf below. Cached per range, read-only, and shared across kappa values.

        Entry (t', t) is total(Q_t, D_t) - total(Q_t, D_t') for the model
        trained at t', where total(Q, D) is the query kernel mass on each
        point of D dotted with the model's 0/1 errors there, over |D|.

        The range's points are stacked once, beside their labels, after the
        column masses are known. Row i labels the view of that stack from
        batch i on with one ``predict_batches`` call, which predicts each
        batch as ``predict`` would alone; every other step keeps the
        arithmetic of one pair, so each entry has the bits of the per-pair
        definition.
        """
        key = (start, end)
        if key not in self._staleness_base:
            n = end - start + 1
            if n < 1:
                raise InvalidInputError(f"invalid batch range [{start}, {end}]")
            data = [self.data_batch(t) for t in range(start, end + 1)]
            queries = [self.query_batch(b.t).X for b in data[1:]]
            # fit before the build holds any array, so a fit's scratch stacks on nothing
            models = [self.model_at(b.t) for b in data[:-1]]
            qq = [_sq_norms(Q) for Q in queries]
            mass = [rbf_weights(Q, b.X, self.gamma).sum(axis=0) for Q, b in zip(queries, data[1:])]
            sizes = [b.size for b in data]
            bounds = np.cumsum([0] + sizes)
            points = np.concatenate([b.X for b in data])
            labels = np.concatenate([b.y for b in data])
            out = np.full((n, n), math.inf)
            np.fill_diagonal(out, 0.0)
            for i, model in enumerate(models):
                train = data[i]
                wrong = model.predict_batches(points[bounds[i] :], sizes[i:]) != labels[bounds[i] :]
                wrong = wrong.astype(np.float64)
                lo, hi = bounds[i + 1 : -1] - bounds[i], bounds[i + 2 :] - bounds[i]
                row = np.array([np.dot(w, wrong[a:b]) for w, a, b in zip(mass[i:], lo.tolist(), hi.tolist())])
                row /= hi - lo
                row -= self._training_term(train, wrong[: train.size], queries[i:], qq[i:])
                out[i, i + 1 :] = row
            out.flags.writeable = False
            self._staleness_base[key] = out
        return self._staleness_base[key]

    def _training_term(self, train: DataBatch, e_train, queries, qq):
        """total(Q_t, D_t') for the model trained on ``train``, per query batch
        Q_t (0.0 for a model without training errors); ``e_train`` holds its
        errors on ``train`` and ``qq`` the queries' squared norms.

        Each cross product Q_t @ X_t'.T is its own BLAS call (``np.dot``,
        which gives ``@``'s bits at less cost per call); the elementwise
        steps and the per-query sums run over a block of query batches of
        one size, no larger than one full Q_t x D_t' kernel. A lone erring
        point is gathered twice: numpy sums a one-column block pairwise, but
        a wider one row by row, as it sums a full kernel (a one-point batch
        is one class, so its model never errs there)."""
        cols = np.flatnonzero(e_train)
        if cols.size == 0:
            return 0.0
        if cols.size == 1:
            cols = cols.repeat(2)
        XT, xx = train.X.T, _sq_norms(train.X)[cols]
        per_block = train.size // cols.size
        w = np.zeros(train.size)  # only its erring columns are ever written
        term = np.empty(len(queries))
        lo = 0
        while lo < len(queries):
            n_queries, last = queries[lo].shape[0], min(lo + per_block, len(queries))
            hi = lo + 1
            while hi < last and queries[hi].shape[0] == n_queries:
                hi += 1
            G = np.empty((hi - lo, n_queries, cols.size))
            for Q, g in zip(queries[lo:hi], G):
                # cols are in range, so "clip" never clips; it spares take the
                # copy through a buffer that its default mode makes
                np.dot(Q, XT).take(cols, axis=1, out=g, mode="clip")
            sums = _rbf(G, np.array(qq[lo:hi]), xx, self.gamma).sum(axis=1)
            del G
            for j, kernel_sum in enumerate(sums, start=lo):
                w[cols] = kernel_sum
                term[j] = np.dot(w, e_train)
            lo = hi
        term /= train.size
        return term

    def cost_matrix(self, start: int, end: int, kappa) -> CostMatrix:
        return CostMatrix(start, self.staleness_matrix(start, end), kappa)


def _batch_at(batches: list, t: int, kind: str):
    """Batch t of a stream, which sits at position t."""
    if not 0 <= t < len(batches):
        raise InvalidInputError(f"no {kind} batch {t} in a stream of {len(batches)}")
    return batches[t]


def _served_terms(strategy: Strategy, c: CostMatrix) -> np.ndarray:
    """C[s_t, t] for every batch t of a reachable strategy over the matrix's range."""
    if strategy.start != c.start or strategy.end != c.end:
        raise ContractViolationError(
            f"strategy range [{strategy.start}, {strategy.end}] does not match "
            f"matrix range [{c.start}, {c.end}]"
        )
    violation = validate_strategy(strategy)
    if violation is not None:
        raise ContractViolationError(violation)
    return _cost_terms(c, strategy.served_by - c.start)


def _cost_terms(c: CostMatrix, rows: np.ndarray) -> np.ndarray:
    """C[rows[..., j], j] for range-relative serving rows of shape (..., n):
    ``kappa[j]`` where the model was trained at j, else the staleness."""
    cols = np.arange(c.n)
    terms = c.staleness[rows, cols]
    np.copyto(terms, c.kappa, where=rows == cols)
    return terms


def strategy_cost(strategy: Strategy, c: CostMatrix) -> float:
    """Sum of C[s_t, t] over the strategy's range."""
    return float(np.sum(_served_terms(strategy, c)))


def cumulative_cost_trace(strategy: Strategy, c: CostMatrix) -> np.ndarray:
    """Partial sums of the per-batch cost terms, added in batch order.
    Useful for plot-ready exports.

    The last value equals the DP's sequential sum (the oracle cost, for the
    oracle strategy) exactly, but may differ from ``strategy_cost`` in the
    last bits, because ``np.sum`` adds pairwise."""
    return np.cumsum(_served_terms(strategy, c))
