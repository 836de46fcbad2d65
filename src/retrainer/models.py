"""Binary classifiers used as the retrainable model.

Two native model classes are provided behind a small sklearn-style estimator
API (``fit`` / ``predict`` / ``get_params``), so they compose with pipeline
tooling without pulling in an ML framework:

* ``LogisticClassifier`` -- logistic regression trained with full-batch
  gradient descent on the log loss. Full-batch (rather than stochastic)
  updates keep training deterministic for the small per-batch datasets this
  package targets.
* ``ForestClassifier`` -- bagging of greedy CART trees grown on Gini
  impurity with midpoint thresholds. Fit ends by compiling the trees into a
  vote table over the grid their thresholds cut each feature into; predict
  looks each point's cell up in it. Every comparison a tree makes is constant
  within a cell, so the table gives the tree walk's votes bit for bit.

Determinism contract: fitting the same data with the same hyperparameters
(including ``seed``) produces a model with bit-identical predictions. To keep
that guarantee under drifting streams, single-class training batches produce
a constant classifier instead of raising.

Fitted models are immutable by convention and safe to share across threads.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .errors import InvalidInputError
from .streams import DataBatch
from .validation import as_binary_labels, as_count, as_point_matrix, check_fitted, check_number, check_same_dim


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.clip(z, -500.0, 500.0)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class BaseClassifier:
    """Shared estimator plumbing: parameter introspection, fit and predict glue.

    Subclasses store constructor arguments verbatim under the same attribute
    names, which is what makes ``get_params`` (and therefore sklearn-style
    cloning) work, and implement ``_validate_params``, ``_fit_impl`` and
    ``_predict_impl``.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def clone(self):
        """Unfitted copy with identical hyperparameters."""
        return type(self)(**self.get_params())

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    def fit(self, X, y):
        """Train on (X, y); a single-class batch gives a constant classifier."""
        self._validate_params()
        X = as_point_matrix(X, name="X")
        y = as_binary_labels(y, n=X.shape[0], name="y")
        self.n_features_in_ = X.shape[1]
        self.constant_ = int(y[0]) if y.min() == y.max() else None
        self._fit_impl(X, y)
        return self

    def _fit_impl(self, X: np.ndarray, y: np.ndarray) -> None:
        """Set the fitted attributes; ``constant_`` is already set."""
        raise NotImplementedError

    def _check_X(self, X) -> np.ndarray:
        check_fitted(self)
        X = as_point_matrix(X, name="X")
        check_same_dim(self.n_features_in_, X.shape[1], name="X")
        return X

    def predict(self, X) -> np.ndarray:
        """Predicted 0/1 labels for each row of X."""
        X = self._check_X(X)
        if self.constant_ is not None:
            return np.full(X.shape[0], self.constant_, dtype=np.int64)
        return self._predict_impl(X)

    def _predict_impl(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LogisticClassifier(BaseClassifier):
    """Logistic regression via full-batch gradient descent.

    Parameters
    ----------
    learning_rate : float
        Step size for each gradient update; must be positive.
    epochs : int
        Number of full passes over the batch; must be >= 1.
    l2 : float
        L2 penalty on the weights (the intercept is not penalized).
    seed : int
        Kept for API uniformity; weights start at zero so training is
        deterministic regardless of the seed.

    Attributes (after fit)
    ----------------------
    coef_ : ndarray of shape (d,)
    intercept_ : float
    n_features_in_ : int
    constant_ : int or None
        Set when the training batch contained a single class.
    """

    def __init__(self, learning_rate: float = 0.1, epochs: int = 100, l2: float = 0.0, seed: int = 0):
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.seed = seed

    def _validate_params(self):
        check_number(self.learning_rate, "learning_rate")
        if not self.learning_rate > 0:
            raise InvalidInputError("learning_rate must be > 0")
        as_count(self.epochs, "epochs", 1)
        check_number(self.l2, "l2")
        if not self.l2 >= 0:
            raise InvalidInputError("l2 must be >= 0")

    def _fit_impl(self, X, y):
        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        if self.constant_ is None:
            yf = y.astype(np.float64)
            for _ in range(self.epochs):
                residual = _sigmoid(X @ w + b) - yf
                w -= self.learning_rate * (X.T @ residual / n + self.l2 * w)
                b -= self.learning_rate * float(residual.mean())
        self.coef_ = w
        self.intercept_ = b

    def _predict_impl(self, X: np.ndarray) -> np.ndarray:
        # probability 0.5 (margin exactly 0) resolves to class 0
        return (X @ self.coef_ + self.intercept_ > 0).astype(np.int64)


# A forest builds its vote table only when the grid has at most this many
# cells per tree node; past that, predict walks the trees. The table, one bit
# per cell, then adds at most 8 bytes per node to the 40 its tree arrays
# hold (callers cache a fitted model per batch), and it costs less to build
# than one walk over 1000 points. The 2-feature built-in streams reach at
# most 31 cells per node.
_TABLE_CELLS_PER_NODE = 64


class _CartTree:
    """Greedy CART tree on Gini impurity, stored as flat node arrays.

    Splits scan every distinct value of each candidate feature and place the
    threshold at the midpoint between consecutive sorted values. Ties in
    impurity resolve to the lowest feature index and then the smallest
    threshold, so tree structure is a pure function of the data.

    Each feature is argsorted once per tree (stably). A child's per-feature
    order is its parent's filtered by the split, which is exactly what a
    stable argsort of the child's rows gives, because ties stay in row order.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "max_depth")

    def __init__(self, max_depth: int):
        self.max_depth = max_depth
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[int] = []

    def fit(self, X: np.ndarray, y: np.ndarray, feature_fraction: float, rng: np.random.Generator | None):
        Xt = np.ascontiguousarray(X.T)
        orders = np.argsort(Xt, axis=1, kind="stable")
        self._grow(Xt, y, orders, depth=0, feature_fraction=feature_fraction, rng=rng)
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=np.int64)
        return self

    def _add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(0)
        self.right.append(0)
        self.value.append(0)
        return len(self.feature) - 1

    def _grow(self, Xt, y, orders, depth, feature_fraction, rng) -> int:
        """Grow the subtree over the rows in ``orders`` (row f: the rows sorted by feature f)."""
        node = self._add_node()
        n = orders.shape[1]
        ones = int(y[orders[0]].sum())
        majority = 1 if 2 * ones > n else 0
        self.value[node] = majority
        self.left[node] = node
        self.right[node] = node
        if depth >= self.max_depth or ones == 0 or ones == n:
            return node
        d = Xt.shape[0]
        if feature_fraction >= 1.0 or rng is None:
            candidates = np.arange(d)
        else:
            k = max(1, math.ceil(feature_fraction * d))
            candidates = np.sort(rng.choice(d, size=k, replace=False))
        split = self._best_split(Xt, y, orders, candidates)
        if split is None:
            return node
        feat, thr = split
        # every row of orders holds the node's rows, so each keeps as many as go left
        go_left = (Xt[feat] <= thr)[orders]
        self.feature[node] = int(feat)
        self.threshold[node] = float(thr)
        self.left[node] = self._grow(Xt, y, orders[go_left].reshape(d, -1), depth + 1, feature_fraction, rng)
        self.right[node] = self._grow(Xt, y, orders[~go_left].reshape(d, -1), depth + 1, feature_fraction, rng)
        return node

    @staticmethod
    def _best_split(Xt, y, orders, candidates) -> tuple[int, float] | None:
        n = orders.shape[1]
        best_gini = math.inf
        best = None
        for feat in candidates:
            order = orders[feat]
            sv = Xt[feat][order]
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
            k = int(np.argmin(weighted))  # first minimum -> smallest threshold
            if weighted[k] < best_gini:
                best_gini = float(weighted[k])
                cut = boundaries[k]
                best = (int(feat), 0.5 * (sv[cut] + sv[cut + 1]))
        return best

    def predict(self, X: np.ndarray) -> np.ndarray:
        idx = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.arange(X.shape[0])
        for _ in range(self.max_depth):
            feat = self.feature[idx]
            internal = feat >= 0
            if not internal.any():
                break
            xf = X[rows, np.where(internal, feat, 0)]
            go_left = xf <= self.threshold[idx]
            nxt = np.where(go_left, self.left[idx], self.right[idx])
            idx = np.where(internal, nxt, idx)
        return self.value[idx]


class ForestClassifier(BaseClassifier):
    """Bagged CART forest with majority voting.

    Parameters
    ----------
    n_trees : int
        Number of trees; must be >= 1.
    max_depth : int
        Maximum tree depth; must be >= 1.
    feature_fraction : float in (0, 1]
        Fraction of features considered at each split. With the value 1 no
        random feature draw happens at all, so together with
        ``bootstrap=False`` the fit is seed-independent.
    bootstrap : bool
        Whether each tree trains on a bootstrap resample of the batch.
    seed : int
        Seeds the bootstrap / feature subsampling generator.

    Ties in the vote (possible with an even tree count) resolve to class 0.

    Attributes (after fit)
    ----------------------
    trees_ : list of _CartTree
        Empty when the training batch contained a single class.
    cuts_ : list of ndarray, or None
        Per feature, the sorted distinct thresholds of all trees on it.
    table_ : ndarray of uint8, or None
        The forest's vote per cell of the grid the cuts draw, one bit per
        cell (C order, little-endian bits within a byte). A point's code
        on feature f is the number of cuts below its value, so ``x_f <= thr``
        holds exactly when the code is at most the index of ``thr``: every
        comparison of every tree is constant within a cell, and the table
        gives the walk's vote bit for bit. None (predict walks the trees)
        when the forest has no trees or its grid has more than 64 cells per
        tree node, which keeps the table within a fifth of the trees' size.
    """

    def __init__(
        self,
        n_trees: int = 25,
        max_depth: int = 8,
        feature_fraction: float = 1.0,
        bootstrap: bool = True,
        seed: int = 0,
    ):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.feature_fraction = feature_fraction
        self.bootstrap = bootstrap
        self.seed = seed

    def _validate_params(self):
        as_count(self.n_trees, "n_trees", 1)
        as_count(self.max_depth, "max_depth", 1)
        check_number(self.feature_fraction, "feature_fraction")
        if not 0.0 < self.feature_fraction <= 1.0:
            raise InvalidInputError("feature_fraction must be in (0, 1]")

    def _fit_impl(self, X, y):
        self.trees_ = []
        self.cuts_ = self.table_ = None
        if self.constant_ is not None:
            return
        n = X.shape[0]
        needs_rng = self.bootstrap or self.feature_fraction < 1.0
        rng = np.random.default_rng(self.seed) if needs_rng else None
        for _ in range(self.n_trees):
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
                Xb, yb = X[idx], y[idx]
            else:
                Xb, yb = X, y
            tree = _CartTree(self.max_depth).fit(Xb, yb, self.feature_fraction, rng)
            self.trees_.append(tree)
        self._build_table()

    def _build_table(self) -> None:
        """Set ``cuts_`` and ``table_`` when the grid has at most ``_TABLE_CELLS_PER_NODE`` cells per node."""
        feature = np.concatenate([tree.feature for tree in self.trees_])
        threshold = np.concatenate([tree.threshold for tree in self.trees_])
        cuts = []
        for f in range(self.n_features_in_):
            # np.unique would do, but its first call imports numpy.ma
            on_f = np.sort(threshold[feature == f])
            distinct = np.ones(on_f.size, dtype=bool)
            distinct[1:] = on_f[1:] != on_f[:-1]
            cuts.append(on_f[distinct])
        shape = [c.size + 1 for c in cuts]
        if math.prod(shape) > _TABLE_CELLS_PER_NODE * feature.size:
            return
        # a point goes left at a node exactly when its code is below the node's `bound`
        bound = np.zeros(feature.size, dtype=np.int64)
        for f, c in enumerate(cuts):
            on_f = feature == f
            bound[on_f] = np.searchsorted(c, threshold[on_f]) + 1
        votes = np.zeros(shape, dtype=np.min_scalar_type(self.n_trees))
        offset = 0
        for tree in self.trees_:
            size = tree.feature.size
            feat, left, right = tree.feature.tolist(), tree.left.tolist(), tree.right.tolist()
            value, cut = tree.value.tolist(), bound[offset : offset + size].tolist()
            offset += size
            # paint each leaf's box of codes [lo, hi) with an explicit stack
            stack = [(0, [0] * len(shape), shape)]
            while stack:
                node, lo, hi = stack.pop()
                f = feat[node]
                if f < 0:
                    if value[node]:
                        votes[tuple(map(slice, lo, hi))] += 1
                    continue
                k = cut[node]
                if lo[f] < k:
                    left_hi = list(hi)
                    left_hi[f] = min(hi[f], k)
                    stack.append((left[node], lo, left_hi))
                if hi[f] > k:
                    right_lo = list(lo)
                    right_lo[f] = max(lo[f], k)
                    stack.append((right[node], right_lo, hi))
        self.cuts_ = cuts
        # 2 * votes > n_trees, without doubling a narrow integer; one bit per cell
        self.table_ = np.packbits(votes > self.n_trees // 2, axis=None, bitorder="little")

    def _predict_impl(self, X: np.ndarray) -> np.ndarray:
        if self.table_ is None:
            votes = np.zeros(X.shape[0], dtype=np.int64)
            for tree in self.trees_:
                votes += tree.predict(X)
            return (2 * votes > self.n_trees).astype(np.int64)
        cell = np.zeros(X.shape[0], dtype=np.intp)
        for f, cuts in enumerate(self.cuts_):
            cell *= cuts.size + 1
            cell += np.searchsorted(cuts, X[:, f])
        return (self.table_[cell >> 3] >> (cell & 7)) & 1


def fit_model(batch: DataBatch, model: BaseClassifier) -> BaseClassifier:
    """Train a fresh copy of ``model`` on one data batch.

    The returned estimator records the batch it was trained on in
    ``trained_at_``; the prototype passed in is left untouched.
    """
    fitted = model.clone().fit(batch.X, batch.y)
    fitted.trained_at_ = batch.t
    return fitted


MODEL_KINDS = {
    "logistic": LogisticClassifier,
    "forest": ForestClassifier,
}


def make_model(kind: str, **params) -> BaseClassifier:
    """Instantiate a model prototype by name ('logistic' or 'forest')."""
    try:
        cls = MODEL_KINDS[kind]
    except KeyError:
        raise InvalidInputError(
            f"unknown model kind {kind!r}; expected one of {sorted(MODEL_KINDS)}"
        ) from None
    return cls(**params)
