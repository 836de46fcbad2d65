"""Binary classifiers used as the retrainable model.

Two native model classes are provided behind a small sklearn-style estimator
API (``fit`` / ``predict`` / ``get_params``), so they compose with pipeline
tooling without pulling in an ML framework:

* ``LogisticClassifier`` -- logistic regression trained with full-batch
  gradient descent on the log loss. Full-batch (rather than stochastic)
  updates keep training deterministic for the small per-batch datasets this
  package targets.
* ``ForestClassifier`` -- bagging of greedy CART trees grown on Gini
  impurity with midpoint thresholds. All trees of a fit grow together, one
  depth level per pass: every node of the level finds its best cut in one
  array pass per feature over all trees' rows, so the numpy calls per fit
  grow with the depth, not with the node count. With ``feature_fraction <
  1`` each node draws its candidate features from a generator keyed by the
  seed, its tree and its heap index, so the draw does not depend on the
  order in which nodes grow. Fit ends by compiling the
  trees into a vote table over the grid their thresholds cut each feature
  into; predict looks each point's cell up in it. Every comparison a tree
  makes is constant within a cell, so the table gives the tree walk's votes
  bit for bit.

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
from .validation import as_binary_labels, as_int, as_point_matrix, check_fitted, check_number, check_same_dim


def _sigmoid_inplace(z: np.ndarray, e: np.ndarray) -> None:
    """Overwrite ``z`` with the numerically stable logistic function of
    ``z`` clipped to [-500, 500]: 1 / (1 + e^-z) for z >= 0 and
    e^z / (1 + e^z) below, with e = exp(-|z|) serving both. The numerator
    is exp(min(z, 0)), which is exactly 1 for z >= 0 and the same float as e
    below. ``e`` is a float64 scratch buffer of z's shape."""
    np.minimum(z, 500.0, out=z)  # np.clip, without its Python-level wrapper
    np.maximum(z, -500.0, out=z)
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.minimum(z, 0.0, out=z)
    np.exp(z, out=z)
    e += 1.0
    z /= e


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
        return self.predict_batches([X])

    def predict_batches(self, Xs) -> np.ndarray:
        """Predicted 0/1 labels of each point matrix in ``Xs``, concatenated in order.

        Every matrix gets the labels ``predict`` gives it alone, but all of
        them are checked in one pass over their concatenation."""
        check_fitted(self)
        Xs = [np.asarray(X, dtype=np.float64) for X in Xs]
        Xs = [X.reshape(1, -1) if X.ndim == 1 else X for X in Xs]
        try:
            X = Xs[0] if len(Xs) == 1 else np.concatenate(Xs)
        except ValueError as exc:
            raise InvalidInputError(f"X: the batches do not stack: {exc}") from None
        X = self._check_X(X)
        if self.constant_ is not None:
            return np.full(X.shape[0], self.constant_, dtype=np.int64)
        return self._predict_impl(X, [B.shape[0] for B in Xs])

    def _predict_impl(self, X: np.ndarray, sizes: list[int]) -> np.ndarray:
        """Labels of X's rows, which stack batches of the given sizes."""
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

    Each epoch computes ``residual = sigmoid(X @ w + b) - y``, then
    ``w -= learning_rate * (X.T @ residual / n + l2 * w)`` and
    ``b -= learning_rate * mean(residual)``. A fit allocates its per-epoch
    arrays once and writes every epoch into them in place. The arithmetic
    and its order are those of the expressions above (the sigmoid's
    numerator is an equal form, see ``_sigmoid_inplace``), so the weights
    are the same bit for bit.
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
        as_int(self.epochs, "epochs", 1)
        check_number(self.l2, "l2")
        if not self.l2 >= 0:
            raise InvalidInputError("l2 must be >= 0")
        as_int(self.seed, "seed", 0)

    def _fit_impl(self, X, y):
        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        if self.constant_ is None:
            yf = y.astype(np.float64)
            z, e = np.empty(n), np.empty(n)
            grad, penalty = np.empty(d), np.empty(d)
            for _ in range(self.epochs):
                # residual = sigmoid(X @ w + b) - y, written into z
                np.matmul(X, w, out=z)
                z += b
                _sigmoid_inplace(z, e)
                z -= yf
                # w -= learning_rate * (X.T @ residual / n + l2 * w)
                np.matmul(X.T, z, out=grad)
                grad /= n
                np.multiply(w, self.l2, out=penalty)
                grad += penalty
                grad *= self.learning_rate
                w -= grad
                # np.add.reduce(z) / n is what z.mean() computes, bit for bit
                b -= self.learning_rate * float(np.add.reduce(z) / n)
        self.coef_ = w
        self.intercept_ = b

    def _predict_impl(self, X: np.ndarray, sizes: list[int]) -> np.ndarray:
        # one product per batch, because BLAS may round a product over the
        # stacked batches differently
        margin = np.empty(X.shape[0])
        lo = 0
        for size in sizes:
            np.matmul(X[lo : lo + size], self.coef_, out=margin[lo : lo + size])
            lo += size
        margin += self.intercept_
        # probability 0.5 (margin exactly 0) resolves to class 0
        return (margin > 0).astype(np.int64)


# A forest builds its vote table only when the grid has at most this many
# cells per tree node; past that, predict walks the trees. The table, one bit
# per cell, then adds at most 8 bytes per node to the 40 its tree arrays
# hold (callers cache a fitted model per batch), and it costs less to build
# than one walk over 1000 points. The 2-feature built-in streams reach at
# most 31 cells per node.
_TABLE_CELLS_PER_NODE = 64


class _CartTree:
    """One greedy CART tree on Gini impurity, stored as flat node arrays in DFS preorder.

    A split scans every distinct value of each candidate feature and puts the
    threshold at the midpoint between consecutive sorted values (at the lower
    value where the midpoint overflows or rounds onto the upper); ties in
    impurity resolve to the lowest feature and then the smallest threshold.
    A leaf has feature -1 and is its own left and right child; every node's
    ``value`` is its majority class (a tie resolves to 0). ``_grow_forest``
    grows all trees of a forest together, level by level, and renumbers
    each tree's nodes to DFS preorder at the end; with ``feature_fraction <
    1`` each node's candidate features come from a generator keyed by the
    forest seed, the tree and the node's heap index.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "max_depth")

    def __init__(self, max_depth, feature, threshold, left, right, value):
        self.max_depth = max_depth
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value

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


def _segment_sums(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over each segment [start, start + size)."""
    total = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=total[1:])
    return total[starts + sizes] - total[starts]


def _feature_splits(x2, code, seg, starts, before, n_seg, ones_seg):
    """The best cut on one feature of every segment of the layout ``code`` that has one.

    ``seg`` is each entry's segment; per segment, ``starts`` is its first
    entry, ``before`` the labels 1 in earlier segments, ``n_seg`` its size
    and ``ones_seg`` its labels 1 (the last two as floats). Returns the
    segments with a cut, each one's weighted Gini impurity (the first
    minimum, so the smallest threshold) and its midpoint threshold.
    """
    sv = x2[code]
    cut_after = sv[1:] > sv[:-1]
    cut_after[starts[1:] - 1] = False  # never between two segments
    pos = np.flatnonzero(cut_after)
    del cut_after
    if pos.size == 0:
        return pos, np.empty(0), np.empty(0)
    seg = seg[pos]
    ones_left = np.cumsum(code & 1)[pos]
    ones_left -= before[seg]
    ones_left = ones_left.astype(np.float64)
    n_left = (pos - starts[seg] + 1).astype(np.float64)
    n = n_seg[seg]
    n_right = n - n_left
    ones_right = ones_seg[seg] - ones_left
    # 1 - (ones/n)**2 - ((n - ones)/n)**2 per side, then (n_l*g_l + n_r*g_r)/n
    weighted = _gini(n_left, ones_left)
    weighted *= n_left
    del n_left, ones_left
    right = _gini(n_right, ones_right)
    right *= n_right
    weighted += right
    weighted /= n
    del right, n, n_right, ones_right
    run = np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))
    best = np.minimum.reduceat(weighted, run)
    hit = np.flatnonzero(weighted == np.repeat(best, np.diff(run, append=pos.size)))
    hit = hit[np.concatenate(([True], seg[hit[1:]] != seg[hit[:-1]]))]
    cut = pos[hit]
    lo, hi = sv[cut], sv[cut + 1]
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    # a midpoint that overflowed or rounded onto hi would send both values left
    return seg[run], best, np.where((lo <= mid) & (mid < hi), mid, lo)


def _gini(n: np.ndarray, ones: np.ndarray) -> np.ndarray:
    g = ones / n
    g **= 2
    np.subtract(1.0, g, out=g)
    zeros = n - ones
    zeros /= n
    zeros **= 2
    g -= zeros
    return g


def _partition(x2_flat, code, row_offset, threshold, to_left, to_right, out) -> None:
    """Scatter ``code`` into ``out``: each row after the rows before it that go its way."""
    go_left = x2_flat[row_offset + code] <= threshold
    lefts = np.cumsum(go_left)
    dest = to_right - lefts
    lefts += to_left
    np.copyto(dest, lefts, where=go_left)
    out[dest] = code


def _grow_forest(X, y, n_trees, max_depth, feature_fraction, bootstrap, seed) -> list[_CartTree]:
    """Grow every tree of a forest together, one depth level per pass.

    Each node still to split owns one segment of a layout per feature, in
    which the rows of its (bootstrap) sample are sorted by that feature; a
    layout entry is ``2 * row + label``. Per feature, one pass over the layout
    finds every segment's best cut. A node splits on the lowest feature with
    a strictly smaller impurity, so ties resolve to the lowest feature and
    then the smallest threshold, and tree structure is a pure function of the
    data. A stable partition of every segment then gives the next level's
    layout, still sorted, without the rows of children that are leaves. Only
    distinct values matter to a cut, so the order of tied rows does not.

    The forest generator draws only the bootstrap samples, one tree after
    another. With ``feature_fraction < 1`` a node draws its candidate
    features from ``np.random.default_rng([seed, tree, heap])``, ``heap``
    being its heap index (root 0, children 2h + 1 and 2h + 2), so the draw
    does not depend on the order in which nodes grow.
    """
    n, d = X.shape
    X2 = np.repeat(X.T, 2, axis=1)  # X2[f, code] is row code // 2's value of feature f
    x2 = X2.ravel()
    codes = 2 * np.arange(n) + y
    if bootstrap:
        rng = np.random.default_rng(seed)
        counts = np.stack([np.bincount(rng.integers(0, n, size=n), minlength=n) for _ in range(n_trees)])
    else:
        counts = np.ones((n_trees, n), dtype=np.int64)
    k = max(1, math.ceil(feature_fraction * d))
    # Python ints: a heap index passes 2**63 below depth 63
    heap = np.zeros(n_trees, dtype=object) if k < d else None
    tree = np.arange(n_trees)
    size = np.full(n_trees, n, dtype=np.int64)
    ones = counts @ y
    open_ = (ones > 0) & (ones < size)
    orders = np.empty((d, int(size[open_].sum())), dtype=np.intp)
    for f in range(d):
        by_f = np.argsort(X[:, f], kind="stable")
        orders[f] = np.repeat(np.tile(codes[by_f], int(open_.sum())), counts[open_][:, by_f].ravel())
    del counts
    levels = []
    for depth in range(max_depth + 1):
        feature = np.full(tree.size, -1, dtype=np.int64)
        threshold = np.zeros(tree.size)
        levels.append((tree, size, ones, feature, threshold))
        if not open_.any():
            break
        sizes, seg_ones = size[open_], ones[open_]
        starts = np.cumsum(sizes) - sizes
        level = (starts, np.cumsum(seg_ones) - seg_ones, sizes.astype(np.float64), seg_ones.astype(np.float64))
        seg = np.repeat(np.arange(sizes.size), sizes)
        candidates = None
        if heap is not None:
            candidates = np.zeros((sizes.size, d), dtype=bool)
            for i, (t, h) in enumerate(zip(tree[open_].tolist(), heap[open_])):
                candidates[i, np.random.default_rng([seed, t, h]).choice(d, size=k, replace=False)] = True
        best = np.full(sizes.size, np.inf)
        feat = np.full(sizes.size, -1, dtype=np.int64)
        thr = np.zeros(sizes.size)
        for f in range(d):
            cut_segs, gini, cut_thr = _feature_splits(X2[f], orders[f], seg, *level)
            better = gini < best[cut_segs]
            if candidates is not None:
                better &= candidates[cut_segs, f]
            cut_segs = cut_segs[better]
            best[cut_segs] = gini[better]
            feat[cut_segs] = f
            thr[cut_segs] = cut_thr[better]
        del seg, level, best
        feature[open_] = feat
        threshold[open_] = thr
        split = feat >= 0
        if not split.any():
            break
        if not split.all():  # a node whose rows tie on every candidate feature is a leaf
            orders = orders[:, np.repeat(split, sizes)]
        sizes, feat, thr = sizes[split], feat[split], thr[split]
        starts = np.cumsum(sizes) - sizes
        row_offset = np.repeat(feat * X2.shape[1], sizes)
        threshold_rows = np.repeat(thr, sizes)
        go_left = x2[row_offset + orders[0]] <= threshold_rows
        n_left = _segment_sums(go_left, starts, sizes)
        ones_left = _segment_sums(go_left & (orders[0] & 1), starts, sizes)
        del go_left
        parents = np.flatnonzero(feature >= 0)
        tree = np.repeat(tree[parents], 2)
        size = np.column_stack((n_left, sizes - n_left)).ravel()
        ones = np.column_stack((ones_left, ones[parents] - ones_left)).ravel()
        open_ = (ones > 0) & (ones < size) & (depth + 1 < max_depth)
        if heap is not None:
            heap = np.column_stack((2 * heap[parents] + 1, 2 * heap[parents] + 2)).ravel()
        if not open_.any():
            continue
        # the children to split next take the front of the new layout, in
        # order, and the leaves the back; a row goes after the rows of its
        # segment that go its way before it
        child = np.argsort(~open_, kind="stable")
        child_start = np.empty_like(size)
        child_start[child] = np.cumsum(size[child]) - size[child]
        lefts_before = np.cumsum(n_left) - n_left
        to_left = np.repeat(child_start[0::2] - lefts_before - 1, sizes)
        to_right = np.repeat(child_start[1::2] - starts + lefts_before, sizes)
        to_right += np.arange(to_right.size)
        parted = np.empty_like(orders)
        for f in range(d):
            _partition(x2, orders[f], row_offset, threshold_rows, to_left, to_right, parted[f])
        orders = parted[:, : int(size[open_].sum())]
        del row_offset, threshold_rows, to_left, to_right, parted
    del orders
    return _preorder_trees(levels, n_trees, max_depth)


def _preorder_trees(levels, n_trees, max_depth) -> list[_CartTree]:
    """Renumber level-ordered nodes to each tree's DFS preorder and cut the trees apart.

    The children of level L's k-th split node are nodes 2k and 2k + 1 of level L + 1.
    """
    subtree = [None] * len(levels)
    for i in range(len(levels) - 1, -1, -1):
        feature = levels[i][3]
        sub = np.ones(feature.size, dtype=np.int64)
        parents = np.flatnonzero(feature >= 0)
        if parents.size:
            sub[parents] += subtree[i + 1][0::2] + subtree[i + 1][1::2]
        subtree[i] = sub
    offset = np.cumsum(subtree[0]) - subtree[0]
    total = int(subtree[0].sum())
    flat_feature = np.empty(total, dtype=np.int64)
    flat_threshold = np.empty(total)
    flat_left = np.empty(total, dtype=np.int64)
    flat_right = np.empty(total, dtype=np.int64)
    flat_value = np.empty(total, dtype=np.int64)
    pre = np.zeros(n_trees, dtype=np.int64)
    for i, (tree, size, ones, feature, threshold) in enumerate(levels):
        at = offset[tree] + pre
        flat_feature[at] = feature
        flat_threshold[at] = threshold
        flat_value[at] = 2 * ones > size
        flat_left[at] = pre
        flat_right[at] = pre
        parents = np.flatnonzero(feature >= 0)
        if parents.size == 0:
            break
        left = pre[parents] + 1
        right = left + subtree[i + 1][0::2]
        flat_left[at[parents]] = left
        flat_right[at[parents]] = right
        pre = np.column_stack((left, right)).ravel()
    bounds = np.append(offset, total)
    return [
        _CartTree(
            max_depth,
            *(a[lo:hi] for a in (flat_feature, flat_threshold, flat_left, flat_right, flat_value)),
        )
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]


class ForestClassifier(BaseClassifier):
    """Bagged CART forest with majority voting.

    Parameters
    ----------
    n_trees : int
        Number of trees; must be >= 1.
    max_depth : int
        Maximum tree depth; must be >= 1.
    feature_fraction : float in (0, 1]
        Fraction of features considered at each split. Below 1, each node
        draws ``ceil(feature_fraction * d)`` candidates from its own
        generator, ``np.random.default_rng([seed, tree, heap])`` with
        ``heap`` the node's heap index (root 0, children 2h + 1 and 2h + 2),
        so a node's draw does not depend on the order in which nodes grow.
        With the value 1 no feature draw happens at all, so together with
        ``bootstrap=False`` the fit is seed-independent.
    bootstrap : bool
        Whether each tree trains on a bootstrap resample of the batch.
    seed : int
        Seeds the bootstrap generator, which draws each tree's sample in
        turn, and keys the feature draws.

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
        as_int(self.n_trees, "n_trees", 1)
        as_int(self.max_depth, "max_depth", 1)
        check_number(self.feature_fraction, "feature_fraction")
        if not 0.0 < self.feature_fraction <= 1.0:
            raise InvalidInputError("feature_fraction must be in (0, 1]")
        as_int(self.seed, "seed", 0)

    def _fit_impl(self, X, y):
        self.trees_ = []
        self.cuts_ = self.table_ = None
        if self.constant_ is not None:
            return
        self.trees_ = _grow_forest(
            X, y, self.n_trees, self.max_depth, self.feature_fraction, self.bootstrap, self.seed
        )
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

    def _predict_impl(self, X: np.ndarray, sizes: list[int]) -> np.ndarray:
        # every point's label depends on that point alone, so batches need no split
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

