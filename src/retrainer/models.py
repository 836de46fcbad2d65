"""Binary classifiers used as the retrainable model.

Two native model classes are provided behind a small sklearn-style estimator
API (``fit`` / ``predict`` / ``get_params``), so they compose with pipeline
tooling without pulling in an ML framework:

* ``LogisticClassifier`` -- logistic regression trained with full-batch
  gradient descent on the log loss, with no penalty. Full-batch (rather
  than stochastic) updates keep training deterministic for the small
  per-batch datasets this package targets.
* ``ForestClassifier`` -- bagging of greedy CART trees grown on Gini
  impurity with midpoint thresholds. All trees of a fit grow together, one
  depth level per pass: every node of the level finds its best cut in one
  array pass per feature over all trees' rows, so the numpy calls per fit
  grow with the depth, not with the node count. Every node weighs every
  feature. The fitted forest keeps its nodes as five flat arrays in that
  level order, all trees together. Fit ends by compiling the trees into a
  vote table over the grid their thresholds cut each feature into; predict
  looks each point's cell up in it. Every comparison a tree makes is
  constant within a cell, so the table gives the tree walk's votes bit for
  bit.

Determinism contract: fitting the same data with the same hyperparameters
(including a forest's ``seed``) produces a model with bit-identical
predictions. To keep that guarantee under drifting streams, single-class
training batches produce a constant classifier instead of raising.

Fitted models are immutable by convention and safe to share across threads.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import InvalidInputError
from .streams import DataBatch
from .validation import (
    ConstructorParams, as_binary_labels, as_count, as_int, as_point_matrix, check_fitted, check_number, check_same_dim
)


def _constant(value: float) -> np.ndarray:
    """A read-only 0-d float64 array: a ufunc takes it with less work per
    call than a Python float, which it must convert every time."""
    arr = np.array(value, dtype=np.float64)
    arr.flags.writeable = False
    return arr


_ZERO, _ONE, _MINUS_ONE = _constant(0.0), _constant(1.0), _constant(-1.0)


def _sigmoid_inplace(buf: np.ndarray, e: np.ndarray, z: np.ndarray) -> None:
    """Overwrite ``z`` with the numerically stable logistic function of
    ``z``: 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, with
    e = exp(-|z|) serving both. The numerator is exp(min(z, 0)), which is
    exactly 1 for z >= 0 and the same float as e below. ``e`` (scratch) and
    ``z`` are the first and second halves of the float64 buffer ``buf``, so
    one exp serves both exponents. Both are <= 0, so it never overflows.
    -|z| is ``copysign(z, -1)``, the same float as ``-abs(z)`` in one call.
    Outputs are passed by position, which costs less than ``out=``, except
    to ``minimum``, which deprecates it."""
    np.copysign(z, _MINUS_ONE, e)
    np.minimum(z, _ZERO, out=z)
    np.exp(buf, buf)
    np.add(e, _ONE, e)
    np.divide(z, e, z)


class BaseClassifier(ConstructorParams):
    """Shared estimator plumbing: fit and predict glue.

    Subclasses check their constructor arguments and store them verbatim
    under the same attribute names, so the constructor's signature is the one
    list of parameters that ``get_params`` and ``__repr__`` read. They
    implement ``_fit_impl`` and ``_predict_impl``.
    """

    def fit(self, X, y):
        """Train on (X, y); a single-class batch gives a constant classifier."""
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
        """Predicted 0/1 labels for each row of X; a 1-D X is one point.

        The labels of ``predict_batches(X, [len(X)])``, without the check of
        sizes that one batch cannot fail."""
        X = self._check_X(X)
        return self._labels(X, [X.shape[0]])

    def predict_batches(self, X, sizes) -> np.ndarray:
        """Predicted 0/1 labels of the rows of X, which stacks batches of the
        given sizes in order.

        Every batch gets the labels ``predict`` gives it alone, wherever it
        sits in X, so X may be a view at any row offset of a larger stack.
        X is checked once, as a whole; ``sizes`` must be positive integers
        that sum to its row count."""
        X = self._check_X(X)
        sizes = as_count(sizes, "sizes", 1)
        if sizes.ndim != 1 or int(sizes.sum()) != X.shape[0]:
            raise InvalidInputError(f"sizes must be batch sizes that sum to the {X.shape[0]} rows of X, got {sizes}")
        return self._labels(X, sizes.tolist())

    def _labels(self, X: np.ndarray, sizes: list[int]) -> np.ndarray:
        """Labels of the checked X's rows, which stack batches of the given sizes."""
        if self.constant_ is not None:
            return np.full(X.shape[0], self.constant_, dtype=np.int64)
        return self._predict_impl(X, sizes)

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

    Weights start at zero, so training draws no random numbers and the
    model takes no seed. A fit whose weights come out non-finite (features
    so large that the products overflow) is refused, without a numpy
    overflow warning before it.

    Attributes (after fit)
    ----------------------
    coef_ : ndarray of shape (d,)
    intercept_ : float
    n_features_in_ : int
    constant_ : int or None
        Set when the training batch contained a single class.

    Each epoch computes ``residual = sigmoid(X @ w + b) - y``, then
    ``w -= learning_rate * (X.T @ residual / n)`` and
    ``b -= learning_rate * mean(residual)``. A fit allocates its per-epoch
    arrays once and writes every epoch into them in place. The arithmetic
    and its order are those of the expressions above (the sigmoid's
    numerator is an equal form, see ``_sigmoid_inplace``, and the products
    are ``np.dot``, the BLAS call ``@`` makes), so the weights are the same
    bit for bit.

    An epoch is 13 numpy calls: two ``np.dot``, one ``np.add.reduce`` and
    ten elementwise ufuncs, each called directly and given its output
    array by position. On the small batches this package trains on, the
    time goes to the cost of each call, not to arithmetic. So the ufuncs
    are bound once per fit, and n, the learning rate, the intercept and the
    sigmoid's 0, 1 and -1 are 0-d float64 arrays, which a ufunc takes for
    about two thirds of the cost of a Python float that it must convert on
    every call. Each holds the float the Python number converts to, so no
    bit moves.
    """

    def __init__(self, learning_rate: float = 0.1, epochs: int = 100):
        check_number(learning_rate, "learning_rate")
        if not learning_rate > 0:
            raise InvalidInputError("learning_rate must be > 0")
        as_int(epochs, "epochs", 1)
        self.learning_rate = learning_rate
        self.epochs = epochs

    def _fit_impl(self, X, y):
        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        if self.constant_ is None:
            yf, XT, lr = y.astype(np.float64), X.T, self.learning_rate
            n_, lr_, b_ = np.array(float(n)), np.array(float(lr)), np.array(b)
            buf, grad = np.empty(2 * n), np.empty(d)
            e, z = buf[:n], buf[n:]
            dot, add, subtract, multiply, divide, add_reduce = (
                np.dot, np.add, np.subtract, np.multiply, np.divide, np.add.reduce
            )
            # an overflow gives non-finite weights, refused below, so numpy need not warn of it
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(self.epochs):
                    # residual = sigmoid(X @ w + b) - y, written into z
                    dot(X, w, z)
                    add(z, b_, z)
                    _sigmoid_inplace(buf, e, z)
                    subtract(z, yf, z)
                    # w -= learning_rate * (X.T @ residual / n)
                    dot(XT, z, grad)
                    divide(grad, n_, grad)
                    multiply(grad, lr_, grad)
                    subtract(w, grad, w)
                    # the sum over n, correctly rounded, is what z.mean() computes
                    b -= lr * (float(add_reduce(z)) / n)
                    b_[()] = b
            if not (math.isfinite(b) and np.isfinite(w).all()):
                raise InvalidInputError("X: the features are too large to fit: the weights came out non-finite")
        self.coef_ = w
        self.intercept_ = b

    def _predict_impl(self, X: np.ndarray, sizes: list[int]) -> np.ndarray:
        # one product per batch, because BLAS may round a product over the
        # stacked batches differently
        margin = np.empty(X.shape[0])
        lo = 0
        for size in sizes:
            np.dot(X[lo : lo + size], self.coef_, out=margin[lo : lo + size])
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


def _grow_forest(X, y, n_trees, max_depth, bootstrap, seed) -> tuple:
    """Grow every tree of a forest together, one depth level per pass.

    Returns the forest's nodes as five flat arrays ``(feature, threshold,
    left, right, value)`` in growth order: level by level, tree t's root
    being node t. Each tree is a greedy CART tree on Gini impurity. A split
    puts its threshold at the midpoint between consecutive sorted distinct
    values of its feature (at the lower value where the midpoint overflows
    or rounds onto the upper), and ``x <= threshold`` goes left. A leaf has
    feature -1 and is its own left and right child; every node's ``value``
    is its majority class (a tie resolves to 0).

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
    another.
    """
    n, d = X.shape
    X2 = np.repeat(X.T, 2, axis=1)  # X2[f, code] is row code // 2's value of feature f
    x2 = X2.ravel()
    codes = 2 * np.arange(n) + y
    if bootstrap:
        rng = np.random.default_rng(seed)
        # one draw of every tree's sample gives the per-tree draws in turn
        draws = rng.integers(0, n, size=(n_trees, n))
        draws += n * np.arange(n_trees)[:, None]
        counts = np.bincount(draws.ravel(), minlength=n_trees * n).reshape(n_trees, n)
        del draws
    else:
        counts = np.ones((n_trees, n), dtype=np.int64)
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
        best = np.full(sizes.size, np.inf)
        feat = np.full(sizes.size, -1, dtype=np.int64)
        thr = np.zeros(sizes.size)
        for f in range(d):
            cut_segs, gini, cut_thr = _feature_splits(X2[f], orders[f], seg, *level)
            better = gini < best[cut_segs]
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
        if not split.all():  # a node whose rows tie on every feature is a leaf
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
    feature, threshold = (np.concatenate([level[i] for level in levels]) for i in (3, 4))
    value = np.concatenate([2 * ones > size for _, size, ones, _, _ in levels]).astype(np.int64)
    # level L + 1 holds the children of level L's split nodes in order, so
    # the k-th split node of the forest has children n_trees + 2k and n_trees + 2k + 1
    left = np.arange(feature.size)
    right = left.copy()
    parents = np.flatnonzero(feature >= 0)
    left[parents] = n_trees + 2 * np.arange(parents.size)
    right[parents] = left[parents] + 1
    return feature, threshold, left, right, value


class ForestClassifier(BaseClassifier):
    """Bagged CART forest with majority voting.

    Parameters
    ----------
    n_trees : int
        Number of trees; must be >= 1.
    max_depth : int
        Maximum tree depth; must be >= 1.
    bootstrap : bool
        Whether each tree trains on a bootstrap resample of the batch.
        Without it the fit draws no random numbers, so it does not depend
        on the seed.
    seed : int
        Seeds the bootstrap generator, which draws each tree's sample in
        turn.

    Every split weighs every feature.

    Ties in the vote (possible with an even tree count) resolve to class 0.

    Attributes (after fit)
    ----------------------
    nodes_ : tuple of 5 ndarrays, or None
        ``(feature, threshold, left, right, value)`` of every node of every
        tree, in the order ``_grow_forest`` grows them: tree t's root is
        node t, and a leaf (feature -1) is its own left and right child.
        None when the training batch contained a single class.
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

    def __init__(self, n_trees: int = 25, max_depth: int = 8, bootstrap: bool = True, seed: int = 0):
        as_int(n_trees, "n_trees", 1)
        as_int(max_depth, "max_depth", 1)
        if not isinstance(bootstrap, bool):
            raise InvalidInputError(f"bootstrap must be a bool, got {bootstrap!r}")
        as_int(seed, "seed", 0)
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.bootstrap = bootstrap
        self.seed = seed

    def _fit_impl(self, X, y):
        self.nodes_ = self.cuts_ = self.table_ = None
        if self.constant_ is not None:
            return
        self.nodes_ = _grow_forest(X, y, self.n_trees, self.max_depth, self.bootstrap, self.seed)
        self._build_table()

    def _build_table(self) -> None:
        """Set ``cuts_`` and ``table_`` when the grid has at most ``_TABLE_CELLS_PER_NODE`` cells per node."""
        feature, threshold, left, right, value = self.nodes_
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
        feat, left, right, value, cut = (a.tolist() for a in (feature, left, right, value, bound))
        # paint each leaf's box of codes [lo, hi) with an explicit stack, from every root
        stack = [(root, [0] * len(shape), shape) for root in range(self.n_trees)]
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
            feature, threshold, left, right, value = self.nodes_
            rows = np.arange(X.shape[0])
            votes = np.zeros(X.shape[0], dtype=np.int64)
            for root in range(self.n_trees):
                node = np.full(X.shape[0], root)
                for _ in range(self.max_depth):
                    feat = feature[node]
                    if (feat < 0).all():
                        break
                    # a leaf (feature -1 reads the last column) is its own
                    # child, so a point that reached one stays there
                    go_left = X[rows, feat] <= threshold[node]
                    node = np.where(go_left, left[node], right[node])
                votes += value[node]
            return (2 * votes > self.n_trees).astype(np.int64)
        cell = np.zeros(X.shape[0], dtype=np.intp)
        for f, cuts in enumerate(self.cuts_):
            cell *= cuts.size + 1
            cell += np.searchsorted(cuts, X[:, f])
        return (self.table_[cell >> 3] >> (cell & 7)) & 1


def fit_model(batch: DataBatch, model: BaseClassifier) -> BaseClassifier:
    """Train a shallow copy of ``model`` on one data batch.

    The returned estimator records the batch it was trained on in
    ``trained_at_``; the prototype passed in is left untouched, because
    ``fit`` rebinds every fitted attribute rather than changing one in place.
    """
    fitted = copy.copy(model).fit(batch.X, batch.y)
    fitted.trained_at_ = batch.t
    return fitted


MODEL_KINDS = {
    "logistic": LogisticClassifier,
    "forest": ForestClassifier,
}

