import gc
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from helpers import reference_forest_predict, reference_forest_trees, reference_logistic_fit, reference_sigmoid
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from retrainer import DataBatch, InvalidInputError, StreamSpec, fit_model, generate_stream, models
from retrainer.models import _TABLE_CELLS_PER_NODE, ForestClassifier, LogisticClassifier


# one feature, sorted; where a midpoint threshold fails, the forest cannot
# separate the labels even on its training points
NEIGHBOURS_WITHOUT_A_MIDPOINT = [
    ([1.0, 1e308, 1.7e308], [0, 0, 1]),  # the top pair's sum overflows to inf
    ([-1.7e308, -1e308, -1.0], [1, 0, 0]),  # the bottom pair's sum overflows to -inf
    ([1 + 2**-52, 1 + 2**-51], [0, 1]),  # adjacent floats: the midpoint rounds up to the upper one
]


def separable_batch():
    rng = np.random.default_rng(7)
    X0 = rng.uniform(-0.1, 0.1, (10, 2))
    X1 = np.array([1.0, 1.0]) + rng.uniform(-0.1, 0.1, (10, 2))
    return DataBatch(0, np.vstack([X0, X1]), [0] * 10 + [1] * 10)


def xor_batch():
    rng = np.random.default_rng(11)
    rows, labels = [], []
    for cx, cy, label in [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]:
        rows.append(np.array([cx, cy]) + rng.normal(0, 0.08, (25, 2)))
        labels += [label] * 25
    return DataBatch(0, np.vstack(rows), labels)


def covcon_batch():
    data, _ = generate_stream(StreamSpec("covcon", n_batches=2, batch_size=1000, seed=0))
    return data[1]


PROBE = np.array([[x, y] for x in np.linspace(-1, 2, 7) for y in np.linspace(-1, 2, 7)])


class TestLogistic:
    @settings(max_examples=200, deadline=None)
    @given(
        z=hnp.arrays(
            np.float64,
            st.integers(0, 40),
            elements=st.one_of(st.floats(allow_nan=False), st.sampled_from([500.0, -500.0, 0.0, -0.0])),
        )
    )
    def test_sigmoid_equals_the_masked_form(self, z):
        out = z.copy()
        models._sigmoid_inplace(out, np.empty_like(z))
        assert np.array_equal(out, reference_sigmoid(z))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        d=st.integers(1, 8),
        scale=st.sampled_from([1.0, 50.0, 1e4]),
        learning_rate=st.sampled_from([1e-3, 0.1, 0.5, 2.0]),
        epochs=st.integers(1, 50),
        l2=st.sampled_from([0.0, 1e-3, 0.5]),
        single_class=st.booleans(),
    )
    def test_fit_equals_the_per_epoch_expression(self, seed, n, d, scale, learning_rate, epochs, l2, single_class):
        # a scale of 1e4 pushes margins past +-500, so the clip is active
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) * scale
        y = np.full(n, seed % 2) if single_class else rng.integers(0, 2, n)
        model = LogisticClassifier(learning_rate=learning_rate, epochs=epochs, l2=l2).fit(X, y)
        w, b = reference_logistic_fit(X, y, learning_rate, epochs, l2)
        assert model.coef_.tobytes() == w.tobytes()
        assert model.intercept_ == b and type(model.intercept_) is float

    def test_separable_training_accuracy(self):
        batch = separable_batch()
        model = fit_model(batch, LogisticClassifier(learning_rate=0.5, epochs=200))
        assert (model.predict(batch.X) == batch.y).mean() == 1.0
        assert model.trained_at_ == 0

    def test_single_class_predicts_constant(self):
        batch = DataBatch(0, [[0.0, 0.0], [5.0, 5.0]], [1, 1])
        model = fit_model(batch, LogisticClassifier())
        assert np.all(model.predict(PROBE) == 1)

    def test_determinism_across_fits(self):
        batch = separable_batch()
        proto = LogisticClassifier(learning_rate=0.5, epochs=200, seed=3)
        a = fit_model(batch, proto)
        b = fit_model(batch, proto)
        assert np.array_equal(a.predict(PROBE), b.predict(PROBE))
        assert np.array_equal(a.coef_, b.coef_)

    def test_zero_margin_predicts_zero(self):
        model = LogisticClassifier()
        model.n_features_in_ = 2
        model.constant_ = None
        model.coef_ = np.zeros(2)
        model.intercept_ = 0.0
        assert model.predict([[3.0, -4.0]])[0] == 0

    def test_predict_one_on_separable(self):
        model = fit_model(separable_batch(), LogisticClassifier(learning_rate=0.5, epochs=200))
        assert model.predict([[1.0, 1.0]])[0] == 1
        assert model.predict([[0.0, 0.0]])[0] == 0

    def test_dimension_mismatch(self):
        model = fit_model(separable_batch(), LogisticClassifier())
        with pytest.raises(InvalidInputError):
            model.predict([[1.0, 2.0, 3.0]])
        with pytest.raises(InvalidInputError):
            model.predict([[1.0]])

    def test_invalid_hyperparams(self):
        batch = separable_batch()
        with pytest.raises(InvalidInputError):
            LogisticClassifier(learning_rate=0.0).fit(batch.X, batch.y)
        with pytest.raises(InvalidInputError):
            LogisticClassifier(epochs=0).fit(batch.X, batch.y)


class TestForest:
    def test_xor_training_accuracy(self):
        batch = xor_batch()
        model = fit_model(batch, ForestClassifier(n_trees=25, max_depth=4, seed=1))
        assert (model.predict(batch.X) == batch.y).mean() >= 0.95

    def test_single_class_predicts_constant(self):
        batch = DataBatch(0, [[0.0, 1.0], [2.0, 3.0], [4.0, 0.0]], [0, 0, 0])
        model = fit_model(batch, ForestClassifier(n_trees=5, max_depth=3))
        assert np.all(model.predict(PROBE) == 0)

    def test_single_tree_matches_plain_cart(self):
        batch = xor_batch()
        forest = fit_model(
            batch, ForestClassifier(n_trees=1, max_depth=12, feature_fraction=1.0, bootstrap=False)
        )
        (tree,) = forest.trees_
        assert np.array_equal(forest.predict(PROBE), tree.predict(PROBE))

    def test_seed_invariant_without_randomness(self):
        batch = xor_batch()
        a = fit_model(batch, ForestClassifier(n_trees=3, max_depth=5, bootstrap=False, seed=0))
        b = fit_model(batch, ForestClassifier(n_trees=3, max_depth=5, bootstrap=False, seed=999))
        assert np.array_equal(a.predict(PROBE), b.predict(PROBE))

    def test_determinism_across_fits(self):
        batch = xor_batch()
        proto = ForestClassifier(n_trees=10, max_depth=4, seed=5)
        assert np.array_equal(fit_model(batch, proto).predict(PROBE), fit_model(batch, proto).predict(PROBE))

    def test_invalid_hyperparams(self):
        batch = xor_batch()
        for bad in (
            ForestClassifier(n_trees=0),
            ForestClassifier(max_depth=0),
            ForestClassifier(feature_fraction=0.0),
            ForestClassifier(feature_fraction=1.5),
        ):
            with pytest.raises(InvalidInputError):
                bad.fit(batch.X, batch.y)

    def test_leaf_tie_predicts_zero(self):
        # indistinguishable points with split class counts: no split exists,
        # and the tied leaf majority resolves to 0
        batch = DataBatch(0, [[1.0, 1.0], [1.0, 1.0]], [0, 1])
        model = fit_model(batch, ForestClassifier(n_trees=1, max_depth=3, bootstrap=False))
        assert np.all(model.predict(PROBE) == 0)

    def test_gini_tie_prefers_lowest_feature(self):
        # feature 1 duplicates feature 0, so every split quality ties; the
        # grown tree must split on feature 0
        x = np.linspace(0, 1, 8)
        X = np.column_stack([x, x])
        y = (x > 0.5).astype(int)
        (tree,) = ForestClassifier(n_trees=1, max_depth=3, bootstrap=False).fit(X, y).trees_
        assert tree.feature[0] == 0

    @pytest.mark.parametrize("x, y", NEIGHBOURS_WITHOUT_A_MIDPOINT)
    def test_threshold_separates_neighbours_without_a_midpoint(self, x, y):
        X = np.array(x)[:, None]
        model = ForestClassifier(n_trees=1, max_depth=3, bootstrap=False).fit(X, y)
        assert model.predict(X).tolist() == y

    def test_fit_memory_stays_small(self):
        # the level-wise grower holds a few arrays of all trees' rows at
        # once (25 trees x 1000 rows); the bound keeps them short-lived
        batch = covcon_batch()
        forest = ForestClassifier(n_trees=25, max_depth=8)
        forest.fit(batch.X, batch.y)
        tracemalloc.start()
        try:
            forest.fit(batch.X, batch.y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000


class TestForestAgainstReference:
    """Level-wise growth and the vote table against depth-first, per-node argsorts and the tree walk."""

    @staticmethod
    def probes(trees, X, rng):
        # per feature: every cut and its nextafter neighbours, the training values and a few others
        cols = []
        for f in range(X.shape[1]):
            cuts = np.concatenate([t.threshold[t.feature == f] for t in trees] + [np.empty(0)])
            pool = np.concatenate(
                [cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf), X[:, f], rng.normal(size=8)]
            )
            cols.append(rng.choice(pool, size=4 * pool.size + 50))
        size = min(c.size for c in cols)
        return np.vstack([X, np.column_stack([c[:size] for c in cols])])

    def assert_matches_reference(self, forest, X, y, rng):
        model = forest.fit(X, y)
        trees = reference_forest_trees(forest, X, y)
        assert len(model.trees_) == len(trees)
        for got, want in zip(model.trees_, trees):
            for name in ("feature", "threshold", "left", "right", "value"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        P = self.probes(trees, X, rng)
        assert np.array_equal(model.predict(P), reference_forest_predict(trees, forest.n_trees, P))
        return model

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        d=st.sampled_from([1, 2, 3, 5]),
        n=st.integers(2, 80),
        tied=st.booleans(),
        bootstrap=st.booleans(),
        feature_fraction=st.sampled_from([1.0, 0.6, 0.3]),
        n_trees=st.integers(1, 9),
        max_depth=st.integers(1, 8),
        # a looser cap keeps the table path in play for 3- and 5-feature grids
        cells_per_node=st.sampled_from([_TABLE_CELLS_PER_NODE, 4096]),
    )
    def test_trees_and_predictions_match(
        self, seed, d, n, tied, bootstrap, feature_fraction, n_trees, max_depth, cells_per_node
    ):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        if tied:
            X = np.round(X, 1)
        y = (X @ rng.normal(size=d) + rng.normal(scale=0.5, size=n) > 0).astype(np.int64)
        y[:2] = (0, 1)  # both classes, so the forest grows trees
        forest = ForestClassifier(n_trees, max_depth, feature_fraction, bootstrap, seed=seed)
        with mock.patch.object(models, "_TABLE_CELLS_PER_NODE", cells_per_node):
            self.assert_matches_reference(forest, X, y, rng)

    @pytest.mark.parametrize("x, y", NEIGHBOURS_WITHOUT_A_MIDPOINT)
    def test_neighbours_without_a_midpoint_match(self, x, y):
        forest = ForestClassifier(n_trees=3, max_depth=3)
        self.assert_matches_reference(forest, np.array(x)[:, None], np.array(y), np.random.default_rng(0))

    def test_workload_scale_matches(self):
        # the covcon workload's forest on one of its batches, tree by tree
        batch = covcon_batch()
        forest = ForestClassifier(n_trees=25, max_depth=8)
        self.assert_matches_reference(forest, batch.X, batch.y, np.random.default_rng(0))

    def test_wide_forest_walks_its_trees(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 30))
        y = (X[:, :5].sum(axis=1) > 0).astype(np.int64)
        model = self.assert_matches_reference(ForestClassifier(n_trees=10, max_depth=8), X, y, rng)
        assert model.table_ is None

    def test_table_is_uint8_over_the_cut_grid(self):
        model = fit_model(xor_batch(), ForestClassifier(n_trees=9, max_depth=4, seed=2))
        assert model.table_.dtype == np.uint8
        cells = math.prod(c.size + 1 for c in model.cuts_)
        assert model.table_.size == -(-cells // 8)  # one bit per cell
        assert cells <= _TABLE_CELLS_PER_NODE * sum(t.feature.size for t in model.trees_)

    def test_table_is_capped_by_the_forest_size(self):
        # 3 features, 200 points: a grid of about 10**6 cells over about 900 nodes
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 3))
        y = (X.sum(axis=1) + rng.normal(scale=0.3, size=200) > 0).astype(np.int64)
        model = self.assert_matches_reference(ForestClassifier(n_trees=25, max_depth=8), X, y, rng)
        assert model.table_ is None and model.cuts_ is None
        with mock.patch.object(models, "_TABLE_CELLS_PER_NODE", 2048):
            model = self.assert_matches_reference(ForestClassifier(n_trees=25, max_depth=8), X, y, rng)
        assert model.table_ is not None

    def test_single_class_has_no_trees(self):
        batch = DataBatch(0, [[0.0, 1.0], [2.0, 3.0]], [1, 1])
        model = fit_model(batch, ForestClassifier(n_trees=5, max_depth=3))
        assert model.trees_ == []
        assert model.table_ is None
        assert np.all(model.predict(PROBE) == 1)

    def test_fit_leaves_no_reference_cycles(self):
        # a cycle would keep each fit's vote counts alive until the collector runs
        batch = xor_batch()
        gc.collect()
        gc.disable()
        try:
            fit_model(batch, ForestClassifier(n_trees=9, max_depth=5, seed=4))
            assert gc.collect() == 0
        finally:
            gc.enable()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 40),
    kind=st.sampled_from(["logistic", "forest"]),
)
def test_predictions_are_binary(seed, n, kind):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, size=n)
    batch = DataBatch(0, X, y)
    proto = LogisticClassifier(epochs=5) if kind == "logistic" else ForestClassifier(n_trees=3, max_depth=3)
    preds = fit_model(batch, proto).predict(rng.normal(size=(20, 3)))
    assert set(np.unique(preds)).issubset({0, 1})


@pytest.mark.parametrize("kind", ["logistic", "forest"])
def test_predict_batches_equals_predict_on_each(kind):
    rng = np.random.default_rng(3)
    batch = DataBatch(0, rng.normal(size=(60, 3)), rng.integers(0, 2, size=60))
    proto = LogisticClassifier(epochs=20) if kind == "logistic" else ForestClassifier(n_trees=3, max_depth=3)
    model = fit_model(batch, proto)
    Xs = [rng.normal(size=(n, 3)) for n in (1, 7, 30)] + [rng.normal(size=3)]
    assert np.array_equal(model.predict_batches(Xs), np.concatenate([model.predict(X) for X in Xs]))
    with pytest.raises(InvalidInputError, match="do not stack"):
        model.predict_batches([Xs[1], rng.normal(size=(4, 2))])
    with pytest.raises(InvalidInputError, match="dimensionality"):
        model.predict_batches([rng.normal(size=(4, 2)), rng.normal(size=(5, 2))])


def test_get_params_roundtrip_clone():
    proto = ForestClassifier(n_trees=7, max_depth=2, feature_fraction=0.5, bootstrap=False, seed=9)
    clone = proto.clone()
    assert clone.get_params() == proto.get_params()
    assert clone is not proto
