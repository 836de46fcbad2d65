import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from retrainer import DataBatch, InvalidInputError, fit_model
from retrainer.models import ForestClassifier, LogisticClassifier, _CartTree


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


PROBE = np.array([[x, y] for x in np.linspace(-1, 2, 7) for y in np.linspace(-1, 2, 7)])


class TestLogistic:
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
        tree = _CartTree(12).fit(batch.X, batch.y, feature_fraction=1.0, rng=None)
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
        tree = _CartTree(3).fit(X, y, feature_fraction=1.0, rng=None)
        assert tree.feature[0] == 0


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


def test_get_params_roundtrip_clone():
    proto = ForestClassifier(n_trees=7, max_depth=2, feature_fraction=0.5, bootstrap=False, seed=9)
    clone = proto.clone()
    assert clone.get_params() == proto.get_params()
    assert clone is not proto
