import math

import numpy as np
import pytest
from helpers import query_staleness, rbf_similarity, relative_staleness, staleness_total, zero_one_loss
from hypothesis import given, settings, strategies as st

from retrainer import (
    ContractViolationError,
    DataBatch,
    InvalidInputError,
    QueryBatch,
    StreamCosts,
)
from retrainer.costmatrix import rbf_weights
from retrainer.models import LogisticClassifier, fit_model

K1 = 1.0


def constant_model(label, dim=2):
    """Train on a single-class batch; the fit short-circuits to a constant."""
    X = np.zeros((2, dim))
    X[1, 0] = 1.0
    return fit_model(DataBatch(0, X, [label, label]), LogisticClassifier())


class TestRbf:
    def test_self_similarity_is_one(self):
        for q in ([0.0, 0.0], [3.5, -2.0], [1e3, 1e-3]):
            assert rbf_similarity(q, q, K1) == 1.0

    def test_closed_form_unit_distance(self):
        assert rbf_similarity([0.0, 0.0], [1.0, 0.0], K1) == pytest.approx(math.exp(-1), abs=1e-15)

    def test_strictly_decreasing_in_distance(self):
        q = np.array([0.3, -0.7])
        sims = [rbf_similarity(q, q + [r, 0.0], K1) for r in (0.1, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(sims, sims[1:]))

    def test_symmetry(self):
        assert rbf_similarity([0, 1], [2, 3], K1) == rbf_similarity([2, 3], [0, 1], K1)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            rbf_similarity([0.0], [0.0, 1.0], K1)

    def test_gamma_validation_and_default(self):
        def costs(dim, gamma=None):
            return StreamCosts([DataBatch(0, np.eye(2, dim), [0, 1])], [], LogisticClassifier(), gamma)

        with pytest.raises(InvalidInputError):
            costs(2, 0.0)
        with pytest.raises(InvalidInputError):
            costs(2, -1.0)
        assert costs(2).gamma == 0.5
        assert costs(8).gamma == 0.125
        assert costs(2, np.float64(0.25)).gamma == 0.25
        # the config loader's checks: a NaN or infinite gamma would reach the
        # kernel, and a bool would run as 1.0
        for bad, message in (
            (math.inf, "gamma must be finite, got inf"),
            (math.nan, "gamma must be finite, got nan"),
            ("0.5", "gamma must be a number, got '0.5'"),
            (True, "gamma must be a number, got True"),
        ):
            with pytest.raises(InvalidInputError, match=message):
                costs(2, bad)


class TestZeroOneLoss:
    def test_table(self):
        ones = constant_model(1)
        zeros = constant_model(0)
        assert zero_one_loss(ones, [0.0, 0.0], 1) == 0
        assert zero_one_loss(ones, [0.0, 0.0], 0) == 1
        assert zero_one_loss(zeros, [5.0, 5.0], 1) == 1
        assert zero_one_loss(zeros, [5.0, 5.0], 0) == 0


class TestQueryStaleness:
    def test_hand_evaluated_case(self):
        # two points at distance 0 and 1 from the query, both misclassified
        data = DataBatch(1, [[0.0, 0.0], [1.0, 0.0]], [0, 0])
        value = query_staleness([0.0, 0.0], data, constant_model(1), K1)
        assert value == pytest.approx((1 + math.exp(-1)) / 2, abs=1e-15)

    def test_zero_when_model_correct_everywhere(self):
        data = DataBatch(1, [[0.0, 0.0], [1.0, 0.0]], [1, 1])
        assert query_staleness([0.0, 0.0], data, constant_model(1), K1) == 0.0

    def test_equals_mean_similarity_when_all_wrong(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(15, 2))
        data = DataBatch(1, X, np.zeros(15, dtype=int))
        q = np.array([0.25, -0.5])
        expected = float(np.mean([rbf_similarity(q, x, K1) for x in X]))
        assert query_staleness(q, data, constant_model(1), K1) == pytest.approx(expected, abs=1e-12)

    def test_empty_batch_unconstructible(self):
        with pytest.raises(InvalidInputError):
            DataBatch(0, np.empty((0, 2)), [])


class TestStalenessTotal:
    def test_single_query_equals_query_staleness(self):
        data = DataBatch(1, [[0.0, 0.0], [1.0, 0.0]], [0, 0])
        q = QueryBatch(1, [[0.0, 0.0]])
        model = constant_model(1)
        assert staleness_total(q, data, model, K1) == query_staleness([0.0, 0.0], data, model, K1)

    def test_duplicated_query_doubles_contribution(self):
        data = DataBatch(1, [[0.0, 0.0], [1.0, 0.0]], [0, 0])
        single = staleness_total(QueryBatch(1, [[0.0, 0.0]]), data, constant_model(1), K1)
        double = staleness_total(QueryBatch(1, [[0.0, 0.0], [0.0, 0.0]]), data, constant_model(1), K1)
        assert double == pytest.approx(2 * single, abs=1e-12)

    def test_two_queries_on_hand_case(self):
        data = DataBatch(1, [[0.0, 0.0], [1.0, 0.0]], [0, 0])
        q = QueryBatch(1, [[0.0, 0.0], [0.0, 0.0]])
        value = staleness_total(q, data, constant_model(1), K1)
        assert value == pytest.approx(2 * (1 + math.exp(-1)) / 2, abs=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 2))
        y = rng.integers(0, 2, 20)
        Q = rng.normal(size=(9, 2))
        model = constant_model(1)
        base = staleness_total(QueryBatch(1, Q), DataBatch(1, X, y), model, K1)
        pq = rng.permutation(9)
        pd = rng.permutation(20)
        shuffled = staleness_total(QueryBatch(1, Q[pq]), DataBatch(1, X[pd], y[pd]), model, K1)
        assert shuffled == pytest.approx(base, abs=1e-12 * 9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 30), nq=st.integers(1, 10))
def test_staleness_bounds(seed, n, nq):
    rng = np.random.default_rng(seed)
    data = DataBatch(1, rng.normal(size=(n, 2)), rng.integers(0, 2, n))
    queries = QueryBatch(1, rng.normal(size=(nq, 2)))
    model = constant_model(rng.integers(0, 2))
    psi = query_staleness(queries.X[0], data, model, K1)
    total = staleness_total(queries, data, model, K1)
    assert 0.0 <= psi <= 1.0
    assert 0.0 <= total <= nq


class TestRelativeStaleness:
    def _fit(self, batch):
        return fit_model(batch, LogisticClassifier(learning_rate=0.5, epochs=100))

    def test_zero_for_identical_batches(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(12, 2))
        y = rng.integers(0, 2, 12)
        train = DataBatch(0, X, y)
        now = DataBatch(3, X.copy(), y.copy())
        model = self._fit(train)
        queries = QueryBatch(3, rng.normal(size=(5, 2)))
        assert relative_staleness(queries, now, train, model, K1) == 0.0

    def test_zero_at_training_batch(self):
        rng = np.random.default_rng(10)
        train = DataBatch(2, rng.normal(size=(10, 2)), rng.integers(0, 2, 10))
        model = self._fit(train)
        queries = QueryBatch(2, rng.normal(size=(4, 2)))
        assert relative_staleness(queries, train, train, model, K1) == 0.0

    def test_zero_for_static_data_with_moving_queries(self):
        from helpers import static_scenario

        data, queries, proto = static_scenario()
        model = fit_model(data[0], proto)
        for t in range(1, 4):
            assert relative_staleness(queries[t], data[t], data[0], model, K1) == 0.0

    def test_zero_when_model_correct_on_both_batches(self):
        rng = np.random.default_rng(11)
        train = DataBatch(0, rng.normal(size=(10, 2)), np.ones(10, dtype=int))
        now = DataBatch(1, rng.normal(size=(10, 2)) + 5.0, np.ones(10, dtype=int))
        model = self._fit(train)  # constant 1, correct everywhere
        queries = QueryBatch(1, rng.normal(size=(4, 2)))
        assert relative_staleness(queries, now, train, model, K1) == 0.0

    def test_bounded_by_query_count(self):
        rng = np.random.default_rng(12)
        train = DataBatch(0, rng.normal(size=(10, 2)), rng.integers(0, 2, 10))
        now = DataBatch(1, rng.normal(size=(10, 2)), rng.integers(0, 2, 10))
        model = self._fit(train)
        queries = QueryBatch(1, rng.normal(size=(6, 2)))
        assert abs(relative_staleness(queries, now, train, model, K1)) <= 6

    def test_mismatched_training_batch_rejected(self):
        rng = np.random.default_rng(13)
        b0 = DataBatch(0, rng.normal(size=(8, 2)), rng.integers(0, 2, 8))
        b1 = DataBatch(1, rng.normal(size=(8, 2)), rng.integers(0, 2, 8))
        model = self._fit(b0)
        queries = QueryBatch(1, rng.normal(size=(3, 2)))
        with pytest.raises(ContractViolationError):
            relative_staleness(queries, b1, b1, model, K1)

    def test_training_batch_newer_than_current_rejected(self):
        rng = np.random.default_rng(14)
        b2 = DataBatch(2, rng.normal(size=(8, 2)), rng.integers(0, 2, 8))
        b1 = DataBatch(1, rng.normal(size=(8, 2)), rng.integers(0, 2, 8))
        model = self._fit(b2)
        with pytest.raises(ContractViolationError):
            relative_staleness(QueryBatch(1, rng.normal(size=(3, 2))), b1, b2, model, K1)


def test_rbf_weights_matches_pairwise_loop():
    rng = np.random.default_rng(15)
    Q = rng.normal(size=(4, 3))
    X = rng.normal(size=(6, 3))
    W = rbf_weights(Q, X, 0.7)
    for i in range(4):
        for j in range(6):
            expected = rbf_similarity(Q[i], X[j], 0.7)
            assert W[i, j] == pytest.approx(expected, abs=1e-12)
