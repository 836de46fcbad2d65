import gc
import math
import re
import tracemalloc

import numpy as np
import pytest
from helpers import (
    MALFORMED_STREAMS,
    drift_scenario,
    indexed_stream,
    naive_strategy_cost,
    random_cost_matrix,
    reachable_strategies,
    relative_staleness,
)
from hypothesis import given, settings, strategies as st

from retrainer import (
    ContractViolationError,
    CostMatrix,
    DataBatch,
    InvalidInputError,
    QueryBatch,
    Strategy,
    StreamSpec,
    generate_stream,
    oracle_strategy,
    replay_policy,
    strategy_cost,
    validate_strategy,
)
from retrainer import costmatrix
from retrainer.costmatrix import StreamCosts, cumulative_cost_trace
from retrainer.models import ForestClassifier, LogisticClassifier, fit_model
from retrainer.policies import (
    AdwinPolicy,
    CumulativeThresholdPolicy,
    DdmPolicy,
    MarkovPolicy,
    PeriodicPolicy,
    ThresholdPolicy,
)


def small_stream(n=4, seed=0):
    rng = np.random.default_rng(seed)
    data, queries = [], []
    for t in range(n):
        X = rng.normal(size=(12, 2)) + 0.3 * t
        y = (X[:, 0] + X[:, 1] > 0.6 * t).astype(int)
        data.append(DataBatch(t, X, y))
        queries.append(QueryBatch(t, rng.normal(size=(5, 2)) + 0.3 * t))
    return data, queries


MODEL = LogisticClassifier(learning_rate=0.5, epochs=100)


class TestBuild:
    def test_diagonal_equals_kappa(self):
        data, queries = small_stream()
        kappa = [0.5, 1.5, 2.5, 3.5]
        c = StreamCosts(data, queries, MODEL).cost_matrix(0, 3, kappa)
        assert np.array_equal(c.kappa, kappa)
        assert [c.cost(t, t) for t in range(4)] == kappa
        assert np.all(np.diagonal(c.staleness) == 0.0)
        assert np.all(np.isinf(c.staleness[np.tril_indices(4, k=-1)]))
        assert np.all(np.isfinite(c.staleness[np.triu_indices(4, k=1)]))

    def test_identical_batches_give_zero_staleness(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 2))
        y = rng.integers(0, 2, 10)
        data = [DataBatch(t, X.copy(), y.copy()) for t in range(4)]
        queries = [QueryBatch(t, rng.normal(size=(4, 2))) for t in range(4)]
        c = StreamCosts(data, queries, MODEL).cost_matrix(0, 3, 1.0)
        assert np.all(c.staleness[np.triu_indices(4, k=1)] == 0.0)

    def test_drift_scenario_first_row_strictly_increasing(self):
        data, queries, model = drift_scenario("near")
        c = StreamCosts(data, queries, model).cost_matrix(0, 3, 1.0)
        row = c.staleness[0, 1:]
        assert np.all(row > 0)
        assert np.all(np.diff(row) > 0)

    def test_build_is_deterministic(self):
        data, queries = small_stream()
        a = StreamCosts(data, queries, MODEL).cost_matrix(0, 3, 1.0)
        b = StreamCosts(data, queries, MODEL).cost_matrix(0, 3, 1.0)
        assert np.array_equal(a.staleness, b.staleness)

    def test_range_mismatch_rejected(self):
        data, queries = small_stream()
        with pytest.raises(InvalidInputError):
            StreamCosts(data, queries[:-1], MODEL).cost_matrix(0, 3, 1.0)
        with pytest.raises(InvalidInputError):
            StreamCosts([data[0], data[2], data[3]], queries[1:], MODEL).cost_matrix(0, 3, 1.0)
        with pytest.raises(InvalidInputError):
            StreamCosts(data, queries, MODEL).cost_matrix(4, 4, 1.0)

    @pytest.mark.parametrize("data_ts, query_ts, message", MALFORMED_STREAMS.values(), ids=MALFORMED_STREAMS)
    def test_a_stream_that_is_not_batch_t_at_position_t_is_refused_at_construction(self, data_ts, query_ts, message):
        data, queries = indexed_stream(data_ts, query_ts)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
            StreamCosts(data, queries, MODEL)

    def test_a_stream_without_queries_serves_fits_and_errors(self):
        data, queries = small_stream()
        costs = StreamCosts(data, [], MODEL)
        expected = fit_model(data[0], MODEL).predict(data[2].X) != data[2].y
        assert np.array_equal(costs.errors(0, 2), expected)
        with pytest.raises(InvalidInputError, match="^no query batch 1 in a stream of 0$"):
            costs.query_batch(1)

    @pytest.mark.parametrize("t", [-1, 4])
    def test_a_batch_outside_the_stream_is_refused(self, t):
        # a list reads position -1 as the last batch; the accessor must not
        data, queries = small_stream()
        costs = StreamCosts(data, queries, MODEL)
        for read, kind in ((costs.data_batch, "data"), (costs.query_batch, "query")):
            with pytest.raises(InvalidInputError, match=f"^no {kind} batch {t} in a stream of 4$"):
                read(t)
        assert costs.data_batch(3) is data[3] and costs.query_batch(3) is queries[3]

    def test_kappa_patch_leaves_staleness_bit_identical(self):
        data, queries = small_stream()
        c1 = StreamCosts(data, queries, MODEL).cost_matrix(0, 3, 1.0)
        c2 = CostMatrix(c1.start, c1.staleness, 7.5)
        assert np.array_equal(c1.staleness, c2.staleness)
        assert np.shares_memory(c1.staleness, c2.staleness)
        assert np.all(c2.kappa == 7.5)
        assert all(c2.cost(t, t) == 7.5 for t in range(4))

    def test_shared_cache_reuses_staleness(self):
        data, queries = small_stream()
        costs = StreamCosts(data, queries, MODEL)
        c1 = costs.cost_matrix(0, 3, 1.0)
        c2 = costs.cost_matrix(0, 3, 9.0)
        assert np.array_equal(c1.staleness, c2.staleness)


    @pytest.mark.parametrize(
        "model",
        [LogisticClassifier(learning_rate=0.5, epochs=50), ForestClassifier(n_trees=5, max_depth=4)],
        ids=["logistic", "forest"],
    )
    def test_matches_relative_staleness_definition(self, model):
        spec = StreamSpec(dataset="covcon", n_batches=5, batch_size=60, queries_per_batch=6, seed=3)
        data, queries = generate_stream(spec)
        costs = StreamCosts(data, queries, model)
        psi = costs.staleness_matrix(0, 4)
        for j in range(5):
            for i in range(j):
                expected = relative_staleness(
                    queries[j], data[j], data[i], fit_model(data[i], model), costs.gamma
                )
                assert psi[i, j] == expected


def assert_matches_definition(costs, data, queries, model):
    """Every entry of the whole stream's matrix == the full-kernel reference."""
    n = len(data)
    psi = costs.staleness_matrix(0, n - 1)
    for j in range(n):
        for i in range(j):
            expected = relative_staleness(queries[j], data[j], data[i], fit_model(data[i], model), costs.gamma)
            assert psi[i, j] == expected


class TestTrainingTermSubset:
    """The training term is read only at the model's erring points; every
    entry must still equal the full-kernel definition bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        dataset=st.sampled_from(["covcon", "gauss"]),
        model=st.sampled_from(
            [LogisticClassifier(learning_rate=0.5, epochs=50), ForestClassifier(n_trees=5, max_depth=4)]
        ),
        n_batches=st.integers(2, 5),
        batch_size=st.integers(2, 120),
        n_queries=st.integers(1, 40),
        seed=st.integers(0, 2**16),
        one_class=st.one_of(st.none(), st.tuples(st.integers(0, 4), st.integers(0, 1))),
    )
    def test_every_entry_matches_the_full_kernel(
        self, dataset, model, n_batches, batch_size, n_queries, seed, one_class
    ):
        spec = StreamSpec(
            dataset=dataset,
            n_batches=n_batches,
            batch_size=batch_size,
            queries_per_batch=min(n_queries, batch_size),
            seed=seed,
        )
        data, queries = generate_stream(spec)
        if one_class is not None:  # a single-class batch trains a constant classifier
            t, label = one_class[0] % n_batches, one_class[1]
            data[t] = DataBatch(t, data[t].X, np.full(data[t].size, label))
        assert_matches_definition(StreamCosts(data, queries, model), data, queries, model)

    @pytest.mark.parametrize("n_queries", [1, 30])
    @pytest.mark.parametrize("n_wrong", [0, 1, 2, 3])
    def test_rows_with_few_training_errors(self, n_wrong, n_queries):
        """Row 0's model is trained on ``n_wrong`` positives among negatives
        and predicts negatives throughout, so it errs on exactly those points;
        a single erring point is the one-column case."""
        rng, n = np.random.default_rng(n_wrong), 6
        data = [DataBatch(t, rng.normal(size=(150, 8)), np.zeros(150, dtype=int)) for t in range(n)]
        data[0] = DataBatch(0, data[0].X, (np.arange(150) < n_wrong).astype(int))
        queries = [QueryBatch(t, rng.normal(size=(n_queries, 8))) for t in range(n)]
        model = LogisticClassifier(learning_rate=0.5, epochs=50)
        costs = StreamCosts(data, queries, model)
        assert int(costs.errors(0, 0).sum()) == n_wrong
        assert_matches_definition(costs, data, queries, model)


MODELS = [LogisticClassifier(learning_rate=0.5, epochs=50), ForestClassifier(n_trees=5, max_depth=4)]


class TestRowBuild:
    """The matrix is built one model row at a time; every entry must still
    equal the per-pair definition bit for bit."""

    @pytest.mark.parametrize("model", MODELS, ids=["logistic", "forest"])
    def test_query_batches_of_different_sizes(self, model):
        # runs of equal sizes share a kernel block, and a size change ends one
        spec = StreamSpec(dataset="covcon", n_batches=9, batch_size=60, queries_per_batch=30, seed=4)
        data, queries = generate_stream(spec)
        sizes = [30, 1, 7, 7, 30, 30, 1, 1, 7]
        queries = [QueryBatch(q.t, q.X[:size]) for q, size in zip(queries, sizes)]
        assert_matches_definition(StreamCosts(data, queries, model), data, queries, model)

    def test_forest_that_walks_its_trees(self):
        rng = np.random.default_rng(5)
        data, queries = [], []
        for t in range(6):
            X = rng.normal(size=(120, 3)) + 0.2 * t
            y = (X.sum(axis=1) + rng.normal(scale=0.8, size=120) > 0.6 * t).astype(int)
            data.append(DataBatch(t, X, y))
            queries.append(QueryBatch(t, rng.normal(size=(9, 3)) + 0.2 * t))
        model = ForestClassifier(n_trees=8, max_depth=8)
        costs = StreamCosts(data, queries, model)
        assert_matches_definition(costs, data, queries, model)
        for t in range(5):
            # a grid over _TABLE_CELLS_PER_NODE cells per node gets no table: predict walks the trees
            forest = costs.model_at(t)
            assert forest.nodes_ is not None and forest.table_ is None

    @pytest.mark.parametrize("model", MODELS, ids=["logistic", "forest"])
    def test_detectors_read_error_vectors_on_demand(self, model):
        spec = StreamSpec(dataset="covcon", n_batches=14, batch_size=60, queries_per_batch=6, seed=6)
        data, queries = generate_stream(spec)
        costs = StreamCosts(data, queries, model)
        c = costs.cost_matrix(2, 13, 1.0)
        read = []

        def errors(t_model, t_data):
            read.append((t_model, t_data))
            return costs.errors(t_model, t_data)

        for policy in (AdwinPolicy(delta=0.5), DdmPolicy(min_samples=5)):
            replay_policy(policy, c, errors)
        for t_model, t_data in read:
            expected = fit_model(data[t_model], model).predict(data[t_data].X) != data[t_data].y
            assert np.array_equal(costs.errors(t_model, t_data), expected)

    def test_build_calls_the_names_the_benchmark_traces(self, monkeypatch):
        """``perfbench/tracing.py`` counts kernel entries, fits and matrix
        cells only through calls to ``costmatrix.rbf_weights`` and
        ``costmatrix.fit_model``: one kernel per column, one fit per row."""
        calls = {"rbf_weights": [], "fit_model": []}
        for name, seen in calls.items():

            def counted(*args, _original=getattr(costmatrix, name), _seen=seen):
                _seen.append(args)
                return _original(*args)

            monkeypatch.setattr(costmatrix, name, counted)
        data, queries = small_stream(n=6)
        StreamCosts(data, queries, MODEL).staleness_matrix(1, 5)
        kernels = calls["rbf_weights"]
        assert len(kernels) == 4
        assert all(Q is queries[t].X and X is data[t].X for t, (Q, X, _) in zip(range(2, 6), kernels))
        assert [batch.t for batch, _ in calls["fit_model"]] == [1, 2, 3, 4]


def traced_build(costs, start, end):
    """(bytes still allocated, peak bytes) of one staleness build."""
    gc.collect()
    tracemalloc.start()
    try:
        costs.staleness_matrix(start, end)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


class TestBuildMemory:
    def test_build_keeps_no_error_vector_per_pair(self):
        # 26,796 pairs of 200 points: a bool per point and pair would be 5.4 MB;
        # the matrix itself is 0.43 MB
        data, queries = generate_stream(StreamSpec(dataset="covcon", n_batches=240, batch_size=200, seed=0))
        costs = StreamCosts(data, queries, LogisticClassifier())
        for t in range(8, 239):
            costs.model_at(t)
        retained, peak = traced_build(costs, 8, 239)
        assert retained < 1_000_000
        assert peak < 4_000_000  # the row's labels and the kernel blocks stay small too

    def test_forest_build_peak(self):
        # one 100 x 1000 query kernel and its squared distances take 1.6 MB;
        # no row, label array or kernel block may raise the peak above that
        # and the kept column sums (the models are fitted before tracing)
        spec = StreamSpec(dataset="covcon", n_batches=30, batch_size=1000, queries_per_batch=100, seed=0)
        data, queries = generate_stream(spec)
        costs = StreamCosts(data, queries, ForestClassifier())
        for t in range(8, 29):
            costs.model_at(t)
        _, peak = traced_build(costs, 8, 29)
        assert peak <= 1_930_000


class TestMatrixMemory:
    def test_consumers_hold_no_n2_array(self):
        # the oracle, a staleness replay and its pricing over two kappas read
        # the one staleness array; each holds O(n) arrays of its own
        n = 600
        psi = np.full((n, n), math.inf)
        psi[np.triu_indices(n, k=1)] = np.random.default_rng(0).uniform(-1.0, 1.0, n * (n - 1) // 2)
        np.fill_diagonal(psi, 0.0)
        gc.collect()
        tracemalloc.start()
        try:
            for c in (CostMatrix(0, psi, 0.5), CostMatrix(0, psi, 4.0)):
                strategy, _ = oracle_strategy(c)
                strategy_cost(strategy, c)
                strategy_cost(replay_policy(ThresholdPolicy(0.5), c), c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * psi.nbytes

    def test_every_kappa_shares_the_cached_array(self):
        data, queries = small_stream()
        costs = StreamCosts(data, queries, MODEL)
        psi = costs.staleness_matrix(0, 3)
        for kappa in (1.0, 9.0):
            c = costs.cost_matrix(0, 3, kappa)
            assert np.shares_memory(c.staleness, psi)
            with pytest.raises(ValueError):
                c.staleness[0, 1] = 5.0
        # a caller's own array stays writeable: the matrix keeps a read-only view
        own = psi.copy()
        c = CostMatrix(0, own, 1.0)
        assert np.shares_memory(c.staleness, own)
        with pytest.raises(ValueError):
            c.staleness[0, 1] = 5.0
        own[0, 1] = 5.0


class TestInvariants:
    @pytest.mark.parametrize(
        "staleness, kappa, message",
        [
            ([[0.0, math.nan], [math.inf, 0.0]], 1.0, r"\(t_prime=0, t=1\) is NaN"),
            ([[0.0]], math.nan, "retraining costs must be finite and >= 0"),
            ([[0.0, 0.5], [math.inf, 0.0]], -1.0, "retraining costs must be finite and >= 0"),
            ([[0.0, 0.5], [math.inf, 0.0]], math.inf, "retraining costs must be finite and >= 0"),
            ([[1.0, 0.5], [math.inf, 2.0]], 1.0, "staleness row 0 is not 0 on the diagonal"),
            ([[0.0, 0.5], [0.25, 0.0]], 1.0, "staleness row 1 is not 0 on the diagonal and infinite below"),
            (np.zeros((0, 0)), 1.0, r"square and non-empty, got shape \(0, 0\)"),
            (
                [[0.0, 0.5, 0.25], [math.inf, 0.0, 0.5], [math.inf, math.inf, 0.0]],
                [1.0, 2.0],
                r"kappa must be a scalar or a length-3 vector, got shape \(2,\)",
            ),
        ],
        ids=["nan-cell", "nan-diagonal", "negative-diagonal", "infinite-diagonal",
             "nonzero-staleness-diagonal", "finite-below-diagonal", "empty", "wrong-length-kappa"],
    )
    def test_construction_rejects(self, staleness, kappa, message):
        with pytest.raises(InvalidInputError, match=message):
            CostMatrix(0, np.array(staleness), kappa)

    @pytest.mark.parametrize(
        "start, message",
        [(2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True"), (-3, "must be >= 0")],
    )
    def test_start_must_be_a_non_negative_integer(self, start, message):
        # a float start would label the oracle strategy of start 2.5 "2|2"
        with pytest.raises(InvalidInputError, match=f"^cost matrix start {message}$"):
            CostMatrix(start, np.zeros((1, 1)), 1.0)
        c = CostMatrix(np.int64(2), np.zeros((1, 1)), 1.0)
        assert c.start == 2 and type(c.start) is int

    @pytest.mark.parametrize("t_prime, t", [(10, 9), (9, 10), (9, 9), (14, 14), (10, 14), (14, 13)])
    def test_cost_refuses_a_batch_outside_the_range(self, t_prime, t):
        # unchecked, (10, 9) read cell (10, 13) through a negative index
        c = random_cost_matrix(np.random.default_rng(0), 4, kappa=1.0, start=10)
        with pytest.raises(InvalidInputError, match="outside matrix range \\[10, 13\\]"):
            c.cost(t_prime, t)

    def test_cost_reads_every_cell_in_range(self):
        c = random_cost_matrix(np.random.default_rng(0), 4, kappa=1.0, start=10)
        for i in range(4):
            for j in range(4):
                assert c.cost(10 + i, 10 + j) == (1.0 if i == j else c.staleness[i, j])


class TestStrategyCost:
    def test_never_retrain_formula(self):
        c = random_cost_matrix(np.random.default_rng(0), 5, kappa=2.0)
        never = Strategy(0, 4, np.zeros(5, dtype=int))
        expected = 2.0 + float(np.sum(c.staleness[0, 1:]))
        assert strategy_cost(never, c) == pytest.approx(expected, abs=1e-12)

    def test_retrain_every_batch_is_n_kappa(self):
        c = random_cost_matrix(np.random.default_rng(1), 6, kappa=3.0)
        every = Strategy(0, 5, np.arange(6))
        assert strategy_cost(every, c) == 6 * 3.0

    def test_matches_naive_sum_on_random_strategies(self):
        rng = np.random.default_rng(2)
        c = random_cost_matrix(rng, 6, kappa=0.7)
        for s in reachable_strategies(0, 5):
            assert strategy_cost(s, c) == pytest.approx(naive_strategy_cost(s, c), abs=1e-12)

    def test_monotone_in_kappa_with_retrains(self):
        rng = np.random.default_rng(3)
        base = random_cost_matrix(rng, 6, kappa=0.0)
        s = Strategy(0, 5, np.array([0, 0, 2, 2, 4, 4]))
        costs = [strategy_cost(s, CostMatrix(0, base.staleness, k)) for k in (0.0, 0.5, 1.0, 4.0)]
        assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_range_mismatch_is_contract_error(self):
        c = random_cost_matrix(np.random.default_rng(4), 5, kappa=1.0)
        with pytest.raises(ContractViolationError):
            strategy_cost(Strategy(0, 3, np.zeros(4, dtype=int)), c)

    def test_invalid_strategy_is_contract_error(self):
        c = random_cost_matrix(np.random.default_rng(5), 4, kappa=1.0)
        with pytest.raises(ContractViolationError):
            strategy_cost(Strategy(0, 3, np.array([0, 2, 2, 2])), c)


class TestValidateStrategy:
    def test_valid(self):
        assert validate_strategy(Strategy(0, 3, np.array([0, 0, 2, 2]))) is None

    def test_jump_ahead_invalid(self):
        msg = validate_strategy(Strategy(0, 3, np.array([0, 2, 2, 2])))
        assert msg is not None and "s_1" in msg

    def test_missing_initial_training_invalid(self):
        msg = validate_strategy(Strategy(0, 3, np.array([1, 1, 1, 1])))
        assert msg is not None and "initial" in msg

    def test_reverting_to_older_model_invalid(self):
        assert validate_strategy(Strategy(0, 3, np.array([0, 1, 0, 0]))) is not None

    @pytest.mark.parametrize("start, end", [(5, 4), (3, 0)])
    def test_range_that_ends_before_it_starts(self, start, end):
        with pytest.raises(InvalidInputError, match="ends before it starts"):
            Strategy(start, end, [])

    @pytest.mark.parametrize(
        "served, message",
        [
            ([0.0, 1.7], "served_by must be an integer"),
            ([False, True], "served_by must be an integer"),
            (["0", "1"], "served_by must be an integer"),
            ([0.0, math.nan], "served_by must be an integer"),
            ([0, -1], "served_by must be >= 0"),
            ([[0, 1]], "served_by must have length 2"),
            ([0, 1, 1], "served_by must have length 2"),
        ],
    )
    def test_served_models_are_refused_not_truncated(self, served, message):
        with pytest.raises(InvalidInputError, match=message):
            Strategy(0, 1, served)
        assert Strategy(0, 1, [0, 1]).served_by.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "start, end, served, message",
        [
            (-1, 0, [0, 0], "strategy start must be >= 0"),
            (0.5, 1.5, [0, 1], "strategy start must be an integer, got 0.5"),
            (True, True, [1], "strategy start must be an integer, got True"),
            (0, 1.0, [0, 0], "strategy end must be an integer, got 1.0"),
            (0, -1, [], "strategy end must be >= 0"),
        ],
    )
    def test_range_must_be_non_negative_integers(self, start, end, served, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            Strategy(start, end, served)
        s = Strategy(np.int64(1), np.int64(2), [1, 1])
        assert (s.start, s.end) == (1, 2) and type(s.start) is int and type(s.end) is int

    def test_retrain_counting(self):
        s = Strategy(0, 3, np.array([0, 0, 2, 2]))
        assert s.n_retrains == 2
        assert s.retrain_batches == (0, 2)
        assert str(s) == "0|0|2|2"


class TestCsvExport:
    def test_export_writes_every_cell(self, tmp_path):
        c = random_cost_matrix(np.random.default_rng(6), 5, kappa=1.25, start=3)
        path = tmp_path / "matrix.csv"
        c.to_csv(path)
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        assert header == ["t_prime", "t", "value"]
        assert [(int(tp), int(t)) for tp, t, _ in rows] == [(tp, t) for tp in range(3, 8) for t in range(3, 8)]
        for tp, t, value in rows:
            assert float(value) == c.cost(int(tp), int(t))  # repr text reads back to the same bits
            assert (value == "inf") == (int(tp) > int(t))


class TestTrace:
    def test_last_point_equals_strategy_cost(self):
        c = random_cost_matrix(np.random.default_rng(7), 6, kappa=1.0, low=0.0, high=1.0)
        s = Strategy(0, 5, np.array([0, 0, 2, 2, 2, 5]))
        trace = cumulative_cost_trace(s, c)
        assert trace[-1] == pytest.approx(strategy_cost(s, c), abs=1e-12)
        assert trace.shape == (6,)
        assert np.all(np.diff(trace) >= 0)  # nonnegative entries -> monotone

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(1, 200),
        start=st.integers(0, 30),
        kappa=st.floats(0.0, 2.0),
        tau=st.floats(-1.0, 1.0),
        period=st.integers(1, 12),
    )
    def test_last_point_is_the_sequential_sum(self, seed, n, start, kappa, tau, period):
        # the DP adds the oracle's terms in batch order, as the trace does;
        # strategy_cost adds them pairwise, so only closeness holds there
        c = random_cost_matrix(np.random.default_rng(seed), n, kappa=kappa, start=start)
        s, oracle_cost = oracle_strategy(c)
        assert cumulative_cost_trace(s, c)[-1] == oracle_cost
        replayed = [
            replay_policy(policy, c)
            for policy in (ThresholdPolicy(tau), CumulativeThresholdPolicy(tau), PeriodicPolicy(period), MarkovPolicy())
        ]
        for s in [s, *replayed]:
            trace = cumulative_cost_trace(s, c)
            assert trace[-1] == naive_strategy_cost(s, c)
            assert math.isclose(trace[-1], strategy_cost(s, c), rel_tol=1e-12, abs_tol=1e-9)

    def test_trace_is_cumsum_of_terms(self):
        c = random_cost_matrix(np.random.default_rng(8), 5, kappa=0.5)
        s = Strategy(0, 4, np.array([0, 1, 1, 3, 3]))
        terms = [c.cost(s.serving(t), t) for t in range(5)]
        assert np.allclose(cumulative_cost_trace(s, c), np.cumsum(terms), atol=1e-12)
