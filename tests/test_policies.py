import math
import re

import numpy as np
import pytest
from helpers import (
    drift_scenario,
    random_cost_matrix,
    reachable_strategies,
    reference_optimize_offline,
    replay_cost,
)
from hypothesis import given, settings, strategies as st

from retrainer import (
    CostMatrix,
    DataBatch,
    InvalidInputError,
    QueryBatch,
    make_policy,
    optimize_offline,
    replay_policy,
    strategy_cost,
    validate_strategy,
)
from retrainer.costmatrix import StreamCosts
from retrainer.models import ForestClassifier, LogisticClassifier
from retrainer.policies import (
    _BLOCK,
    POLICY_KINDS,
    AdwinPolicy,
    CumulativeThresholdPolicy,
    DdmPolicy,
    MarkovPolicy,
    NeverRetrainPolicy,
    PeriodicPolicy,
    ThresholdPolicy,
    _candidate_costs,
    _serving_rows,
    decide_inputs,
)


def drifting_stream(n=12, n_points=40, n_queries=8, seed=0):
    """Labels flip against a moving blob so staleness actually accumulates."""
    rng = np.random.default_rng(seed)
    data, queries = [], []
    for t in range(n):
        X = rng.normal(size=(n_points, 2)) + 0.4 * t
        flip = (t // 4) % 2 == 1
        y = (X[:, 0] > 0.4 * t).astype(int)
        if flip:
            y = 1 - y
        data.append(DataBatch(t, X, y))
        idx = rng.choice(n_points, size=n_queries, replace=False)
        queries.append(QueryBatch(t, X[idx], y[idx]))
    return data, queries


MODEL = LogisticClassifier(learning_rate=0.5, epochs=100)


def run_online(policy, data, queries, kappa, model=MODEL, *, start=0, end=None, costs=None):
    """Replay the policy on the stream's cost matrix over [start, end] (the
    last batch by default), with the stream's error vectors for detectors."""
    if costs is None:
        costs = StreamCosts(data, queries, model)
    end = data[-1].t if end is None else end
    return replay_policy(policy, costs.cost_matrix(start, end, kappa), costs.errors)


class TestThresholdDecision:
    def test_boundary_value_retrains(self):
        assert ThresholdPolicy(0.5).decide(3, staleness=0.5)

    def test_below_threshold_keeps(self):
        assert not ThresholdPolicy(0.5).decide(3, staleness=0.499)

    def test_infinite_threshold_never_retrains(self):
        pol = ThresholdPolicy(math.inf)
        assert not pol.decide(3, staleness=1e12)

    def test_negative_infinity_always_retrains(self):
        pol = ThresholdPolicy(-math.inf)
        assert pol.decide(3, staleness=-1e12)


class TestCumulativeDecision:
    def test_retrains_every_third_batch_under_unit_staleness(self):
        # constant unit staleness against tau_cum=3: retrain 3 batches after
        # each training
        n = 10
        staleness = np.full((n, n), math.inf)
        staleness[np.triu_indices(n, k=1)] = 1.0
        np.fill_diagonal(staleness, 0.0)
        c = CostMatrix(0, staleness, 0.5)
        strat = replay_policy(CumulativeThresholdPolicy(3.0), c)
        assert strat.retrain_batches == (0, 3, 6, 9)

    def test_infinite_threshold_never_retrains(self):
        pol = CumulativeThresholdPolicy(math.inf)
        pol.reset()
        for t in range(100):
            assert not pol.decide(t, staleness=1e6)

    def test_negative_staleness_never_accumulates_past_threshold(self):
        pol = CumulativeThresholdPolicy(0.5)
        pol.reset()
        for t in range(50):
            assert not pol.decide(t, staleness=-0.2)

    def test_accumulator_resets_on_retrain(self):
        pol = CumulativeThresholdPolicy(1.0)
        pol.reset()
        assert not pol.decide(1, staleness=0.6)
        assert pol.decide(2, staleness=0.6)
        assert pol.cumulative_ == 0.0
        assert not pol.decide(3, staleness=0.6)


class TestPeriodicDecision:
    def test_period_one_always_retrains(self):
        pol = PeriodicPolicy(1)
        assert all(pol.decide(t) for t in range(20))

    def test_off_phase_keeps(self):
        assert not PeriodicPolicy(10, 0).decide(25)

    def test_on_phase_retrains(self):
        assert PeriodicPolicy(10, 5).decide(25)

    def test_invalid_params(self):
        with pytest.raises(InvalidInputError):
            PeriodicPolicy(0)
        with pytest.raises(InvalidInputError):
            PeriodicPolicy(3, -1)
        with pytest.raises(InvalidInputError, match="period must be an integer, got 2.0"):
            PeriodicPolicy(2.0)


class TestMarkovDecision:
    @settings(max_examples=50, deadline=None)
    @given(
        staleness=st.floats(-5, 5, allow_nan=False),
        kappa=st.floats(0, 5, allow_nan=False),
    )
    def test_matches_threshold_at_kappa(self, staleness, kappa):
        markov = MarkovPolicy().decide(4, staleness=staleness, kappa=kappa)
        threshold = ThresholdPolicy(kappa).decide(4, staleness=staleness)
        assert markov == threshold

    def test_boundary_retrains(self):
        assert MarkovPolicy().decide(1, staleness=0.0, kappa=0.0)

    def test_negative_staleness_keeps(self):
        assert not MarkovPolicy().decide(1, staleness=-0.5, kappa=1.0)


class TestRunPolicy:
    def test_never_retrain_serves_start_everywhere(self):
        data, queries = drifting_stream()
        s = run_online(NeverRetrainPolicy(), data, queries, 1.0)
        assert np.all(s.served_by == 0)

    def test_period_one_retrains_every_batch(self):
        data, queries = drifting_stream()
        s = run_online(PeriodicPolicy(1), data, queries, 1.0)
        assert np.array_equal(s.served_by, np.arange(12))

    def test_markov_equals_threshold_at_kappa_end_to_end(self):
        data, queries = drifting_stream()
        for kappa in (0.5, 2.0):
            a = run_online(MarkovPolicy(), data, queries, kappa)
            b = run_online(ThresholdPolicy(kappa), data, queries, kappa)
            assert np.array_equal(a.served_by, b.served_by)

    def test_all_policies_return_valid_strategies(self):
        data, queries = drifting_stream()
        costs = StreamCosts(data, queries, MODEL)
        policies = [
            ThresholdPolicy(0.3),
            CumulativeThresholdPolicy(0.8),
            PeriodicPolicy(4, 1),
            NeverRetrainPolicy(),
            MarkovPolicy(),
            AdwinPolicy(),
            DdmPolicy(min_samples=10),
        ]
        for pol in policies:
            s = run_online(pol, data, queries, 1.0, costs=costs)
            assert validate_strategy(s) is None

    def test_sub_range_and_gap_detection(self):
        data, queries = drifting_stream()
        s = run_online(NeverRetrainPolicy(), data, queries, 1.0, start=5, end=11)
        assert s.start == 5 and np.all(s.served_by == 5)
        with pytest.raises(InvalidInputError):
            run_online(NeverRetrainPolicy(), data[:6] + data[7:], queries, 1.0, end=11)

    def test_detectors_ignore_kappa_and_queries(self):
        data, queries = drifting_stream()
        rng = np.random.default_rng(99)
        other_queries = [QueryBatch(q.t, rng.normal(size=q.X.shape) * 3.0) for q in queries]
        for pol_cls in (AdwinPolicy, lambda: DdmPolicy(min_samples=10)):
            a = run_online(pol_cls(), data, queries, 0.0)
            b = run_online(pol_cls(), data, other_queries, 1e6)
            assert np.array_equal(a.served_by, b.served_by)

    def test_cost_aware_decisions_invariant_to_in_batch_permutation(self):
        data, queries = drifting_stream()
        model = ForestClassifier(n_trees=5, max_depth=4, bootstrap=False)
        rng = np.random.default_rng(5)
        data_p, queries_p = [], []
        for d, q in zip(data, queries):
            pd = rng.permutation(d.size)
            pq = rng.permutation(q.size)
            data_p.append(DataBatch(d.t, d.X[pd], d.y[pd]))
            queries_p.append(QueryBatch(q.t, q.X[pq], q.eval_labels[pq]))
        for pol in (ThresholdPolicy(0.37), CumulativeThresholdPolicy(0.9)):
            a = run_online(pol, data, queries, 1.0, model)
            b = run_online(pol, data_p, queries_p, 1.0, model)
            assert np.array_equal(a.served_by, b.served_by)

    def test_replay_feeds_detectors_the_serving_models_errors(self):
        class ErrorsSeen(AdwinPolicy):
            def decide(self, t, *, errors):
                return errors.sum() > 0

        def errors(t_model, t_data):
            return np.array([float(t_data - t_model >= 2)])

        c = random_cost_matrix(np.random.default_rng(0), 7, kappa=1.0, start=3)
        s = replay_policy(ErrorsSeen(), c, errors)
        assert np.array_equal(s.served_by, [3, 3, 5, 5, 7, 7, 9])

    @pytest.mark.parametrize(
        "policy",
        [ThresholdPolicy(0.3), CumulativeThresholdPolicy(0.8), PeriodicPolicy(2, 1), NeverRetrainPolicy(), MarkovPolicy()],
        ids=repr,
    )
    def test_replay_reads_no_errors_a_policy_does_not_take(self, policy):
        def errors(t_model, t_data):
            raise AssertionError(f"{policy!r} was handed errors")

        c = random_cost_matrix(np.random.default_rng(0), 7, kappa=1.0, start=3)
        assert replay_policy(policy, c, errors).served_by.tolist() == replay_policy(policy, c).served_by.tolist()

    def test_replay_rejects_detector_policies(self):
        c = random_cost_matrix(np.random.default_rng(0), 4, kappa=1.0)
        with pytest.raises(InvalidInputError):
            replay_policy(AdwinPolicy(), c)


class TestOptimizeOffline:
    def test_zero_staleness_returns_infinite_threshold(self):
        n = 6
        staleness = np.full((n, n), math.inf)
        staleness[np.triu_indices(n)] = 0.0
        c = CostMatrix(0, staleness, 1.0)
        for family in ("threshold", "cumulative"):
            pol = optimize_offline(family, c)
            assert math.isinf(list(pol.get_params().values())[0])
            assert replay_policy(pol, c).n_retrains == 1

    def test_huge_kappa_reproduces_never_retrain_cost(self):
        rng = np.random.default_rng(1)
        base = random_cost_matrix(rng, 8, kappa=0.0, low=0.0, high=1.0)
        off = base.staleness
        kappa = float(np.sum(off[np.isfinite(off)])) + 1.0
        c = CostMatrix(base.start, off, kappa)
        nr_cost = strategy_cost(replay_policy(NeverRetrainPolicy(), c), c)
        for family in ("threshold", "cumulative"):
            pol = optimize_offline(family, c)
            assert strategy_cost(replay_policy(pol, c), c) == pytest.approx(nr_cost, abs=1e-9)

    def test_threshold_grid_matches_exhaustive_midpoint_search(self):
        # independent oracle: evaluate every threshold lying between
        # consecutive distinct staleness values
        rng = np.random.default_rng(2)
        for trial in range(10):
            c = random_cost_matrix(rng, 5, kappa=float(rng.uniform(0.0, 1.0)))
            values = np.unique(c.staleness[np.triu_indices(5, k=1)])
            probes = [-math.inf, math.inf]
            probes += list(values)
            probes += list((values[:-1] + values[1:]) / 2.0)
            best_probe_cost = min(
                strategy_cost(replay_policy(ThresholdPolicy(tau), c), c) for tau in probes
            )
            pol = optimize_offline("threshold", c)
            cost = strategy_cost(replay_policy(pol, c), c)
            assert cost == pytest.approx(best_probe_cost, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**20), n=st.integers(2, 8), kappa=st.sampled_from([0.0, 0.3, 1.5]))
    def test_never_worse_than_sentinels(self, seed, n, kappa):
        c = random_cost_matrix(np.random.default_rng(seed), n, kappa=kappa)
        nr = strategy_cost(replay_policy(ThresholdPolicy(math.inf), c), c)
        always = strategy_cost(replay_policy(ThresholdPolicy(-math.inf), c), c)
        for family in ("threshold", "cumulative"):
            pol = optimize_offline(family, c)
            cost = strategy_cost(replay_policy(pol, c), c)
            assert cost <= nr + 1e-9
            assert cost <= always + 1e-9

    def test_periodic_exhaustive_on_alternating_matrix(self):
        # staleness explodes two batches after training: period 2 is optimal
        n = 9
        staleness = np.full((n, n), math.inf)
        for i in range(n):
            for j in range(i + 1, n):
                staleness[i, j] = 0.0 if j - i == 1 else 10.0
        np.fill_diagonal(staleness, 0.0)
        c = CostMatrix(0, staleness, 1.0)
        pol = optimize_offline("periodic", c)
        assert pol.period == 2
        best = min(
            strategy_cost(s, c) for s in reachable_strategies(0, n - 1)
            if validate_strategy(s) is None
        )
        assert strategy_cost(replay_policy(pol, c), c) == pytest.approx(best, abs=1e-9)

    def test_periodic_tie_prefers_largest_period_then_smallest_offset(self):
        # all-zero staleness, zero kappa: every (period, offset) ties
        n = 5
        staleness = np.zeros((n, n))
        staleness[np.tril_indices(n, k=-1)] = math.inf
        c = CostMatrix(0, staleness, 0.0)
        pol = optimize_offline("periodic", c)
        assert (pol.period, pol.offset) == (4, 0)

    @pytest.mark.parametrize(
        "start, n, expected",
        [(0, 1, (1, 0)), (4, 1, (4, 0)), (3, 3, (5, 0))],
    )
    def test_periodic_search_range_ends_at_matrix_end(self, start, n, expected):
        # every candidate ties, so the largest period searched wins: max(1, c.end)
        staleness = np.zeros((n, n))
        staleness[np.tril_indices(n, k=-1)] = math.inf
        c = CostMatrix(start, staleness, 0.0)
        pol = optimize_offline("periodic", c)
        assert (pol.period, pol.offset) == expected

    def test_periodic_search_reaches_last_offset(self):
        # one retrain at batch 6 is optimal; (7, 6) and (6, 0) both give it and
        # the tie prefers the larger period, so offset = period - 1 is searched
        n = 8
        staleness = np.full((n, n), math.inf)
        for i in range(n):
            for j in range(i + 1, n):
                staleness[i, j] = 100.0 if j >= 6 > i else 0.0
        np.fill_diagonal(staleness, 0.0)
        c = CostMatrix(0, staleness, 1.0)
        pol = optimize_offline("periodic", c)
        assert (pol.period, pol.offset) == (7, 6)
        assert strategy_cost(replay_policy(pol, c), c) == 2.0

    def test_unknown_family_rejected(self):
        c = random_cost_matrix(np.random.default_rng(3), 4, kappa=1.0)
        expected = re.escape("expected one of ['cumulative', 'periodic', 'threshold']")
        with pytest.raises(InvalidInputError, match="unknown optimizable family 'never'; " + expected):
            optimize_offline("never", c)
        with pytest.raises(InvalidInputError, match=r"unknown optimizable family \['threshold'\]"):
            optimize_offline(["threshold"], c)


@st.composite
def offline_matrices(draw):
    """Small cost matrices with negative staleness, repeated values (ties),
    all-zero staleness, n = 1 and ranges that start after 0."""
    n = draw(st.integers(1, 9))
    start = draw(st.integers(0, 4))
    kappa = draw(st.sampled_from([0.0, 0.5, 2.0, 50.0]))
    value = st.sampled_from([-1.0, -0.25, 0.0, 0.25, 0.5, 1.0]) | st.floats(-2.0, 2.0)
    upper = draw(st.lists(value, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    staleness = np.full((n, n), math.inf)
    staleness[np.triu_indices(n, k=1)] = upper
    np.fill_diagonal(staleness, 0.0)
    return CostMatrix(start, staleness, kappa)


class TestBatchedCalibration:
    """The batched candidate evaluator against per-candidate replays."""

    @settings(max_examples=60, deadline=None)
    @given(c=offline_matrices())
    def test_same_parameters_as_reference_search(self, c):
        for family in ("threshold", "cumulative", "periodic"):
            got = optimize_offline(family, c).get_params()
            assert got == reference_optimize_offline(family, c).get_params()

    @settings(max_examples=60, deadline=None)
    @given(
        c=offline_matrices(),
        extra=st.lists(
            st.sampled_from([-math.inf, math.inf, -1.0, 0.0]) | st.floats(-3.0, 3.0), max_size=6
        ),
    )
    def test_every_cost_equals_replayed_strategy_cost(self, c, extra):
        for cls, grid in candidate_grids(c, extra):
            costs = _candidate_costs(cls, grid, c).tolist()
            assert costs == [replay_cost(policy, c) for policy in candidates(cls, grid)]
            assert_block_matches_replays(cls, grid, c)

    def test_blocks_larger_than_one_pass(self):
        # more candidates than one block holds, on a matrix longer than the
        # 128-element pairwise-summation unit
        rng = np.random.default_rng(11)
        c = random_cost_matrix(rng, 150, kappa=0.7, start=2)
        taus = np.concatenate([[-math.inf, math.inf], rng.uniform(-3.0, 20.0, 600)])
        grid = {"tau_cum": taus}
        costs = _candidate_costs(CumulativeThresholdPolicy, grid, c).tolist()
        assert costs == [replay_cost(policy, c) for policy in candidates(CumulativeThresholdPolicy, grid)]

    def test_block_wider_than_one_pass_replays_every_candidate(self):
        rng = np.random.default_rng(12)
        c = random_cost_matrix(rng, 140, kappa=0.4, start=1)
        width = _BLOCK + 44
        periods = rng.integers(1, c.end + 1, width)
        grids = [
            (ThresholdPolicy, {"tau": rng.uniform(-1.0, 2.0, width)}),
            (CumulativeThresholdPolicy, {"tau_cum": rng.uniform(-3.0, 20.0, width)}),
            (PeriodicPolicy, {"period": periods, "offset": rng.integers(0, periods)}),
        ]
        for cls, grid in grids:
            assert_block_matches_replays(cls, grid, c)


def candidate_grids(c, extra):
    """Each calibratable family with a grid of candidates: the thresholds
    include every staleness value, every cumulative sum, the sentinels and
    ``extra``; the periods are the whole periodic search."""
    psi = c.staleness
    upper = psi[np.triu_indices(c.n, k=1)]
    sums = [np.cumsum(psi[i, i + 1 :]) for i in range(c.n - 1)]
    taus = np.concatenate([[-math.inf, math.inf], upper, *sums, extra])
    pairs = np.array([(p, o) for p in range(1, max(1, c.end) + 1) for o in range(p)], dtype=np.int64)
    return [
        (ThresholdPolicy, {"tau": taus}),
        (CumulativeThresholdPolicy, {"tau_cum": taus}),
        (PeriodicPolicy, {"period": pairs[:, 0], "offset": pairs[:, 1]}),
    ]


def candidates(cls, grid):
    """One policy per index of the grid's parameter arrays."""
    names = list(grid)
    return [cls(**dict(zip(names, values))) for values in zip(*(grid[k].tolist() for k in names))]


def assert_block_matches_replays(cls, grid, c):
    """Every column of one block's serving rows is that candidate's replay."""
    size = len(next(iter(grid.values())))
    served = _serving_rows(cls(**grid), c, (size,))
    assert served.shape == (c.n, size)
    for i, policy in enumerate(candidates(cls, grid)):
        assert np.array_equal(c.start + served[:, i], replay_policy(policy, c).served_by), policy


class TestDriftScenarioPolicies:
    def test_positive_thresholds_keep_on_static_data(self):
        from helpers import static_scenario

        data, queries, model = static_scenario()
        costs = StreamCosts(data, queries, model)
        for pol in (ThresholdPolicy(1e-9), CumulativeThresholdPolicy(1e-9)):
            s = run_online(pol, data, queries, 1.0, model, costs=costs)
            assert s.n_retrains == 1

    def test_near_query_drift_triggers_retraining(self):
        data, queries, model = drift_scenario("near")
        s = run_online(ThresholdPolicy(0.5), data, queries, 1.0, model)
        assert s.n_retrains > 1


def test_make_policy_registry():
    assert isinstance(make_policy("threshold", tau=1.0), ThresholdPolicy)
    assert isinstance(make_policy("adwin", delta=0.01), AdwinPolicy)
    with pytest.raises(InvalidInputError, match="unknown policy 'nope'; expected one of"):
        make_policy("nope")
    with pytest.raises(InvalidInputError, match=r"unknown policy \['never'\]"):
        make_policy(["never"])


DECIDE_INPUTS = {
    "threshold": ("staleness",),
    "cumulative": ("staleness",),
    "periodic": (),
    "never": (),
    "markov": ("staleness", "kappa"),
    "adwin": ("errors",),
    "ddm": ("errors",),
}


@pytest.mark.parametrize("name", POLICY_KINDS)
def test_decide_declares_the_inputs_it_reads(name):
    required = {"threshold": {"tau": 0.5}, "cumulative": {"tau_cum": 1.0}, "periodic": {"period": 2}}
    assert decide_inputs(make_policy(name, **required.get(name, {}))) == DECIDE_INPUTS[name]
