import json
import math
from itertools import islice

import numpy as np
import pytest
from helpers import brute_force_optimum, random_cost_matrix, reachable_strategies, reference_dp_table
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from retrainer import (
    CostMatrix,
    RunConfig,
    optimize_offline,
    oracle_strategy,
    replay_policy,
    strategy_cost,
)
from retrainer.cli import main
from retrainer.costmatrix import format_value, write_csv
from retrainer.oracle import dp_rows, memoize_dp
from retrainer.policies import (
    CumulativeThresholdPolicy,
    MarkovPolicy,
    NeverRetrainPolicy,
    PeriodicPolicy,
    ThresholdPolicy,
)


def matrix_from(staleness, kappa):
    return CostMatrix(0, np.array(staleness, dtype=float), kappa)


def dp_table(c):
    """The rows ``dp_rows`` yields, copied out of its one buffer."""
    return np.array([row.copy() for row in dp_rows(c)])


class TestMemoizeDp:
    def test_single_batch(self):
        c = matrix_from([[0.0]], [2.5])
        V = dp_table(c)
        assert V[0, 0] == 2.5
        mins, argmins = memoize_dp(c)
        assert mins.tolist() == [2.5] and argmins.tolist() == [0]

    def test_two_batch_hand_case(self):
        # keeping costs 5, retraining costs 1: retrain wins
        c = matrix_from([[0.0, 5.0], [math.inf, 0.0]], [1.0, 1.0])
        V = dp_table(c)
        assert V[1, 0] == 6.0
        assert V[1, 1] == 2.0
        assert oracle_strategy(c)[0].retrain_batches == (0, 1)

    def test_two_batch_keep_case(self):
        # keeping costs 0.25 < kappa: keep wins
        c = matrix_from([[0.0, 0.25], [math.inf, 0.0]], [1.0, 1.0])
        assert memoize_dp(c)[0][-1] == 1.25
        assert oracle_strategy(c)[0].retrain_batches == (0,)

    def test_random_matrices_match_brute_force(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            n = int(rng.integers(2, 11))
            c = random_cost_matrix(rng, n, kappa=float(rng.uniform(0, 2)))
            best_cost, _ = brute_force_optimum(c)
            assert memoize_dp(c)[0][-1] == pytest.approx(best_cost, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_running_row_equals_the_reference_table(self, data, n):
        """Integer-valued entries, so rows tie often; +inf above the
        diagonal makes unreachable cells. Every row, every minimum and every
        first argmin equals the whole table's, bit for bit."""
        cells = st.integers(-3, 3).map(float) | st.just(math.inf)
        staleness = np.full((n, n), math.inf)
        for i in range(n):
            staleness[i, i] = 0.0
            staleness[i, i + 1 :] = data.draw(st.lists(cells, min_size=n - i - 1, max_size=n - i - 1))
        kappa = data.draw(st.lists(st.integers(0, 4).map(float), min_size=n, max_size=n))
        c = CostMatrix(0, staleness, kappa)
        V = reference_dp_table(c)
        assert dp_table(c).tobytes() == V.tobytes()
        mins, argmins = memoize_dp(c)
        assert mins.tobytes() == V.min(axis=1).tobytes()
        assert np.array_equal(argmins, V.argmin(axis=1))


class TestOracleRetrains:
    def test_zero_staleness_keeps_everything(self):
        n = 5
        staleness = np.full((n, n), math.inf)
        staleness[np.triu_indices(n)] = 0.0
        c = CostMatrix(0, staleness, 1.0)
        assert oracle_strategy(c)[0].retrain_batches == (0,)

    def test_free_retraining_with_costly_staleness_retrains_everywhere(self):
        n = 5
        staleness = np.full((n, n), math.inf)
        staleness[np.triu_indices(n, k=1)] = 0.8
        np.fill_diagonal(staleness, 0.0)
        c = CostMatrix(0, staleness, 0.0)
        assert oracle_strategy(c)[0].retrain_batches == (0, 1, 2, 3, 4)

    def test_argmin_tie_breaks_to_smallest_batch(self):
        # keeping (cost 1) ties with retraining (kappa 1): keep wins the tie
        c = matrix_from([[0.0, 1.0], [math.inf, 0.0]], [1.0, 1.0])
        assert oracle_strategy(c)[0].retrain_batches == (0,)

    def test_saturation_single_retrain(self):
        rng = np.random.default_rng(7)
        c0 = random_cost_matrix(rng, 8, kappa=0.0)
        off = c0.staleness
        kappa = float(np.sum(np.abs(off[np.isfinite(off)]))) + 1.0
        strat, _ = oracle_strategy(CostMatrix(c0.start, off, kappa))
        assert strat.n_retrains == 1
        assert strat.retrain_batches == (0,)

    def test_handles_negative_entries(self):
        rng = np.random.default_rng(8)
        c = random_cost_matrix(rng, 7, kappa=0.3, low=-1.0, high=-0.1)
        best_cost, _ = brute_force_optimum(c)
        strat, cost = oracle_strategy(c)
        assert cost == pytest.approx(best_cost, abs=1e-9)
        assert strategy_cost(strat, c) == pytest.approx(cost, abs=1e-9)


class TestExpand:
    def test_round_trip_cost_consistency(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            c = random_cost_matrix(rng, n, kappa=float(rng.uniform(0, 1.5)))
            strat, cost = oracle_strategy(c)
            assert strategy_cost(strat, c) == pytest.approx(cost, abs=1e-9)

    def test_nonzero_start_range(self):
        c = random_cost_matrix(np.random.default_rng(10), 5, kappa=0.5, start=26)
        strat, cost = oracle_strategy(c)
        assert strat.start == 26 and strat.end == 30
        assert strategy_cost(strat, c) == pytest.approx(cost, abs=1e-9)
        best_cost, _ = brute_force_optimum(c)
        assert cost == pytest.approx(best_cost, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**20), n=st.integers(2, 9), kappa=st.sampled_from([0.0, 0.5, 2.0]))
def test_oracle_is_lower_bound_for_reachable_strategies(seed, n, kappa):
    rng = np.random.default_rng(seed)
    c = random_cost_matrix(rng, n, kappa=kappa)
    _, cost = oracle_strategy(c)
    for s in reachable_strategies(0, n - 1):
        assert cost <= strategy_cost(s, c) + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    n=st.integers(2, 9),
    start=st.integers(1, 40),
    kappa=st.sampled_from([0.0, 0.4, 2.0]),
    tau=st.floats(-1.0, 1.0) | st.sampled_from([-math.inf, math.inf]),
    tau_cum=st.floats(-2.0, 2.0),
    period=st.integers(1, 10),
    offset=st.integers(0, 9),
)
def test_oracle_lower_bound_against_random_strategies_and_policies(
    seed, n, start, kappa, tau, tau_cum, period, offset
):
    c = random_cost_matrix(np.random.default_rng(seed), n, kappa=kappa, start=start)
    _, opt = oracle_strategy(c)
    policies = [
        ThresholdPolicy(tau),
        CumulativeThresholdPolicy(tau_cum),
        PeriodicPolicy(period, offset),
        NeverRetrainPolicy(),
        MarkovPolicy(),
    ]
    policies += [optimize_offline(family, c) for family in ("threshold", "cumulative", "periodic")]
    strategies = list(islice(reachable_strategies(c.start, c.end), 100))
    strategies += [replay_policy(p, c) for p in policies]
    for s in strategies:
        assert opt <= strategy_cost(s, c) + 1e-9


def test_dp_table_csv_export(tmp_path):
    raw = {
        "stream": {"dataset": "gauss", "n_batches": 6, "batch_size": 30, "queries_per_batch": 3, "seed": 12},
        "t_offline": 1,
        "t_online": 5,
        "kappas": [1.0],
        "policies": [{"name": "never"}],
        "model": {"kind": "logistic", "epochs": 20},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    path = tmp_path / "table.csv"
    result = CliRunner().invoke(main, ["oracle", "--config", str(config), "--table-out", str(path)])
    assert result.exit_code == 0, result.output
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,p,value"
    assert len(lines) == 1 + 16
    c = RunConfig.from_dict(raw).costs_for_seed(0)[2].cost_matrix(2, 5, 1.0)
    V = reference_dp_table(c)
    reference = tmp_path / "reference.csv"
    write_csv(reference, ["t", "p", "value"], ([2 + t, 2 + p, format_value(V[t, p])] for t, p in np.ndindex(V.shape)))
    assert path.read_bytes() == reference.read_bytes()
