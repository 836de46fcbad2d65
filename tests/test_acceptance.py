"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s``) and enforces its runtime budget. The heavy covcon artifacts
(matrices, sweep results) are built once and shared between the criteria
that need them.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from helpers import (
    brute_force_optimum,
    drift_scenario,
    query_staleness,
    random_cost_matrix,
    rbf_similarity,
    static_scenario,
    zero_one_loss,
)

from retrainer import (
    RunConfig,
    StreamSpec,
    generate_stream,
    optimize_offline,
    oracle_strategy,
    replay_policy,
    report,
    run_sweep,
    strategy_cost,
)
from retrainer.cli import main as cli_main
from retrainer.costmatrix import StreamCosts
from retrainer.models import ForestClassifier, LogisticClassifier, fit_model
from retrainer.oracle import memoize_dp
from retrainer.policies import (
    AdwinPolicy,
    CumulativeThresholdPolicy,
    DdmPolicy,
    MarkovPolicy,
    NeverRetrainPolicy,
    PeriodicPolicy,
    ThresholdPolicy,
)
from retrainer.streams import DataBatch


class Criterion:
    """Collects checks, enforces the runtime budget, prints one line."""

    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds
        self.failures = []

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def check(self, condition, detail):
        if not condition:
            self.failures.append(detail)

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None and elapsed > self.budget:
            self.failures.append(f"runtime {elapsed:.1f}s exceeds budget {self.budget}s")
        status = "PASS" if exc_type is None and not self.failures else "FAIL"
        print(f"[criterion {self.number}] {status} ({elapsed:.1f}s): {self.description}")
        if exc_type is None:
            assert not self.failures, f"criterion {self.number}: " + "; ".join(self.failures)
        return False


SWEEP_KAPPAS = [1.0, 5.0, 20.0, 46.0, 100.0]
SWEEP_SEEDS = [0, 1, 2]


@pytest.fixture(scope="module")
def covcon_artifacts():
    """Shipped-defaults covcon-D sweep plus the per-seed computation caches."""
    cfg = RunConfig(
        stream=StreamSpec(dataset="covcon", n_batches=100, batch_size=1000, queries_per_batch=100),
        t_offline=25,
        t_online=99,
        kappas=SWEEP_KAPPAS,
        policies=[
            {"name": "threshold", "params": "optimize"},
            {"name": "cumulative", "params": "optimize"},
            {"name": "periodic", "params": "optimize"},
            {"name": "never"},
            {"name": "adwin"},
        ],
        model=ForestClassifier(n_trees=25, max_depth=8),
        seeds=SWEEP_SEEDS,
    )
    cache = {}
    t0 = time.monotonic()
    results = run_sweep(cfg, cost_cache=cache)
    elapsed = time.monotonic() - t0
    return {"cfg": cfg, "results": results, "cache": cache, "elapsed": elapsed}


def test_criterion_1_oracle_optimality():
    with Criterion(1, "DP oracle equals exhaustive optimum on 200 random matrices", 10) as c:
        rng = np.random.default_rng(20240811)
        kappas = [0.0, 0.5, 2.0]
        for trial in range(200):
            n = int(rng.integers(2, 13))
            kappa = kappas[trial % 3]
            matrix = random_cost_matrix(rng, n, kappa=kappa)
            dp_cost = memoize_dp(matrix)[0][-1]
            best_cost, _ = brute_force_optimum(matrix)
            c.check(
                abs(dp_cost - best_cost) <= 1e-9,
                f"trial {trial}: dp {dp_cost} vs brute force {best_cost}",
            )
            strat, cost = oracle_strategy(matrix)
            c.check(
                abs(strategy_cost(strat, matrix) - best_cost) <= 1e-9,
                f"trial {trial}: expanded strategy cost mismatch",
            )


def test_criterion_2_static_data_zero_cost():
    with Criterion(2, "static data with drifting queries has zero staleness cost", 5) as c:
        data, queries, model = static_scenario()
        n_queries = queries[0].size
        matrix = StreamCosts(data, queries, model).cost_matrix(0, 3, 1.0)
        off_diagonal = matrix.staleness[np.triu_indices(4, k=1)]
        c.check(
            np.max(np.abs(off_diagonal)) <= 1e-12 * n_queries,
            f"max |staleness| = {np.max(np.abs(off_diagonal))}",
        )
        for policy in (
            ThresholdPolicy(1e-9),
            ThresholdPolicy(0.5),
            CumulativeThresholdPolicy(1e-9),
            CumulativeThresholdPolicy(0.5),
        ):
            strat = replay_policy(policy, matrix)
            c.check(
                strat.n_retrains == 1,
                f"{policy!r} retrained {strat.n_retrains - 1} times on static data",
            )


def test_criterion_3_drift_scenario_decision_pattern():
    with Criterion(3, "linear-drift scenario: keep when queries are far, retrain mid-way when near", 10) as c:
        far_data, far_queries, model = drift_scenario("far")
        far_matrix = StreamCosts(far_data, far_queries, model).cost_matrix(0, 3, 1.0)
        far_strat, _ = oracle_strategy(far_matrix)
        c.check(far_strat.retrain_batches == (0,), f"far queries retrained at {far_strat.retrain_batches}")

        near_data, near_queries, model = drift_scenario("near")
        near_matrix = StreamCosts(near_data, near_queries, model).cost_matrix(0, 3, 1.0)
        first_row = near_matrix.staleness[0, 1:]
        c.check(np.all(np.diff(first_row) > 0), f"first row not increasing: {first_row}")
        near_strat, _ = oracle_strategy(near_matrix)
        c.check(
            near_strat.retrain_batches == (0, 2),
            f"near queries retrained at {near_strat.retrain_batches}",
        )


def test_criterion_4_policy_equivalences():
    with Criterion(4, "markov == threshold(kappa); retrain-every-batch costs n*kappa", 300) as c:
        model = LogisticClassifier(learning_rate=0.5, epochs=100)
        for dataset in ("gauss", "circle", "covcon"):
            spec = StreamSpec(dataset=dataset, n_batches=30, batch_size=200, queries_per_batch=20, seed=1)
            data, queries = generate_stream(spec)
            costs = StreamCosts(data, queries, model)
            for kappa in (1.0, 20.0):
                matrix = costs.cost_matrix(0, 29, kappa)
                markov = replay_policy(MarkovPolicy(), matrix)
                threshold = replay_policy(ThresholdPolicy(kappa), matrix)
                c.check(
                    np.array_equal(markov.served_by, threshold.served_by),
                    f"{dataset} kappa={kappa}: markov and threshold strategies differ",
                )
                every = replay_policy(PeriodicPolicy(1), matrix)
                cost = strategy_cost(every, matrix)
                c.check(
                    cost == 30 * kappa,
                    f"{dataset} kappa={kappa}: retrain-every cost {cost} != {30 * kappa}",
                )


def test_criterion_5_covcon_ordering(covcon_artifacts):
    with Criterion(5, "covcon-D sweep: calibrated threshold beats never-retrain and adwin; "
                      "oracle accuracy beats never-retrain by 0.1 "
                      f"(sweep ran in {covcon_artifacts['elapsed']:.0f}s)", 900) as c:
        c.check(
            covcon_artifacts["elapsed"] <= 900,
            f"sweep took {covcon_artifacts['elapsed']:.0f}s",
        )
        summary = {row["policy"]: row for row in report(covcon_artifacts["results"])}
        threshold = summary["threshold"]["mean_scpe"]
        never = summary["never"]["mean_scpe"]
        adwin = summary["adwin"]["mean_scpe"]
        c.check(threshold < never, f"mean scpe: threshold {threshold:.2f} !< never {never:.2f}")
        c.check(threshold < adwin, f"mean scpe: threshold {threshold:.2f} !< adwin {adwin:.2f}")
        gap = summary["oracle"]["mean_query_accuracy"] - summary["never"]["mean_query_accuracy"]
        c.check(gap >= 0.1, f"oracle-never accuracy gap {gap:.3f} < 0.1")
        # the ordering also holds restricted to the low-cost regime
        low = [r for r in covcon_artifacts["results"] if r.kappa <= 20.0]
        oracle_low = np.mean([r.query_accuracy for r in low if r.policy == "oracle"])
        never_low = np.mean([r.query_accuracy for r in low if r.policy == "never"])
        c.check(
            oracle_low >= never_low,
            f"kappa<=20: oracle accuracy {oracle_low:.3f} < never-retrain {never_low:.3f}",
        )


def test_criterion_6_saturation_at_huge_kappa(covcon_artifacts):
    with Criterion(6, "kappa above total staleness: threshold policies and oracle collapse to "
                      "never-retrain; periodic saturates to its longest period", 300) as c:
        cfg = covcon_artifacts["cfg"]
        start, end = cfg.t_offline + 1, cfg.t_online
        for seed in cfg.seeds:
            costs = covcon_artifacts["cache"][seed][2]
            online = costs.staleness_matrix(start, end)
            kappa_big = float(np.sum(np.abs(online[np.isfinite(online)]))) + 1.0
            online_c = costs.cost_matrix(start, end, kappa_big)
            offline_c = costs.cost_matrix(0, cfg.t_offline, kappa_big)

            never = replay_policy(NeverRetrainPolicy(), online_c)
            never_cost = strategy_cost(never, online_c)

            opt_strat, opt_cost = oracle_strategy(online_c)
            c.check(opt_strat.n_retrains == 1, f"seed {seed}: oracle retrained {opt_strat.n_retrains - 1} times")
            c.check(abs(opt_cost - never_cost) <= 1e-9, f"seed {seed}: oracle cost differs from never-retrain")

            for family in ("threshold", "cumulative"):
                policy = optimize_offline(family, offline_c)
                strat = replay_policy(policy, online_c)
                cost = strategy_cost(strat, online_c)
                c.check(
                    strat.n_retrains == 1,
                    f"seed {seed} {family}: {strat.n_retrains - 1} extra retrains at huge kappa",
                )
                c.check(
                    abs(cost - never_cost) <= 1e-9,
                    f"seed {seed} {family}: cost {cost} != never-retrain {never_cost}",
                )

            periodic = optimize_offline("periodic", offline_c)
            c.check(
                periodic.period == cfg.t_offline,
                f"seed {seed}: periodic saturated to period {periodic.period}, not {cfg.t_offline}",
            )
            strat = replay_policy(periodic, online_c)
            forced = [t for t in range(start, end + 1) if (t - periodic.offset) % periodic.period == 0]
            c.check(
                strat.n_retrains == 1 + len(forced),
                f"seed {seed}: periodic retrains {strat.n_retrains - 1} != schedule minimum {len(forced)}",
            )


def test_criterion_7_staleness_micro_oracles():
    with Criterion(7, "closed-form staleness values match to 1e-12", 1) as c:
        k = 1.0
        constant_one = fit_model(DataBatch(0, [[0.0, 0.0], [1.0, 0.0]], [1, 1]), LogisticClassifier())
        constant_zero = fit_model(DataBatch(0, [[0.0, 0.0], [1.0, 0.0]], [0, 0]), LogisticClassifier())

        c.check(abs(rbf_similarity([0.4, -1.2], [0.4, -1.2], k) - 1.0) <= 1e-12, "sim(q,q) != 1")
        c.check(
            abs(rbf_similarity([0.0, 0.0], [1.0, 0.0], k) - math.exp(-1)) <= 1e-12,
            "unit-distance similarity != e^-1",
        )
        c.check(
            abs(rbf_similarity([0.0, 0.0], [1.0, 1.0], k) - math.exp(-2)) <= 1e-12,
            "sqrt(2)-distance similarity != e^-2",
        )

        c.check(zero_one_loss(constant_one, [0.5, 0.5], 1) == 0, "correct prediction lost")
        c.check(zero_one_loss(constant_one, [0.5, 0.5], 0) == 1, "wrong prediction not lost")
        c.check(zero_one_loss(constant_zero, [0.5, 0.5], 1) == 1, "constant-0 vs label 1 not lost")
        c.check(zero_one_loss(constant_zero, [0.5, 0.5], 0) == 0, "constant-0 vs label 0 lost")

        data = DataBatch(1, [[0.0, 0.0], [1.0, 0.0]], [0, 0])
        value = query_staleness([0.0, 0.0], data, constant_one, k)
        expected = (1 + math.exp(-1)) / 2
        c.check(abs(value - expected) <= 1e-12, f"hand case {value} != {expected}")


def test_criterion_8_detector_sanity():
    with Criterion(8, "detectors flag their canonical shifts and stay quiet on constant streams", 5) as c:
        rng = np.random.default_rng(42)
        bits = [int(rng.random() < (0.1 if i < 500 else 0.9)) for i in range(1000)]
        ddm = DdmPolicy()
        hit = next((i for i, bit in enumerate(bits) if ddm.decide(i, errors=[bit])), None)
        c.check(hit is not None and hit >= 500, f"ddm fired at {hit}")

        adwin = AdwinPolicy(delta=0.002)
        hit = next((i for i in range(2000) if adwin.decide(i, errors=[0 if i < 1000 else 1])), None)
        c.check(hit is not None and hit >= 1000, f"adwin fired at {hit}")
        c.check(adwin.width_ == 0 and adwin.total_ == 0.0, "adwin did not restart after its detection")

        c.check(not DdmPolicy().decide(0, errors=[0] * 10_000), "ddm fired on constant 0s")
        c.check(not DdmPolicy().decide(0, errors=[1] * 10_000), "ddm fired on constant 1s")
        c.check(not AdwinPolicy(delta=0.002).decide(0, errors=[1] * 10_000), "adwin fired on a constant stream")


# Criterion 9's small covcon sweep; also the golden-output fixture.
CRITERION_9_CONFIG = {
    "stream": {
        "dataset": "covcon",
        "n_batches": 24,
        "batch_size": 150,
        "queries_per_batch": 15,
        "query_mode": "D",
        "seed": 0,
    },
    "t_offline": 7,
    "t_online": 23,
    "kappas": [1.0, 5.0],
    "policies": [
        {"name": "threshold", "params": "optimize"},
        {"name": "cumulative", "params": "optimize"},
        {"name": "periodic", "params": "optimize"},
        {"name": "never"},
        {"name": "markov"},
        {"name": "adwin"},
        {"name": "ddm"},
    ],
    "model": {"kind": "logistic", "learning_rate": 0.5, "epochs": 100},
    "seeds": [0, 1],
}

# sha256 of the results CSV that CRITERION_9_CONFIG's sweep writes. A change
# that means to alter results updates it and says why in CHANGES.md.
GOLDEN_RESULTS_SHA256 = "0035d9542f51e895081f3ee807417f955c4229a85fcfa94a0b0cfcca86c5d8a3"


def test_golden_results_csv(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CRITERION_9_CONFIG))
    out = tmp_path / "results.csv"
    args = ["sweep", "--config", str(config_path), "--out", str(out)]
    result = CliRunner().invoke(cli_main, args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_RESULTS_SHA256


def test_criterion_9_sweep_determinism(tmp_path):
    with Criterion(9, "identical sweep configs produce byte-identical results", 1800) as c:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(CRITERION_9_CONFIG))
        runner = CliRunner()
        outputs = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            result = runner.invoke(
                cli_main, ["sweep", "--config", str(config_path), "--out", str(out)]
            )
            c.check(result.exit_code == 0, f"sweep failed: {result.output}")
            outputs.append(out.read_bytes())
        c.check(outputs[0] == outputs[1], "results CSVs differ between runs")
        c.check(len(outputs[0]) > 0, "empty results CSV")
