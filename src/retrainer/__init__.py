"""Cost-aware retraining decisions for classifiers on batched streams.

The package answers one operational question: given streams of labeled data
batches and prediction queries, when is retraining the deployed model worth
its cost? It prices the alternatives (query-weighted staleness vs. a
retraining charge), finds the retrospectively optimal decision sequence by
dynamic programming, runs online decision policies against the same costs,
and evaluates everything prequentially.
"""

from .costmatrix import (
    CostMatrix,
    KernelConfig,
    Strategy,
    StreamCosts,
    cumulative_cost_trace,
    default_gamma,
    strategy_cost,
    validate_strategy,
)
from .datagen import StreamSpec, concept_label, gen_batch, generate_stream, make_queries
from .errors import (
    ContractViolationError,
    InvalidInputError,
    NotFittedError,
    StreamParseError,
    UndefinedMetricError,
)
from .harness import (
    CsvStream,
    PolicySpec,
    RunConfig,
    RunResult,
    evaluate_prequential,
    load_csv_stream,
    render_summary,
    report,
    results_from_csv,
    results_to_csv,
    run_sweep,
    save_stream_csv,
    scpe,
    summary_to_csv,
)
from .models import ForestClassifier, LogisticClassifier, fit_model, make_model
from .oracle import memoize_dp, oracle_strategy
from .policies import (
    AdwinPolicy,
    CumulativeThresholdPolicy,
    DdmPolicy,
    MarkovPolicy,
    NeverRetrainPolicy,
    PeriodicPolicy,
    RetrainPolicy,
    ThresholdPolicy,
    make_policy,
    optimize_offline,
    replay_policy,
)
from .streams import DataBatch, QueryBatch

__version__ = "0.1.0"

__all__ = [
    "AdwinPolicy",
    "ContractViolationError",
    "CostMatrix",
    "CsvStream",
    "CumulativeThresholdPolicy",
    "DataBatch",
    "DdmPolicy",
    "ForestClassifier",
    "InvalidInputError",
    "KernelConfig",
    "LogisticClassifier",
    "MarkovPolicy",
    "NeverRetrainPolicy",
    "NotFittedError",
    "PeriodicPolicy",
    "PolicySpec",
    "QueryBatch",
    "RetrainPolicy",
    "RunConfig",
    "RunResult",
    "StreamCosts",
    "StreamParseError",
    "StreamSpec",
    "Strategy",
    "ThresholdPolicy",
    "UndefinedMetricError",
    "concept_label",
    "cumulative_cost_trace",
    "default_gamma",
    "evaluate_prequential",
    "fit_model",
    "gen_batch",
    "generate_stream",
    "load_csv_stream",
    "make_model",
    "make_policy",
    "make_queries",
    "memoize_dp",
    "optimize_offline",
    "oracle_strategy",
    "render_summary",
    "replay_policy",
    "report",
    "results_from_csv",
    "results_to_csv",
    "run_sweep",
    "save_stream_csv",
    "scpe",
    "strategy_cost",
    "summary_to_csv",
    "validate_strategy",
]
