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
    Strategy,
    StreamCosts,
    cumulative_cost_trace,
    strategy_cost,
    validate_strategy,
)
from .datagen import StreamSpec, generate_stream
from .errors import (
    ContractViolationError,
    InvalidInputError,
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
)
from .models import ForestClassifier, LogisticClassifier, fit_model
from .oracle import memoize_dp, oracle_strategy
from .policies import make_policy, optimize_offline, replay_policy
from .streams import DataBatch, QueryBatch

__version__ = "0.1.0"

__all__ = [
    "ContractViolationError",
    "CostMatrix",
    "CsvStream",
    "DataBatch",
    "ForestClassifier",
    "InvalidInputError",
    "LogisticClassifier",
    "PolicySpec",
    "QueryBatch",
    "RunConfig",
    "RunResult",
    "StreamCosts",
    "StreamParseError",
    "StreamSpec",
    "Strategy",
    "UndefinedMetricError",
    "cumulative_cost_trace",
    "evaluate_prequential",
    "fit_model",
    "generate_stream",
    "load_csv_stream",
    "make_policy",
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
    "validate_strategy",
]
