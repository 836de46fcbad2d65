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
    strategy_cost,
    validate_strategy,
)
from .datagen import StreamSpec, generate_stream
from .errors import ContractViolationError, InvalidInputError, StreamParseError
from .harness import (
    CsvStream,
    RunConfig,
    RunResult,
    evaluate_prequential,
    load_csv_stream,
    report,
    results_from_csv,
    results_to_csv,
    run_sweep,
    save_stream_csv,
    scpe,
)
from .models import ForestClassifier, LogisticClassifier
from .oracle import oracle_strategy
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
    "QueryBatch",
    "RunConfig",
    "RunResult",
    "StreamCosts",
    "StreamParseError",
    "StreamSpec",
    "Strategy",
    "evaluate_prequential",
    "generate_stream",
    "load_csv_stream",
    "make_policy",
    "optimize_offline",
    "oracle_strategy",
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
