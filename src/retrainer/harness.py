"""Stream ingestion, sweep orchestration, evaluation metrics and reporting.

A run is driven by a ``RunConfig``: the stream (a ``StreamSpec`` or a
``CsvStream``), offline/online split, retraining costs to sweep, the
policies to evaluate, the model and kernel, and the seeds. Per (seed, kappa)
the sweep

1. builds the offline cost matrix over [0, t_offline] and calibrates every
   policy marked "optimize" on it (only when some policy is),
2. builds the online matrix over (t_offline, t_online], computes the optimal
   strategy on it, and
3. replays each policy on the online matrix (``replay_policy``, with
   ``StreamCosts.errors`` for the drift detectors), pricing its strategy on
   that matrix and scoring prequential query accuracy from the same cache.
   A policy whose ``decide`` does not take ``kappa`` (all but markov)
   gives the same strategy under every kappa, so it is replayed and
   scored once per seed and set of parameters, then re-priced on each
   kappa's matrix; calibrated policies whose parameters come out equal
   under two kappas share that replay too.

``run_sweep`` is the only code that turns a policy into a result row; the
CLI ``run`` command prints the row of a sweep narrowed to one (policy,
kappa, seed).

Staleness entries do not depend on kappa, so each seed computes them once
and every kappa's matrix shares that array. All outputs are plain CSV
with full-precision floats, so identical configs produce byte-identical
files.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .costmatrix import CostMatrix, Strategy, StreamCosts, format_value, strategy_cost, write_csv
from .datagen import StreamSpec, generate_stream, sample_queries
from .errors import InvalidInputError, StreamParseError
from .models import MODEL_KINDS, BaseClassifier, ForestClassifier
from .oracle import oracle_strategy
from .policies import (
    CALIBRATABLE, POLICY_KINDS, RetrainPolicy, decide_inputs, make_policy, optimize_offline, replay_policy
)
from .streams import DataBatch, QueryBatch, check_stream
from .validation import as_int, as_kind, check_finite


def scpe(policy_cost: float, oracle_cost: float) -> float | None:
    """Strategy-cost percentage error against the optimal cost; None
    (undefined) at a zero optimal cost."""
    if oracle_cost == 0:
        return None
    return 100.0 * abs(policy_cost - oracle_cost) / abs(oracle_cost)


def evaluate_prequential(strategy: Strategy, costs: StreamCosts) -> float:
    """Mean per-batch query accuracy under test-then-train staggering.

    Queries at batch t are answered by the model in hand *before* the
    decision at t, i.e. the model assigned at t - 1; at the first batch this
    is the initial model trained at the range start. Models and their query
    predictions come from the ``costs`` cache.
    """
    accs = []
    for t in range(strategy.start, strategy.end + 1):
        serving = strategy.start if t == strategy.start else strategy.serving(t - 1)
        batch = costs.query_batch(t)
        if batch.eval_labels is None:
            raise InvalidInputError(f"query batch {t} has no eval labels")
        preds = costs.query_predictions(serving, t)
        accs.append(np.count_nonzero(preds == batch.eval_labels) / preds.size)
    return float(np.mean(accs))


@dataclass(frozen=True)
class PolicySpec:
    """One policy entry of a run config; params is a dict or 'optimize'."""

    name: str
    params: dict | str = field(default_factory=dict)

    def __post_init__(self):
        cls = as_kind(self.name, POLICY_KINDS, "policy")
        if self.params == "optimize":
            if self.name not in CALIBRATABLE:
                raise InvalidInputError(f"policy {self.name!r} has no optimizable parameters")
            return
        if not isinstance(self.params, dict):
            raise InvalidInputError(f"{self.name} policy params must be a dict or 'optimize', got {self.params!r}")
        _arguments(self.params, cls, f"{self.name} policy params")
        try:
            cls(**self.params)  # the constructor's own checks run at load
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"{self.name} policy params: {exc}") from exc

    @property
    def optimize(self) -> bool:
        return self.params == "optimize"

    def build(self, offline_matrix: CostMatrix | None = None) -> RetrainPolicy:
        if self.optimize:
            if offline_matrix is None:
                raise InvalidInputError(f"policy {self.name!r} needs an offline matrix to optimize")
            return optimize_offline(self.name, offline_matrix)
        return make_policy(self.name, **self.params)


@dataclass(frozen=True)
class CsvStream:
    """A stream read from a CSV file by ``load_csv_stream``; named after
    the file. A plain data file's queries are sampled from its batches."""

    path: str
    n_batches: int

    def __post_init__(self):
        if not isinstance(self.path, (str, os.PathLike)):
            raise InvalidInputError(f"csv stream path must be a string, got {self.path!r}")
        as_int(self.n_batches, "csv stream n_batches", 1)

    @property
    def name(self) -> str:
        return Path(self.path).stem


def _object(value, level: str) -> dict:
    """A copy of one level of a run config, which must be a JSON object."""
    if not isinstance(value, dict):
        raise InvalidInputError(f"{level} must be an object, got {value!r}")
    return dict(value)


def _arguments(raw: dict, cls, level: str, extra=()) -> dict:
    """``raw``, checked to hold every argument ``cls`` needs and no key but
    its arguments and ``extra``; a wrong key is named with its level."""
    params = inspect.signature(cls).parameters
    known = [*extra, *params]
    for key in raw:
        if key not in known:
            raise InvalidInputError(f"unknown {level} key {key!r}; expected one of {sorted(known)}")
    for key, param in params.items():
        if param.default is param.empty and key not in raw:
            raise InvalidInputError(f"{level} is missing {key!r}")
    return raw


@dataclass
class RunConfig:
    """Declarative description of a sweep; its fields are the keys of a
    run config's JSON object.

    Each seed in ``seeds`` replaces a generated stream's own ``seed`` and
    offsets the seed of a model that takes one (the forest), so the stream's
    ``seed`` has no effect on the results.
    """

    stream: StreamSpec | CsvStream
    t_offline: int
    t_online: int
    kappas: list
    policies: list
    model: BaseClassifier = field(default_factory=ForestClassifier)
    gamma: float | None = None
    seeds: list = field(default_factory=lambda: [0])
    output: str | None = None

    def __post_init__(self):
        if not isinstance(self.stream, (StreamSpec, CsvStream)):
            raise InvalidInputError(f"stream must be a StreamSpec or a CsvStream, got {self.stream!r}")
        if not isinstance(self.model, BaseClassifier):
            raise InvalidInputError(f"model must be a classifier, got {self.model!r}")
        as_int(self.t_offline, "t_offline", 0)
        as_int(self.t_online, "t_online", 0)
        if not self.t_offline < self.t_online:
            raise InvalidInputError(
                f"need 0 <= t_offline < t_online, got {self.t_offline}, {self.t_online}"
            )
        if self.t_online >= self.stream.n_batches:
            raise InvalidInputError(
                f"t_online {self.t_online} needs {self.t_online + 1} batches, stream has {self.stream.n_batches}"
            )
        if not isinstance(self.kappas, (list, tuple)) or not self.kappas:
            raise InvalidInputError(f"kappas must be a non-empty list, got {self.kappas!r}")
        for k in self.kappas:
            check_finite(k, "kappas")
        self.kappas = [float(k) for k in self.kappas]
        if any(k < 0 for k in self.kappas):
            raise InvalidInputError("kappas must be >= 0")
        if not isinstance(self.seeds, (list, tuple)) or not self.seeds:
            raise InvalidInputError(f"seeds must be a non-empty list, got {self.seeds!r}")
        self.seeds = [as_int(s, "seeds", 0) for s in self.seeds]
        if self.gamma is not None:
            check_finite(self.gamma, "gamma")
            if not self.gamma > 0:
                raise InvalidInputError("gamma must be > 0 when given")
        if not isinstance(self.policies, (list, tuple)):
            raise InvalidInputError(f"policies must be a list of policy entries, got {self.policies!r}")
        specs = []
        for p in self.policies:
            if not isinstance(p, PolicySpec):
                if not isinstance(p, dict):
                    raise InvalidInputError(f"policy entry must be an object with a 'name', got {p!r}")
                p = PolicySpec(**_arguments(p, PolicySpec, "policy entry"))
            specs.append(p)
        self.policies = specs

    def costs_for_seed(self, seed: int) -> tuple[list[DataBatch], list[QueryBatch], StreamCosts]:
        """The seed's stream and the cost cache over it; a model that takes a seed has it offset by ``seed``."""
        if isinstance(self.stream, CsvStream):
            data, queries = load_csv_stream(self.stream.path, self.stream.n_batches, seed=seed)
        else:
            data, queries = generate_stream(replace(self.stream, seed=seed))
        model, params = self.model, self.model.get_params()
        if "seed" in params:
            model = type(model)(**{**params, "seed": params["seed"] + seed})
        return data, queries, StreamCosts(data, queries, model, self.gamma)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """The run config of a JSON object; its stream and model are built
        here and checked by their constructors."""
        raw = _arguments(_object(raw, "run config"), cls, "run config")
        stream = _object(raw["stream"], "stream")
        if stream.get("dataset") == "csv":
            del stream["dataset"]
            raw["stream"] = CsvStream(**_arguments(stream, CsvStream, "csv stream", extra=["dataset"]))
        else:
            raw["stream"] = StreamSpec(**_arguments(stream, StreamSpec, "stream"))
        model = _object(raw.get("model", {"kind": "forest"}), "model")
        kind = model.pop("kind", "forest")
        model_cls = as_kind(kind, MODEL_KINDS, "model kind")
        raw["model"] = model_cls(**_arguments(model, model_cls, f"{kind} model"))
        return cls(**raw)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class RunResult:
    """One (policy, kappa, seed) outcome; ``params`` are the policy's
    parameters as run (empty for the oracle) and are not written to CSV."""

    dataset: str
    policy: str
    kappa: float
    seed: int
    strategy_cost: float
    oracle_cost: float
    scpe: float | None
    n_retrains: int
    query_accuracy: float
    strategy: Strategy
    params: dict


RESULT_COLUMNS = tuple(f.name for f in fields(RunResult) if f.name != "params")


def load_csv_stream(path, n_batches: int | None = None, *, seed: int = 0) -> tuple[list[DataBatch], list[QueryBatch]]:
    """Read a stream CSV (header ``t,f0..f{d-1},label,is_query``).

    Files carrying explicit query rows (is_query = 1) are grouped by their t
    column and must hold batch t at position t (``check_stream``), with data
    and query rows at every index, so a saved stream reloads identically.
    Plain data files (no query rows) are re-batched: rows are partitioned in
    file order into ``n_batches`` equal batches (trailing remainder dropped)
    and 10% of each batch (at least one row) is sampled, seeded, as
    data-mode queries.
    """
    if n_batches is not None:
        n_batches = as_int(n_batches, "n_batches", 1)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise StreamParseError(1, "empty file")
        n_cols = len(header)
        expected = ["t"] + [f"f{i}" for i in range(n_cols - 3)] + ["label", "is_query"]
        if n_cols < 4 or header != expected:
            raise StreamParseError(1, f"unexpected header {header!r}")
        # loadtxt warns on a file with no data rows; the row loop refuses it
        has_rows = any(line.strip("\r\n") for line in fh)
    rows = _parse_rows_numpy(path, n_cols - 3) if has_rows else None
    if rows is None:
        rows = _parse_rows(path, n_cols)
    ts, marks, X, y = rows
    if np.any(marks):
        return _group_marked_rows(ts, marks, X, y, n_batches)
    return _rebatch_rows(X, y, n_batches, seed)


def _parse_rows_numpy(path, dim: int):
    """The data rows as ``(ts, marks, X, y)`` arrays in one ``np.loadtxt``
    pass, or None where the row loop must decide.

    The record dtype makes loadtxt refuse a row with any other column count
    and an integer column holding ``1.0``; it also refuses quoted cells,
    ``#`` lines, whitespace-only lines and ``1_0``, some of which the row
    loop accepts. What loadtxt accepts but the row loop refuses (a label or
    mark outside {0, 1}, a non-finite feature) is sent back too, so the row
    loop stays the one source of ``StreamParseError``.
    """
    dtype = [("t", np.int64), ("x", np.float64, (dim,)), ("label", np.int64), ("is_query", np.int64)]
    try:
        rows = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1, ndmin=1, comments=None)
    except (ValueError, OverflowError):
        return None
    ts, X, y, marks = rows["t"], rows["x"], rows["label"], rows["is_query"]
    if ((y < 0) | (y > 1) | (marks < 0) | (marks > 1)).any() or not np.isfinite(X).all():
        return None
    return ts, marks, X, y


def _parse_rows(path, n_cols: int):
    """The data rows as ``(ts, marks, X, y)``, read one csv row at a time; a
    malformed row raises ``StreamParseError`` with its row number."""
    ts, labels, marks, feats = [], [], [], []  # feats: all values, row after row
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row_no, row in _csv_rows(reader, n_cols):
            try:
                t = int(row[0])
                x = [float(v) for v in row[1:-2]]
                label = int(row[-2])
                is_query = int(row[-1])
            except ValueError as exc:
                raise StreamParseError(row_no, str(exc)) from None
            if label not in (0, 1):
                raise StreamParseError(row_no, f"label must be 0 or 1, got {label}")
            if is_query not in (0, 1):
                raise StreamParseError(row_no, f"is_query must be 0 or 1, got {is_query}")
            if not all(map(math.isfinite, x)):
                raise StreamParseError(row_no, "non-finite feature value")
            ts.append(t)
            labels.append(label)
            marks.append(is_query)
            feats.extend(x)
    if not ts:
        raise StreamParseError(2, "no data rows")
    X = np.array(feats, dtype=np.float64).reshape(len(ts), n_cols - 3)
    return ts, marks, X, np.array(labels, dtype=np.int64)


def _csv_rows(reader, n_cols: int):
    """``(row_no, cells)`` for each row after the header, skipping blank
    rows; a row without ``n_cols`` cells raises ``StreamParseError``."""
    for row_no, cells in enumerate(reader, start=2):
        if not cells:
            continue
        if len(cells) != n_cols:
            raise StreamParseError(row_no, f"expected {n_cols} columns, got {len(cells)}")
        yield row_no, cells


def _group_marked_rows(ts, marks, X, y, n_batches):
    """The batches of a file with query rows, by their ``t`` cell; an index
    without data or query rows makes an empty batch, which is refused."""
    grouped: dict[int, tuple[list, list]] = {}
    for i, (t, is_query) in enumerate(zip(ts, marks)):
        grouped.setdefault(int(t), ([], []))[is_query].append(i)
    groups = sorted(grouped.items())
    data = [DataBatch(t, X[d], y[d]) for t, (d, _) in groups]
    queries = [QueryBatch(t, X[q], y[q]) for t, (_, q) in groups]
    check_stream(data, queries)
    if n_batches is not None and len(data) != n_batches:
        raise InvalidInputError(f"file holds {len(data)} batches, expected {n_batches}")
    return data, queries


def _rebatch_rows(X, y, n_batches, seed):
    if n_batches is None:
        raise InvalidInputError("n_batches is required to batch a plain data file")
    if len(X) < n_batches:
        raise InvalidInputError(f"{len(X)} rows cannot fill {n_batches} batches")
    batch_size = len(X) // n_batches
    data = []
    for t in range(n_batches):
        chunk = slice(t * batch_size, (t + 1) * batch_size)
        data.append(DataBatch(t, X[chunk], y[chunk]))
    return data, [sample_queries(seed, batch, max(1, batch_size // 10)) for batch in data]


def save_stream_csv(path, data, queries) -> None:
    """Write a stream in the shared CSV format: per batch its data rows, then
    its query rows. A stream that ``check_stream`` refuses (a gap, a
    duplicate or misplaced index, query batches for only some data batches,
    another dimensionality) and an unlabeled query batch are refused before
    the file opens, so every file written with query batches reloads batch
    for batch.

    The lines are built as text, not through ``write_csv``: every cell is an
    integer or a finite float (batches refuse non-finite points), so none
    needs quoting, and the bytes are ``csv.writer``'s, CRLF line ends and
    ``repr`` floats included, at a fraction of its per-cell cost."""
    check_stream(data, queries)
    for q in queries:
        if q.eval_labels is None:
            raise InvalidInputError(f"query batch {q.t} has no labels to save")
    header = ["t"] + [f"f{i}" for i in range(data[0].dim)] + ["label", "is_query"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for t, batch in enumerate(data):
            fh.write(_stream_lines(t, batch.X, batch.y, 0))
            if queries:
                fh.write(_stream_lines(t, queries[t].X, queries[t].eval_labels, 1))


def _stream_lines(t, X, labels, is_query) -> str:
    rows = zip(X.tolist(), labels.tolist())
    return "".join(f"{t},{','.join(map(repr, x))},{label},{is_query}\r\n" for x, label in rows)


def run_sweep(cfg: RunConfig, cost_cache: dict | None = None) -> list[RunResult]:
    """Evaluate oracle and every configured policy over seeds and kappas.

    ``cost_cache`` (seed -> (data, queries, StreamCosts)) is consulted and
    populated when given, so repeated sweeps over the same streams skip the
    expensive staleness recomputation.
    """
    results: list[RunResult] = []
    on_start, on_end = cfg.t_offline + 1, cfg.t_online
    calibrates = any(spec.optimize for spec in cfg.policies)
    for seed in cfg.seeds:
        if cost_cache is not None and seed in cost_cache:
            costs = cost_cache[seed][2]
        else:
            entry = cfg.costs_for_seed(seed)
            costs = entry[2]
            if cost_cache is not None:
                cost_cache[seed] = entry
        # (name, sorted params) -> (strategy, query accuracy) of policies that do not read kappa
        kappa_blind: dict[tuple, tuple[Strategy, float]] = {}
        for kappa in cfg.kappas:
            offline_c = costs.cost_matrix(0, cfg.t_offline, kappa) if calibrates else None
            online_c = costs.cost_matrix(on_start, on_end, kappa)
            opt_strategy, opt_cost = oracle_strategy(online_c)

            def row(policy: str, strategy: Strategy, cost: float, accuracy: float, params: dict) -> RunResult:
                return RunResult(
                    dataset=cfg.stream.name,
                    policy=policy,
                    kappa=kappa,
                    seed=seed,
                    strategy_cost=cost,
                    oracle_cost=opt_cost,
                    scpe=scpe(cost, opt_cost),
                    n_retrains=strategy.n_retrains,
                    query_accuracy=accuracy,
                    strategy=strategy,
                    params=params,
                )

            results.append(row("oracle", opt_strategy, opt_cost, evaluate_prequential(opt_strategy, costs), {}))
            for spec in cfg.policies:
                try:
                    policy = spec.build(offline_c)
                    params = policy.get_params()
                    key = None if "kappa" in decide_inputs(policy) else (spec.name, tuple(sorted(params.items())))
                    replayed = kappa_blind.get(key)
                    if replayed is None:
                        strat = replay_policy(policy, online_c, costs.errors)
                        replayed = (strat, evaluate_prequential(strat, costs))
                        if key is not None:
                            kappa_blind[key] = replayed
                    strat, accuracy = replayed
                    results.append(row(spec.name, strat, strategy_cost(strat, online_c), accuracy, params))
                except Exception as exc:
                    raise RuntimeError(
                        f"policy={spec.name} kappa={kappa} seed={seed}: {exc}"
                    ) from exc
    return results


def _cell(value) -> str:
    """CSV text of a result or summary value: floats at full precision, None blank."""
    if value is None:
        return ""
    return format_value(value) if isinstance(value, float) else str(value)


def results_to_csv(results, path) -> None:
    write_csv(path, RESULT_COLUMNS, ([_cell(getattr(r, c)) for c in RESULT_COLUMNS] for r in results))


# every number a sweep writes, with its type and its range; a float must
# also be finite
_RESULT_NUMBERS = {
    "kappa": (float, 0, math.inf),
    "seed": (int, 0, math.inf),
    "strategy_cost": (float, -math.inf, math.inf),
    "oracle_cost": (float, -math.inf, math.inf),
    "scpe": (float, 0, math.inf),
    "n_retrains": (int, 1, math.inf),
    "query_accuracy": (float, 0, 1),
}


def results_from_csv(path) -> list[dict]:
    """Read a results CSV back into dict rows (strategy stays textual). A
    blank ``scpe`` is undefined (None). A row a sweep cannot write is
    refused, naming its row: a non-numeric, missing or extra cell, a
    non-finite float, or a number out of its range (negative kappa, seed or
    scpe, no retrain, an accuracy outside [0, 1])."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(RESULT_COLUMNS):
            raise InvalidInputError(f"unexpected results header: {header}")
        for row_no, cells in _csv_rows(reader, len(RESULT_COLUMNS)):
            row = dict(zip(RESULT_COLUMNS, cells))
            for name, (kind, low, high) in _RESULT_NUMBERS.items():
                if name == "scpe" and row[name] == "":
                    row[name] = None
                    continue
                try:
                    value = row[name] = kind(row[name])
                except ValueError as exc:
                    raise StreamParseError(row_no, f"{name}: {exc}") from None
                if value != value:
                    raise StreamParseError(row_no, f"{name} is NaN")
                if kind is float and not math.isfinite(value):
                    raise StreamParseError(row_no, f"{name} must be finite, got {value}")
                if not low <= value <= high:
                    bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
                    raise StreamParseError(row_no, f"{name} must be {bounds}, got {value}")
            out.append(row)
    return out


_POLICY_ORDER = ("oracle", *POLICY_KINDS)


def _policy_rank(name: str) -> tuple:
    try:
        return (0, _POLICY_ORDER.index(name))
    except ValueError:
        return (1, name)


def report(results) -> list[dict]:
    """Per (dataset, policy) means of SCPE, query accuracy and retrain counts.

    Accepts RunResult objects or dict rows from ``results_from_csv``. SCPE
    means skip undefined entries and stay blank when nothing is defined.
    """
    rows = [r.__dict__ if isinstance(r, RunResult) else r for r in results]
    if not rows:
        raise InvalidInputError("no results to report")
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["dataset"], row["policy"]), []).append(row)
    summary = []
    for (dataset, policy) in sorted(groups, key=lambda k: (k[0], _policy_rank(k[1]))):
        rs = groups[(dataset, policy)]
        scpes = [r["scpe"] for r in rs if r["scpe"] is not None]
        n_retrains = float(np.mean([r["n_retrains"] for r in rs]))
        summary.append(
            {
                "dataset": dataset,
                "policy": policy,
                "runs": len(rs),
                "mean_scpe": float(np.mean(scpes)) if scpes else None,
                "mean_query_accuracy": float(np.mean([r["query_accuracy"] for r in rs])),
                "mean_n_retrains": n_retrains,
                "mean_extra_retrains": n_retrains - 1.0,
            }
        )
    return summary


SUMMARY_COLUMNS = (
    "dataset",
    "policy",
    "runs",
    "mean_scpe",
    "mean_query_accuracy",
    "mean_n_retrains",
    "mean_extra_retrains",
)


def summary_to_csv(summary, path) -> None:
    write_csv(path, SUMMARY_COLUMNS, ([_cell(row[c]) for c in SUMMARY_COLUMNS] for row in summary))


def render_summary(summary) -> str:
    """Aligned text table of the report rows."""
    headers = ["dataset", "policy", "runs", "scpe", "accuracy", "retrains", "extra"]
    table = [headers]
    for row in summary:
        table.append(
            [
                row["dataset"],
                row["policy"],
                str(row["runs"]),
                "-" if row["mean_scpe"] is None else f"{row['mean_scpe']:.2f}",
                f"{row['mean_query_accuracy']:.3f}",
                f"{row['mean_n_retrains']:.2f}",
                f"{row['mean_extra_retrains']:.2f}",
            ]
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
