"""Stream ingestion, sweep orchestration, evaluation metrics and reporting.

A run is driven by a ``RunConfig``: the stream (a ``StreamSpec`` or a
``CsvStream``), offline/online split, retraining costs to sweep, the
policies to evaluate, the model and kernel, and the seeds. Per (seed, kappa)
the sweep

1. builds the offline cost matrix over [0, t_offline] and calibrates every
   policy marked "optimize" on it (only when some policy is),
2. builds the online matrix over (t_offline, t_online], computes the optimal
   strategy on it, and
3. replays each policy on the online matrix (``replay_policy``, with the
   cached error vectors for the drift detectors), pricing its strategy on
   that matrix and scoring prequential query accuracy from the same cache.
   A policy that does not read kappa (``requires_kappa`` unset: all but
   markov) gives the same strategy under every kappa, so it is replayed and
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
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .costmatrix import CostMatrix, Strategy, StreamCosts, format_value, strategy_cost, write_csv
from .datagen import StreamSpec, generate_stream
from .errors import InvalidInputError, StreamParseError, UndefinedMetricError
from .models import MODEL_KINDS
from .oracle import oracle_strategy
from .policies import CALIBRATABLE, POLICY_KINDS, RetrainPolicy, make_policy, optimize_offline, replay_policy
from .streams import DataBatch, QueryBatch
from .validation import as_int, check_finite

RESULT_COLUMNS = (
    "dataset",
    "policy",
    "kappa",
    "seed",
    "strategy_cost",
    "oracle_cost",
    "scpe",
    "n_retrains",
    "query_accuracy",
    "strategy",
)


def scpe(policy_cost: float, oracle_cost: float) -> float:
    """Strategy-cost percentage error against the optimal cost."""
    if oracle_cost == 0:
        raise UndefinedMetricError("percentage error is undefined for a zero optimal cost")
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
        accs.append(float(np.mean(preds == batch.eval_labels)))
    return float(np.mean(accs))


@dataclass(frozen=True)
class PolicySpec:
    """One policy entry of a run config; params is a dict or 'optimize'."""

    name: str
    params: dict | str = field(default_factory=dict)

    def __post_init__(self):
        cls = POLICY_KINDS.get(self.name)
        if cls is None:
            raise InvalidInputError(f"unknown policy {self.name!r}; expected one of {sorted(POLICY_KINDS)}")
        if self.params == "optimize":
            if self.name not in CALIBRATABLE:
                raise InvalidInputError(f"policy {self.name!r} has no optimizable parameters")
            return
        if not isinstance(self.params, dict):
            raise InvalidInputError(f"{self.name} policy params must be a dict or 'optimize', got {self.params!r}")
        # a class without its own __init__ takes no parameters
        keys = inspect.signature(cls).parameters if "__init__" in vars(cls) else {}
        _check_keys(self.params, keys, f"{self.name} policy params")
        for key, param in keys.items():
            if param.default is param.empty and key not in self.params:
                raise InvalidInputError(f"{self.name} policy params are missing {key!r}")
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
    """A stream read from a CSV file by ``load_csv_stream``; named after the file."""

    path: str
    n_batches: int
    queries_per_batch: int | None = None

    def __post_init__(self):
        if not isinstance(self.path, (str, os.PathLike)):
            raise InvalidInputError(f"csv stream path must be a string, got {self.path!r}")
        as_int(self.n_batches, "csv stream n_batches", 1)
        if self.queries_per_batch is not None:
            as_int(self.queries_per_batch, "csv stream queries_per_batch", 1)

    @property
    def name(self) -> str:
        return Path(self.path).stem


CONFIG_KEYS = ("stream", "t_offline", "t_online", "kappas", "policies", "model", "gamma", "seeds", "output")
CSV_STREAM_KEYS = ("dataset", "path", "n_batches", "queries_per_batch")
POLICY_KEYS = ("name", "params")


def _check_keys(raw: dict, known, level: str) -> None:
    """Reject a key that this level of a run config does not read, naming the key and the level."""
    for key in raw:
        if key not in known:
            raise InvalidInputError(f"unknown {level} key {key!r}; expected one of {sorted(known)}")


def _object(value, level: str) -> dict:
    """A copy of one level of a run config, which must be a JSON object."""
    if not isinstance(value, dict):
        raise InvalidInputError(f"{level} must be an object, got {value!r}")
    return dict(value)


def _required(raw: dict, key: str, level: str = "run config"):
    try:
        return raw.pop(key)
    except KeyError:
        raise InvalidInputError(f"{level} is missing {key!r}") from None


@dataclass
class RunConfig:
    """Declarative description of a sweep.

    Each seed in ``seeds`` replaces a generated stream's own ``seed``
    (``StreamSpec.with_seed``) and offsets the model seed, so the stream's
    ``seed`` has no effect on the results.
    """

    stream: StreamSpec | CsvStream
    t_offline: int
    t_online: int
    kappas: list
    policies: list
    model_kind: str = "forest"
    model_params: dict = field(default_factory=dict)
    gamma: float | None = None
    seeds: list = field(default_factory=lambda: [0])
    output: str | None = None

    def __post_init__(self):
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
        if self.model_kind not in MODEL_KINDS:
            raise InvalidInputError(f"unknown model kind {self.model_kind!r}")
        model_keys = inspect.signature(MODEL_KINDS[self.model_kind]).parameters
        _check_keys(self.model_params, model_keys, f"{self.model_kind} model")
        MODEL_KINDS[self.model_kind](**self.model_params)._validate_params()
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
                _check_keys(p, POLICY_KEYS, "policy entry")
                if "name" not in p:
                    raise InvalidInputError("policy entry is missing 'name'")
                p = PolicySpec(p["name"], p.get("params", {}))
            specs.append(p)
        self.policies = specs

    def costs_for_seed(self, seed: int) -> tuple[list[DataBatch], list[QueryBatch], StreamCosts]:
        """The seed's stream and the cost cache over it, with the model seed offset by ``seed``."""
        if isinstance(self.stream, CsvStream):
            data, queries = load_csv_stream(
                self.stream.path, self.stream.n_batches, seed=seed, queries_per_batch=self.stream.queries_per_batch
            )
        else:
            data, queries = generate_stream(self.stream.with_seed(seed))
        params = dict(self.model_params)
        params["seed"] = params.get("seed", 0) + seed
        return data, queries, StreamCosts(data, queries, MODEL_KINDS[self.model_kind](**params), self.gamma)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        raw = _object(raw, "run config")
        _check_keys(raw, CONFIG_KEYS, "run config")
        stream_raw = _object(_required(raw, "stream"), "stream")
        dataset = _required(stream_raw, "dataset", "stream")
        if dataset == "csv":
            _check_keys(stream_raw, CSV_STREAM_KEYS, "csv stream")
            stream = CsvStream(
                _required(stream_raw, "path", "csv stream"),
                stream_raw.get("n_batches"),
                stream_raw.get("queries_per_batch"),
            )
        else:
            _check_keys(stream_raw, [f.name for f in fields(StreamSpec)], "stream")
            if "circle_schedule" in stream_raw and stream_raw["circle_schedule"] is None:
                stream_raw.pop("circle_schedule")
            stream = StreamSpec(dataset, **stream_raw)
        model_raw = _object(raw.pop("model", {"kind": "forest"}), "model")
        model_kind = model_raw.pop("kind", "forest")
        return cls(
            stream=stream,
            t_offline=_required(raw, "t_offline"),
            t_online=_required(raw, "t_online"),
            kappas=_required(raw, "kappas"),
            policies=_required(raw, "policies"),
            model_kind=model_kind,
            model_params=model_raw,
            gamma=raw.pop("gamma", None),
            seeds=raw.pop("seeds", [0]),
            output=raw.pop("output", None),
        )

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


def load_csv_stream(
    path,
    n_batches: int | None = None,
    *,
    seed: int = 0,
    queries_per_batch: int | None = None,
) -> tuple[list[DataBatch], list[QueryBatch]]:
    """Read a stream CSV (header ``t,f0..f{d-1},label,is_query``).

    Files carrying explicit query rows (is_query = 1) are trusted as-is: rows
    are grouped by their t column, so a saved stream reloads identically.
    Plain data files (no query rows) are re-batched: rows are partitioned in
    file order into ``n_batches`` equal batches (trailing remainder dropped)
    and 10% of each batch (or ``queries_per_batch``) is sampled, seeded, as
    data-mode queries.
    """
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
    return _rebatch_rows(X, y, n_batches, seed, queries_per_batch)


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
    ts, labels, marks, row_nos, feats = [], [], [], [], []  # feats: all values, row after row
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        try:
            for row_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != n_cols:
                    raise StreamParseError(row_no, f"expected {n_cols} columns, got {len(row)}")
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
                ts.append(t)
                labels.append(label)
                marks.append(is_query)
                row_nos.append(row_no)
                feats.extend(x)
        except StreamParseError:
            _finite_features(feats, n_cols - 3, row_nos)  # an earlier non-finite row fails first
            raise
    if not ts:
        raise StreamParseError(2, "no data rows")
    return ts, marks, _finite_features(feats, n_cols - 3, row_nos), np.array(labels, dtype=np.int64)


def _finite_features(feats: list, dim: int, row_nos: list) -> np.ndarray:
    """The parsed feature rows as one array; the first row with a non-finite value fails."""
    X = np.array(feats, dtype=np.float64).reshape(len(row_nos), dim)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise StreamParseError(row_nos[bad[0]], "non-finite feature value")
    return X


def _group_marked_rows(ts, marks, X, y, n_batches):
    grouped: dict[int, tuple[list, list]] = {}
    for i, (t, is_query) in enumerate(zip(ts, marks)):
        grouped.setdefault(int(t), ([], []))[is_query].append(i)
    ts = sorted(grouped)
    if ts != list(range(len(ts))):
        raise InvalidInputError(f"batch indices are not contiguous from 0: {ts[:5]}...")
    if n_batches is not None and len(ts) != n_batches:
        raise InvalidInputError(f"file holds {len(ts)} batches, expected {n_batches}")
    data, queries = [], []
    for t in ts:
        d, q = grouped[t]
        if not d or not q:
            raise InvalidInputError(f"batch {t} is missing data or query rows")
        data.append(DataBatch(t, X[d], y[d]))
        queries.append(QueryBatch(t, X[q], y[q]))
    return data, queries


def _rebatch_rows(X, y, n_batches, seed, queries_per_batch):
    if n_batches is None or n_batches < 1:
        raise InvalidInputError("n_batches is required to batch a plain data file")
    if len(X) < n_batches:
        raise InvalidInputError(f"{len(X)} rows cannot fill {n_batches} batches")
    batch_size = len(X) // n_batches
    q_per_batch = queries_per_batch if queries_per_batch is not None else max(1, batch_size // 10)
    if q_per_batch > batch_size:
        raise InvalidInputError(f"cannot sample {q_per_batch} queries from batches of {batch_size}")
    data, queries = [], []
    for t in range(n_batches):
        chunk = slice(t * batch_size, (t + 1) * batch_size)
        batch = DataBatch(t, X[chunk], y[chunk])
        rng = np.random.default_rng([seed % (2**32), t, 1])
        idx = rng.choice(batch_size, size=q_per_batch, replace=False)
        data.append(batch)
        queries.append(QueryBatch(t, batch.X[idx], batch.y[idx]))
    return data, queries


def save_stream_csv(path, data, queries) -> None:
    """Write a stream in the shared CSV format (data rows then query rows per
    batch; query labels are required)."""
    if not data:
        raise InvalidInputError("nothing to save: empty data stream")
    query_by_t = {q.t: q for q in queries}

    def rows():
        for batch in data:
            for x, y in zip(batch.X, batch.y):
                yield [batch.t] + [format_value(v) for v in x] + [int(y), 0]
            q = query_by_t.get(batch.t)
            if q is not None:
                if q.eval_labels is None:
                    raise InvalidInputError(f"query batch {q.t} has no labels to save")
                for x, y in zip(q.X, q.eval_labels):
                    yield [batch.t] + [format_value(v) for v in x] + [int(y), 1]

    write_csv(path, ["t"] + [f"f{i}" for i in range(data[0].dim)] + ["label", "is_query"], rows())


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
                    scpe=scpe(cost, opt_cost) if opt_cost != 0 else None,
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
                    key = None if policy.requires_kappa else (spec.name, tuple(sorted(params.items())))
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
        for row_no, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(RESULT_COLUMNS):
                raise StreamParseError(row_no, f"expected {len(RESULT_COLUMNS)} columns, got {len(cells)}")
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
