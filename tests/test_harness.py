import csv
import inspect
import math
import re
import warnings
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from helpers import MALFORMED_STREAMS, brute_force_optimum, indexed_stream, reference_save_stream_csv
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from retrainer import (
    CsvStream,
    DataBatch,
    InvalidInputError,
    QueryBatch,
    RunConfig,
    Strategy,
    StreamParseError,
    StreamSpec,
    evaluate_prequential,
    generate_stream,
    load_csv_stream,
    make_policy,
    replay_policy,
    report,
    results_from_csv,
    results_to_csv,
    run_sweep,
    save_stream_csv,
    scpe,
    strategy_cost,
)
from retrainer import harness
from retrainer.costmatrix import StreamCosts
from retrainer.harness import PolicySpec, render_summary
from retrainer.models import MODEL_KINDS, ForestClassifier, LogisticClassifier
from retrainer.oracle import oracle_strategy
from retrainer.policies import POLICY_KINDS, MarkovPolicy


def write_plain_csv(path, n_rows, d=2, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"f{i}" for i in range(d)] + ["label", "is_query"])
        for _ in range(n_rows):
            feats = rng.normal(size=d)
            writer.writerow([0] + [repr(float(v)) for v in feats] + [int(rng.integers(0, 2)), 0])


# what the parse fence does to a random stream file: replace a cell (any
# cell, a feature by a non-finite value, or a label or mark by one out of
# range), cut or extend a row, or insert a line that holds no row
PARSE_MUTATIONS = ["cell", "non-finite", "label", "short", "long", "trailing", "insert"]
BAD_CELLS = ["abc", "", "1_0", "1.0", '"1"', '"0.5"', "0x1", "1e0", "+1", " 0 ", "99999999999999999999"]
NON_FINITE = ["nan", "NaN", "inf", "-inf", "-Infinity", "1e400"]
LABEL_CELLS = ["2", "-1", "7"]
ODD_LINES = ["", "   ", "#0,1,0,0", "\t"]


class TestLoadCsvStream:
    def test_equal_partition_with_default_query_fraction(self, tmp_path):
        path = tmp_path / "s.csv"
        write_plain_csv(path, 1000)
        data, queries = load_csv_stream(path, 10)
        assert len(data) == len(queries) == 10
        assert all(b.size == 100 for b in data)
        assert all(q.size == 10 for q in queries)
        assert [b.t for b in data] == list(range(10))

    def test_a_small_batch_samples_one_query(self, tmp_path):
        path = tmp_path / "s.csv"
        write_plain_csv(path, 76)
        data, queries = load_csv_stream(path, 4)
        assert [b.size for b in data] == [19] * 4 and [q.size for q in queries] == [1] * 4

    def test_remainder_rows_dropped(self, tmp_path):
        path = tmp_path / "s.csv"
        write_plain_csv(path, 1005)
        data, _ = load_csv_stream(path, 10)
        assert sum(b.size for b in data) == 1000

    def test_query_sampling_is_seeded(self, tmp_path):
        path = tmp_path / "s.csv"
        write_plain_csv(path, 200)
        _, q1 = load_csv_stream(path, 4, seed=5)
        _, q2 = load_csv_stream(path, 4, seed=5)
        _, q3 = load_csv_stream(path, 4, seed=6)
        assert all(np.array_equal(a.X, b.X) for a, b in zip(q1, q2))
        assert any(not np.array_equal(a.X, b.X) for a, b in zip(q1, q3))

    def test_queries_come_from_their_batch(self, tmp_path):
        path = tmp_path / "s.csv"
        write_plain_csv(path, 300)
        data, queries = load_csv_stream(path, 3)
        for b, q in zip(data, queries):
            rows = {tuple(r) for r in b.X}
            assert all(tuple(r) in rows for r in q.X)

    def test_round_trip_preserves_bytes(self, tmp_path):
        spec = StreamSpec(dataset="covcon", n_batches=5, batch_size=30, queries_per_batch=4)
        data, queries = generate_stream(spec)
        first = tmp_path / "a.csv"
        save_stream_csv(first, data, queries)
        data2, queries2 = load_csv_stream(first, 5)
        for a, b in zip(data, data2):
            assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        for a, b in zip(queries, queries2):
            assert np.array_equal(a.X, b.X) and np.array_equal(a.eval_labels, b.eval_labels)
        second = tmp_path / "b.csv"
        save_stream_csv(second, data2, queries2)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0,0.5,1,0", "0,0.5,1,1", "2,0.5,1,0", "2,0.5,1,1"], "data batch 2 is at position 1"),
            (["1,0.5,1,0", "1,0.5,1,1"], "data batch 1 is at position 0"),
            (["0,0.5,1,0", "0,0.5,1,1", "1,0.5,1,0"], "QueryBatch[1].X must be non-empty"),
            (["0,0.5,1,0", "0,0.5,1,1", "1,0.5,1,1"], "DataBatch[1].X must be non-empty"),
        ],
        ids=["gap", "not-from-0", "no-query-rows", "no-data-rows"],
    )
    def test_a_marked_file_that_is_not_batch_t_at_position_t_is_refused(self, tmp_path, rows, message):
        path = tmp_path / "s.csv"
        path.write_text("t,f0,label,is_query\n" + "\n".join(rows) + "\n")
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
            load_csv_stream(path)

    def test_parse_errors_carry_row_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,f0,f1,label,is_query\n0,0.0,0.0,1,0\n0,0.0,0.0,2,0\n")
        with pytest.raises(StreamParseError) as err:
            load_csv_stream(path, 1)
        assert err.value.row == 3

        path.write_text("t,f0,f1,label,is_query\n0,0.0,1,0\n")
        with pytest.raises(StreamParseError) as err:
            load_csv_stream(path, 1)
        assert err.value.row == 2

        path.write_text("t,f0,f1,label,is_query\n0,nan,0.0,1,0\n")
        with pytest.raises(StreamParseError):
            load_csv_stream(path, 1)

        path.write_text("wrong,header\n")
        with pytest.raises(StreamParseError):
            load_csv_stream(path, 1)

    @pytest.mark.parametrize("n_batches", [0, 2.5, "4", True])
    def test_n_batches_must_be_a_positive_integer(self, tmp_path, n_batches):
        path = tmp_path / "s.csv"
        write_plain_csv(path, 100)
        with pytest.raises(InvalidInputError, match="n_batches"):
            load_csv_stream(path, n_batches)

    def test_too_few_rows_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        write_plain_csv(path, 5)
        with pytest.raises(InvalidInputError):
            load_csv_stream(path, 10)

    @pytest.mark.parametrize("body", ["", "\n", "\n\r\n\n"])
    def test_file_without_data_rows_fails_at_row_2_without_a_warning(self, tmp_path, body):
        path = tmp_path / "s.csv"
        path.write_bytes(("t,f0,label,is_query\n" + body).encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(StreamParseError, match="^row 2: no data rows$"):
                load_csv_stream(path, 1)
        assert caught == []

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            (3, "2", "label must be 0 or 1, got 2"),
            (3, "-1", "label must be 0 or 1, got -1"),
            (4, "2", "is_query must be 0 or 1, got 2"),
            (4, "-1", "is_query must be 0 or 1, got -1"),
            (1, "nan", "non-finite feature value"),
            (2, "-inf", "non-finite feature value"),
            (1, "1e400", "non-finite feature value"),
        ],
    )
    def test_cells_loadtxt_reads_but_the_row_loop_refuses(self, tmp_path, column, cell, message):
        rows = [["0", "0.5", "1.5", "1", "0"] for _ in range(4)]
        rows[2][column] = cell
        path = tmp_path / "s.csv"
        path.write_text("t,f0,f1,label,is_query\n" + "".join(",".join(row) + "\n" for row in rows))
        with pytest.raises(StreamParseError, match=f"^row 4: {message}$"):
            load_csv_stream(path, 1)

    @pytest.mark.parametrize("forced", [False, True], ids=["load", "row-loop"])
    @pytest.mark.parametrize(
        "rows, message",
        [
            ({1: "0,nan,1.5,1,0", 3: "0,0.5,1.5,2,0"}, "row 3: non-finite feature value"),
            ({2: "0,inf,1.5,2,0"}, "row 4: label must be 0 or 1, got 2"),
            ({2: "0,inf,1,0"}, "row 4: expected 5 columns, got 4"),
        ],
        ids=["earlier-non-finite-row-first", "label-before-feature", "width-before-feature"],
    )
    def test_first_fault_in_file_order_is_reported(self, tmp_path, forced, rows, message):
        lines = [rows.get(i, "0,0.5,1.5,1,0") for i in range(5)]
        path = tmp_path / "s.csv"
        path.write_text("t,f0,f1,label,is_query\n" + "".join(line + "\n" for line in lines))
        with mock.patch.object(harness, "_parse_rows_numpy", return_value=None) if forced else nullcontext():
            with pytest.raises(StreamParseError, match=f"^{re.escape(message)}$"):
                load_csv_stream(path, 1)

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_numpy_parse_gives_the_row_loop_outcome(self, tmp_path_factory, data):
        """Random stream files, valid and mutated, load exactly as the row
        loop alone loads them, or fail with its error, row and message."""
        d = data.draw(st.integers(1, 3), label="d")
        n_rows = data.draw(st.integers(0, 6), label="n_rows")
        marked = data.draw(st.booleans(), label="marked")
        feature = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
            st.integers(-1000, 1000).map(str),
            st.sampled_from([".5", "5.", "+1.5", " 2.25 ", "1e5", "-0.0", "1E-3"]),
        )
        rows = []
        for i in range(n_rows):
            t, mark = (i // 2, i % 2) if marked else (data.draw(st.integers(0, 2)), 0)
            label = data.draw(st.integers(0, 1))
            rows.append([str(t)] + [data.draw(feature) for _ in range(d)] + [str(label), str(mark)])
        lines = list(rows)  # each a row's cells, or an inserted line's text
        mutations = data.draw(st.lists(st.sampled_from(PARSE_MUTATIONS), max_size=2), label="mutations")
        for kind in mutations:
            if kind == "insert":
                lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(ODD_LINES)))
                continue
            at = [i for i, line in enumerate(lines) if isinstance(line, list)]
            if not at:
                continue
            row = lines[data.draw(st.sampled_from(at))]
            if kind == "cell":
                row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.sampled_from(BAD_CELLS))
            elif kind == "non-finite":
                row[data.draw(st.integers(1, d))] = data.draw(st.sampled_from(NON_FINITE))
            elif kind == "label":
                row[data.draw(st.sampled_from([-2, -1]))] = data.draw(st.sampled_from(LABEL_CELLS))
            elif kind == "short":
                row.pop()
            else:
                row.append("0" if kind == "long" else "")
        end = data.draw(st.sampled_from(["\n", "\r\n"]), label="line end")
        header = ",".join(["t"] + [f"f{i}" for i in range(d)] + ["label", "is_query"])
        path = tmp_path_factory.mktemp("stream") / "s.csv"
        text = [line if isinstance(line, str) else ",".join(line) for line in lines]
        path.write_bytes("".join(line + end for line in [header] + text).encode())
        n_batches = data.draw(st.sampled_from([None, n_rows // 2]) if marked else st.integers(1, max(n_rows, 1)))
        seed = data.draw(st.integers(0, 3), label="seed")

        def outcome():
            try:
                return load_csv_stream(path, n_batches, seed=seed)
            except Exception as exc:
                return type(exc), str(exc), getattr(exc, "row", None)

        fast = outcome()
        with mock.patch.object(harness, "_parse_rows_numpy", return_value=None):
            slow = outcome()
        if not mutations and rows:
            assert harness._parse_rows_numpy(path, d) is not None  # the numpy path did the parse
        if isinstance(slow[0], type):
            assert fast == slow
            return
        assert not isinstance(fast[0], type), fast
        for fast_batches, slow_batches in zip(fast, slow):
            assert len(fast_batches) == len(slow_batches)
            for a, b in zip(fast_batches, slow_batches):
                assert type(a.t) is type(b.t) and a.t == b.t
                assert a.X.shape == b.X.shape and a.X.tobytes() == b.X.tobytes()
                labels_a, labels_b = (a.y, b.y) if isinstance(a, DataBatch) else (a.eval_labels, b.eval_labels)
                assert labels_a.dtype == labels_b.dtype and np.array_equal(labels_a, labels_b)


# any finite feature, with the cells whose text is easiest to get wrong
STREAM_FEATURES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e16, 0.1]),
    st.integers(-(10**6), 10**6).map(float),
)


def stream_batch(draw, cls, t, d, max_points):
    """One drawn batch of ``cls`` at index ``t``: one to ``max_points``
    points of ``d`` features, every one labeled."""
    n = draw(st.integers(1, max_points))
    X = draw(hnp.arrays(np.float64, (n, d), elements=STREAM_FEATURES))
    return cls(t, X, draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1))))


@st.composite
def saved_streams(draw):
    """(data, queries): batches 0 to n - 1 for n from 1 to 12, so that
    two-digit indices are written, with d from 1 to 5, each with a labeled
    query batch or, in half the streams, none."""
    d, n = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    data = [stream_batch(draw, DataBatch, t, d, 6) for t in range(n)]
    if not draw(st.booleans()):
        return data, []
    return data, [stream_batch(draw, QueryBatch, t, d, 3) for t in range(n)]


@st.composite
def marked_streams(draw):
    """(data, queries, fault): n batches of each kind at indices 0 to n - 1;
    unless ``fault`` is None, the indices of one list or both are then
    broken by a gap, a duplicate or a swap of two neighbours, or a query
    batch is dropped."""
    fault = draw(st.sampled_from([None, "gap", "duplicate", "misorder", "partial"]))
    d, n = draw(st.integers(1, 3)), draw(st.integers(1 if fault in (None, "gap", "duplicate") else 2, 12))
    data_ts, query_ts = list(range(n)), list(range(n))
    if fault == "partial":
        del query_ts[draw(st.integers(0, n - 1))]
    elif fault is not None:
        k = draw(st.integers(0, n - 2 if fault == "misorder" else n - 1))
        for ts in draw(st.sampled_from([(data_ts,), (query_ts,), (data_ts, query_ts)])):
            if fault == "gap":
                ts[k:] = [t + 1 for t in ts[k:]]
            elif fault == "duplicate":
                ts.insert(k, ts[k])
            else:
                ts[k], ts[k + 1] = ts[k + 1], ts[k]
    data = [stream_batch(draw, DataBatch, t, d, 4) for t in data_ts]
    return data, [stream_batch(draw, QueryBatch, t, d, 3) for t in query_ts], fault


class TestSaveStreamCsv:
    @settings(max_examples=60, deadline=None)
    @given(stream=saved_streams())
    def test_writes_the_csv_writer_bytes(self, tmp_path_factory, stream):
        data, queries = stream
        folder = tmp_path_factory.mktemp("saved")
        save_stream_csv(folder / "new.csv", data, queries)
        reference_save_stream_csv(folder / "reference.csv", data, queries)
        assert (folder / "new.csv").read_bytes() == (folder / "reference.csv").read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(stream=marked_streams())
    def test_what_is_written_reloads_batch_for_batch(self, tmp_path_factory, stream):
        # a stream whose indices break batch t at position t is refused
        # before the file opens; any other reloads equal, bit for bit
        data, queries, fault = stream
        path = tmp_path_factory.mktemp("marked") / "s.csv"
        try:
            save_stream_csv(path, data, queries)
        except InvalidInputError:
            assert fault is not None and not path.exists()
            return
        assert fault is None
        reloaded = load_csv_stream(path)
        for saved, loaded in zip((data, queries), reloaded):
            assert [b.t for b in loaded] == [b.t for b in saved]
            assert [b.X.tobytes() for b in loaded] == [b.X.tobytes() for b in saved]
        assert [b.y.tolist() for b in reloaded[0]] == [b.y.tolist() for b in data]
        assert [q.eval_labels.tolist() for q in reloaded[1]] == [q.eval_labels.tolist() for q in queries]

    @pytest.mark.parametrize("data_ts, query_ts, message", MALFORMED_STREAMS.values(), ids=MALFORMED_STREAMS)
    def test_a_stream_that_is_not_batch_t_at_position_t_is_refused_before_the_file_opens(
        self, tmp_path, data_ts, query_ts, message
    ):
        # load_csv_stream refuses such a file, so it must not be written
        path = tmp_path / "s.csv"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
            save_stream_csv(path, *indexed_stream(data_ts, query_ts))
        assert not path.exists()

    def test_unlabeled_queries_are_refused_before_the_file_opens(self, tmp_path):
        data = [DataBatch(t, np.zeros((2, 2)), [0, 1]) for t in range(3)]
        queries = [QueryBatch(t, np.zeros((1, 2)), [1]) for t in range(2)] + [QueryBatch(2, np.ones((1, 2)))]
        path = tmp_path / "s.csv"
        with pytest.raises(InvalidInputError, match="query batch 2 has no labels to save"):
            save_stream_csv(path, data, queries)
        assert not path.exists()

    @pytest.mark.parametrize(
        "query_ts, message",
        [
            ([0, 1, 2, 7], "expected 3 query batches or none, got 4"),
            ([0, 1, 1, 2], "expected 3 query batches or none, got 4"),
            ([2, 0, 2], "query batch 2 is at position 0"),
        ],
    )
    def test_stray_or_duplicate_queries_are_refused_before_the_file_opens(self, tmp_path, query_ts, message):
        # each would lose query rows: a stray batch has no data rows to
        # follow, and of two batches at one index only the last was written
        data = [DataBatch(t, np.zeros((2, 2)), [0, 1]) for t in range(3)]
        queries = [QueryBatch(t, np.full((1, 2), float(k)), [1]) for k, t in enumerate(query_ts)]
        path = tmp_path / "s.csv"
        with pytest.raises(InvalidInputError, match=message):
            save_stream_csv(path, data, queries)
        assert not path.exists()

    @pytest.mark.parametrize(
        "data_ts, message",
        [([0, 0, 1], "data batch 0 is at position 1"), ([0, 1, 2, 1], "data batch 1 is at position 3")],
    )
    def test_duplicate_data_batches_are_refused_before_the_file_opens(self, tmp_path, data_ts, message):
        # their rows would reload as one batch, followed by the index's
        # query rows once per data batch
        data = [DataBatch(t, np.full((2, 2), float(k)), [0, 1]) for k, t in enumerate(data_ts)]
        queries = [QueryBatch(t, np.zeros((1, 2)), [1]) for t in sorted(set(data_ts))]
        path = tmp_path / "s.csv"
        with pytest.raises(InvalidInputError, match=message):
            save_stream_csv(path, data, queries)
        assert not path.exists()

    @pytest.mark.parametrize(
        "data_dims, query_dims, message",
        [
            ([2, 3], [2, 2], "data batch 1 has dimensionality 3, expected 2"),
            ([2, 2], [2, 3], "query batch 1 has dimensionality 3, expected 2"),
            ([3, 3], [2, 3], "query batch 0 has dimensionality 2, expected 3"),
        ],
    )
    def test_a_batch_of_another_dimensionality_is_refused_before_the_file_opens(
        self, tmp_path, data_dims, query_dims, message
    ):
        # the header has the first data batch's columns, so the reader would refuse the row
        data = [DataBatch(t, np.zeros((2, d)), [0, 1]) for t, d in enumerate(data_dims)]
        queries = [QueryBatch(t, np.ones((1, d)), [1]) for t, d in enumerate(query_dims)]
        path = tmp_path / "s.csv"
        with pytest.raises(InvalidInputError, match=message):
            save_stream_csv(path, data, queries)
        assert not path.exists()


def constant_batch(t, label, base=0.0):
    X = np.array([[base, 0.0], [base + 1.0, 1.0], [base + 2.0, 0.5]])
    return DataBatch(t, X, [label] * 3)


class TestPrequential:
    def test_perfect_model_scores_one(self):
        data = [constant_batch(t, 1) for t in range(3)]
        queries = [QueryBatch(t, [[0.1, 0.2]], [1]) for t in range(3)]
        strategy = Strategy(0, 2, np.zeros(3, dtype=int))
        acc = evaluate_prequential(strategy, StreamCosts(data, queries, LogisticClassifier()))
        assert acc == 1.0

    def test_constant_zero_model_on_all_ones_scores_zero(self):
        data = [constant_batch(t, 0) for t in range(3)]
        queries = [QueryBatch(t, [[0.1, 0.2]], [1]) for t in range(3)]
        strategy = Strategy(0, 2, np.zeros(3, dtype=int))
        assert evaluate_prequential(strategy, StreamCosts(data, queries, LogisticClassifier())) == 0.0

    def test_stagger_answers_with_pre_retrain_model(self):
        # batch 0 trains a constant-1 model, batch 1 a constant-0 model; the
        # strategy retrains at t=1, but queries at t=1 are answered by the
        # old model
        data = [constant_batch(0, 1), constant_batch(1, 0)]
        queries = [QueryBatch(0, [[0.0, 0.0]], [1]), QueryBatch(1, [[0.0, 0.0]], [0])]
        strategy = Strategy(0, 1, np.array([0, 1]))
        acc = evaluate_prequential(strategy, StreamCosts(data, queries, LogisticClassifier()))
        assert acc == pytest.approx(0.5)  # t=0 right (1.0), t=1 wrong (0.0)

    def test_missing_labels_rejected(self):
        data = [constant_batch(0, 1)]
        queries = [QueryBatch(0, [[0.0, 0.0]])]
        strategy = Strategy(0, 0, np.array([0]))
        with pytest.raises(InvalidInputError):
            evaluate_prequential(strategy, StreamCosts(data, queries, LogisticClassifier()))


class TestScpe:
    def test_equal_costs(self):
        assert scpe(7.0, 7.0) == 0.0

    def test_double_cost(self):
        assert scpe(2.0, 1.0) == 100.0

    def test_formula_example(self):
        assert scpe(117.72, 100.0) == pytest.approx(17.72, abs=1e-10)

    def test_zero_reference_undefined(self):
        assert scpe(1.0, 0.0) is None
        assert scpe(0.0, 0.0) is None


def small_config(**overrides):
    base = dict(
        stream=StreamSpec(dataset="covcon", n_batches=16, batch_size=60, queries_per_batch=6),
        t_offline=5,
        t_online=15,
        kappas=[1.0, 4.0],
        policies=[
            {"name": "threshold", "params": "optimize"},
            {"name": "never"},
            {"name": "markov"},
        ],
        model=LogisticClassifier(learning_rate=0.5, epochs=80),
        seeds=[0, 1],
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunSweep:
    def test_rows_compose_consistently(self):
        cfg = small_config()
        results = run_sweep(cfg)
        assert len(results) == 2 * 2 * (1 + 3)  # seeds * kappas * (oracle + policies)
        by_key = {(r.policy, r.kappa, r.seed): r for r in results}
        for r in results:
            oracle_row = by_key[("oracle", r.kappa, r.seed)]
            assert r.oracle_cost == oracle_row.strategy_cost
            assert r.strategy_cost >= r.oracle_cost - 1e-9
            if r.scpe is not None:
                assert r.scpe == pytest.approx(scpe(r.strategy_cost, r.oracle_cost), abs=1e-12)
            assert 0.0 <= r.query_accuracy <= 1.0
            assert 1 <= r.n_retrains <= 11

    def test_determinism_bitwise(self, tmp_path):
        cfg = small_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        results_to_csv(run_sweep(cfg), a)
        results_to_csv(run_sweep(small_config()), b)
        assert a.read_bytes() == b.read_bytes()

    def test_oracle_retrains_monotone_in_kappa_on_toy_stream(self):
        # brute-force check on a 12-batch toy: optimal cost matches, and the
        # oracle's retrain count never increases with kappa
        spec = StreamSpec(dataset="covcon", n_batches=12, batch_size=40, queries_per_batch=5)
        data, queries = generate_stream(spec)
        costs = StreamCosts(data, queries, LogisticClassifier(learning_rate=0.5, epochs=80))
        counts = []
        for kappa in (0.0, 0.3, 1.0, 3.0, 10.0, 1e5):
            c = costs.cost_matrix(0, 11, kappa)
            strat, cost = oracle_strategy(c)
            best_cost, _ = brute_force_optimum(c)
            assert cost == pytest.approx(best_cost, abs=1e-9)
            counts.append(strat.n_retrains)
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_error_vectors_kept_only_for_served_pairs(self):
        # the detectors read one error vector per online batch; the build keeps none
        cfg = small_config(
            policies=[{"name": "adwin", "params": {"delta": 0.5}}, {"name": "ddm", "params": {"min_samples": 5}}],
            seeds=[0],
        )
        with mock.patch.object(StreamCosts, "errors", autospec=True, side_effect=StreamCosts.errors) as errors:
            results = run_sweep(cfg)
        served = sum(r.strategy.served_by.size for r in results if r.policy != "oracle" and r.kappa == cfg.kappas[0])
        assert served == 2 * (cfg.t_online - cfg.t_offline)
        assert 0 < errors.call_count <= served

    def test_results_csv_round_trip(self, tmp_path):
        results = run_sweep(small_config(seeds=[0]))
        path = tmp_path / "r.csv"
        results_to_csv(results, path)
        back = results_from_csv(path)
        assert len(back) == len(results)
        for row, r in zip(back, results):
            assert row["policy"] == r.policy
            assert row["strategy_cost"] == r.strategy_cost
            assert row["strategy"] == str(r.strategy)

    def test_results_csv_refuses_malformed_cells(self, tmp_path):
        header = ",".join(harness.RESULT_COLUMNS)
        good = "gauss,never,5.0,0,3.5,2.5,0.4,1,0.9,0:0 0 0"
        path = tmp_path / "r.csv"
        path.write_text(f"{header}\n{good}\n" + good.replace(",0.4,", ",,") + "\n")
        rows = results_from_csv(path)
        assert rows[0]["kappa"] == 5.0 and rows[0]["seed"] == 0 and rows[0]["scpe"] == 0.4
        assert rows[1]["scpe"] is None  # a blank scpe is undefined
        for bad, message in (
            (good.replace("5.0", "five"), "kappa: could not convert"),
            (good.replace(",0,3.5", ",0.5,3.5"), "seed: invalid literal"),
            (good.replace("5.0", "nan"), "kappa is NaN"),
            (good.replace("3.5", "nan"), "strategy_cost is NaN"),
            (good.replace(",0.9", ",NaN"), "query_accuracy is NaN"),
            (good.replace(",0.9", ""), "expected 10 columns, got 9"),
            (good + ",extra", "expected 10 columns, got 11"),
            (good.replace("5.0", "inf"), "kappa must be finite, got inf"),
            (good.replace("5.0", "-0.5"), r"kappa must be >= 0, got -0\.5"),
            (good.replace(",0,3.5", ",-1,3.5"), "seed must be >= 0, got -1"),
            (good.replace("3.5", "-inf"), "strategy_cost must be finite, got -inf"),
            (good.replace("2.5", "inf"), "oracle_cost must be finite, got inf"),
            (good.replace(",0.4,1,", ",0.4,-3,"), "n_retrains must be >= 1, got -3"),
            (good.replace(",0.4,1,", ",0.4,0,"), "n_retrains must be >= 1, got 0"),
            (good.replace(",0.9", ",7.5"), r"query_accuracy must be in \[0, 1\], got 7\.5"),
            (good.replace(",0.9", ",-0.1"), r"query_accuracy must be in \[0, 1\], got -0\.1"),
            (good.replace("0.4", "inf"), "scpe must be finite, got inf"),
            (good.replace("0.4", "-0.4"), r"scpe must be >= 0, got -0\.4"),
        ):
            path.write_text(f"{header}\n{good}\n{bad}\n")
            with pytest.raises(StreamParseError, match=f"^row 3: {message}"):
                results_from_csv(path)

    def test_csv_stream_source(self, tmp_path):
        spec = StreamSpec(dataset="gauss", n_batches=8, batch_size=40, queries_per_batch=4)
        data, queries = generate_stream(spec)
        path = tmp_path / "stream.csv"
        save_stream_csv(path, data, queries)
        cfg = RunConfig(
            stream=CsvStream(str(path), 8),
            t_offline=2,
            t_online=7,
            kappas=[1.0],
            policies=[{"name": "never"}],
            model=LogisticClassifier(),
            seeds=[0],
        )
        results = run_sweep(cfg)
        assert {r.policy for r in results} == {"oracle", "never"}
        assert results[0].dataset == "stream"


class TestKappaBlindReplays:
    POLICIES = [{"name": "adwin"}, {"name": "ddm"}, {"name": "never"}, {"name": "markov"}]

    def config(self):
        return small_config(kappas=[1.0, 4.0, 20.0], policies=self.POLICIES)

    def test_policies_that_ignore_kappa_replay_once_per_seed(self, monkeypatch):
        calls = {}

        def counting(policy, c, errors=None):
            calls[policy.name] = calls.get(policy.name, 0) + 1
            return replay_policy(policy, c, errors)

        monkeypatch.setattr(harness, "replay_policy", counting)
        results = run_sweep(self.config())
        assert len(results) == 2 * 3 * (1 + 4)
        assert calls == {"adwin": 2, "ddm": 2, "never": 2, "markov": 2 * 3}

    def test_reused_rows_match_a_fresh_replay_on_their_kappa(self):
        cfg, cache = self.config(), {}
        on_start, on_end = cfg.t_offline + 1, cfg.t_online
        for row in run_sweep(cfg, cost_cache=cache):
            if row.policy == "oracle":
                continue
            costs = cache[row.seed][2]
            c = costs.cost_matrix(on_start, on_end, row.kappa)
            assert row.strategy_cost == strategy_cost(row.strategy, c)
            fresh = replay_policy(make_policy(row.policy, **row.params), c, costs.errors)
            assert np.array_equal(fresh.served_by, row.strategy.served_by)
            assert row.query_accuracy == evaluate_prequential(fresh, costs)

    def test_kappa_blindness_is_read_from_decide(self, monkeypatch):
        # a markov rule whose decide drops kappa is replayed once per seed
        class FixedMarkov(MarkovPolicy):
            def decide(self, t, *, staleness):
                return not staleness < 4.0

        calls = []

        def counting(policy, c, errors=None):
            calls.append(policy.name)
            return replay_policy(policy, c, errors)

        monkeypatch.setattr(harness, "replay_policy", counting)
        monkeypatch.setitem(POLICY_KINDS, "markov", FixedMarkov)
        run_sweep(small_config(kappas=[1.0, 4.0, 20.0], policies=[{"name": "markov"}]))
        assert calls == ["markov"] * 2


class TestReport:
    def test_single_row_mean_is_identity(self):
        results = run_sweep(small_config(seeds=[0], kappas=[1.0]))
        summary = report(results)
        nr = next(s for s in summary if s["policy"] == "never")
        raw = next(r for r in results if r.policy == "never")
        assert nr["mean_scpe"] == pytest.approx(raw.scpe)
        assert nr["mean_query_accuracy"] == pytest.approx(raw.query_accuracy)
        assert nr["runs"] == 1
        assert nr["mean_extra_retrains"] == 0.0

    def test_hand_arithmetic_two_rows(self):
        rows = [
            dict(dataset="d", policy="p", kappa=1.0, seed=0, strategy_cost=2.0,
                 oracle_cost=1.0, scpe=100.0, n_retrains=2, query_accuracy=0.6, strategy="0|1"),
            dict(dataset="d", policy="p", kappa=2.0, seed=0, strategy_cost=3.0,
                 oracle_cost=1.0, scpe=200.0, n_retrains=4, query_accuracy=0.8, strategy="0|1"),
        ]
        summary = report(rows)
        assert summary[0]["mean_scpe"] == 150.0
        assert summary[0]["mean_query_accuracy"] == pytest.approx(0.7)
        assert summary[0]["mean_n_retrains"] == 3.0

    def test_undefined_scpe_rows_are_skipped_in_means(self):
        rows = [
            dict(dataset="d", policy="p", kappa=1.0, seed=0, strategy_cost=2.0,
                 oracle_cost=0.0, scpe=None, n_retrains=1, query_accuracy=0.5, strategy="0"),
            dict(dataset="d", policy="p", kappa=2.0, seed=0, strategy_cost=3.0,
                 oracle_cost=1.0, scpe=200.0, n_retrains=1, query_accuracy=0.5, strategy="0"),
        ]
        summary = report(rows)
        assert summary[0]["mean_scpe"] == 200.0
        assert math.isfinite(summary[0]["mean_query_accuracy"])

    def test_render_is_aligned_text(self):
        results = run_sweep(small_config(seeds=[0], kappas=[1.0]))
        text = render_summary(report(results))
        lines = text.splitlines()
        assert lines[0].startswith("dataset")
        assert len(lines) == 2 + 4  # header, rule, oracle + 3 policies


GAUSS_STREAM = {"dataset": "gauss", "n_batches": 10}
CSV_STREAM = {"dataset": "csv", "path": "data/stream.csv", "n_batches": 10}


def adwin_params(raw):
    raw["policies"] = [{"name": "adwin", "params": {}}]
    return raw["policies"][0]["params"]


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            small_config(t_offline=10, t_online=5)
        with pytest.raises(InvalidInputError):
            small_config(kappas=[-1.0])
        with pytest.raises(InvalidInputError):
            small_config(kappas=[])
        with pytest.raises(InvalidInputError):
            small_config(seeds=[])
        with pytest.raises(InvalidInputError):
            small_config(t_online=16)  # stream only has 16 batches (0..15)
        with pytest.raises(InvalidInputError):
            small_config(model="svm")

    @pytest.mark.parametrize("stream", [{"dataset": "gauss"}, "gauss", None])
    def test_stream_that_is_not_a_stream_object_is_refused(self, stream):
        message = f"stream must be a StreamSpec or a CsvStream, got {stream!r}"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            small_config(stream=stream)

    @pytest.mark.parametrize("model", [{"kind": "forest"}, "forest", ForestClassifier, None])
    def test_model_that_is_not_a_classifier_is_refused(self, model):
        with pytest.raises(InvalidInputError, match=re.escape(f"model must be a classifier, got {model!r}")):
            small_config(model=model)

    def test_forest_seed_is_offset_by_each_run_seed(self):
        raw = {
            "stream": {"dataset": "covcon", "n_batches": 8, "batch_size": 40, "queries_per_batch": 4},
            "t_offline": 2,
            "t_online": 7,
            "kappas": [1],
            "policies": [{"name": "never"}],
            "model": {"kind": "forest", "n_trees": 5, "max_depth": 3, "seed": 4},
            "seeds": [0, 2],
        }
        cfg = RunConfig.from_dict(raw)
        cache = {}
        run_sweep(cfg, cost_cache=cache)
        data, queries, costs = cache[2]
        assert costs.model.get_params() == {"n_trees": 5, "max_depth": 3, "bootstrap": True, "seed": 6}
        assert cfg.model.seed == 4
        swept = costs.staleness_matrix(0, 7)

        def staleness(seed):
            model = ForestClassifier(n_trees=5, max_depth=3, seed=seed)
            return StreamCosts(data, queries, model).staleness_matrix(0, 7)

        assert swept.tobytes() == staleness(6).tobytes()
        assert swept.tobytes() != staleness(4).tobytes()  # the offset shows in the matrix

    def test_policy_spec_validation(self):
        with pytest.raises(InvalidInputError):
            PolicySpec("never", "optimize")
        with pytest.raises(InvalidInputError):
            PolicySpec("threshold", "magic")
        assert PolicySpec("threshold", "optimize").optimize

    def test_from_dict_json_shape(self, tmp_path):
        raw = {
            "stream": {"dataset": "gauss", "n_batches": 10, "batch_size": 30,
                        "queries_per_batch": 3, "query_mode": "D", "seed": 0},
            "t_offline": 3,
            "t_online": 9,
            "kappas": [1, 2],
            "policies": [{"name": "never"}, {"name": "threshold", "params": "optimize"}],
            "model": {"kind": "logistic", "learning_rate": 0.5, "epochs": 50},
            "gamma": None,
            "seeds": [0],
            "output": "out.csv",
        }
        cfg = RunConfig.from_dict(raw)
        assert cfg.stream.dataset == "gauss"
        assert isinstance(cfg.model, LogisticClassifier)
        assert cfg.model.epochs == 50
        assert cfg.output == "out.csv"
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        cfg2 = RunConfig.load(path)
        assert cfg2.kappas == cfg.kappas

    def csv_raw(self, **stream):
        return {
            "stream": {"dataset": "csv", "path": "data/stream.csv", **stream},
            "t_offline": 3,
            "t_online": 9,
            "kappas": [1],
            "policies": [{"name": "never"}],
        }

    def test_from_dict_csv_stream(self):
        cfg = RunConfig.from_dict(self.csv_raw(n_batches=10))
        assert cfg.stream == CsvStream("data/stream.csv", 10)
        assert cfg.stream.name == "stream"

    def test_csv_stream_needs_n_batches(self):
        with pytest.raises(InvalidInputError, match="n_batches"):
            RunConfig.from_dict(self.csv_raw())
        with pytest.raises(InvalidInputError, match="n_batches"):
            CsvStream("stream.csv", 0)
        with pytest.raises(InvalidInputError, match="t_online"):
            RunConfig.from_dict(self.csv_raw(n_batches=9))

    @pytest.mark.parametrize("key", ["stream", "t_offline", "t_online", "kappas", "policies"])
    def test_from_dict_missing_key_is_named(self, key):
        raw = self.csv_raw(n_batches=10)
        del raw[key]
        with pytest.raises(InvalidInputError, match=repr(key)):
            RunConfig.from_dict(raw)

    def test_top_level_csv_keys_are_not_read(self):
        raw = self.csv_raw(n_batches=10)
        del raw["stream"]
        raw.update(csv_path="data/stream.csv", n_batches=10)
        with pytest.raises(InvalidInputError, match="'stream'"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "level, key, stream, where",
        [
            ("run config", "gama", GAUSS_STREAM, lambda raw: raw),
            ("stream", "path", GAUSS_STREAM, lambda raw: raw["stream"]),
            ("csv stream", "seed", CSV_STREAM, lambda raw: raw["stream"]),
            ("logistic model", "epocs", GAUSS_STREAM, lambda raw: raw["model"]),
            ("policy entry", "parms", GAUSS_STREAM, lambda raw: raw["policies"][0]),
            ("adwin policy params", "dleta", GAUSS_STREAM, adwin_params),
            # options that were removed: the boundary, the spread and the query share are fixed
            ("stream", "covcon_alpha", {**GAUSS_STREAM, "dataset": "covcon"}, lambda raw: raw["stream"]),
            ("stream", "gauss_sigma", GAUSS_STREAM, lambda raw: raw["stream"]),
            ("csv stream", "queries_per_batch", CSV_STREAM, lambda raw: raw["stream"]),
        ],
    )
    def test_unknown_key_is_named_with_its_level(self, level, key, stream, where):
        raw = {
            "stream": dict(stream),
            "t_offline": 3,
            "t_online": 9,
            "kappas": [1],
            "policies": [{"name": "never"}],
            "model": {"kind": "logistic"},
        }
        where(raw)[key] = 0.5
        with pytest.raises(InvalidInputError, match=f"unknown {level} key {key!r}"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("stream", "gauss", "stream must be an object, got 'gauss'"),
            ("model", "forest", "model must be an object, got 'forest'"),
            ("policies", 5, "policies must be a list of policy entries, got 5"),
            ("policies", "never", "policies must be a list of policy entries, got 'never'"),
        ],
    )
    def test_level_that_is_not_an_object_fails_at_load(self, key, value, message):
        raw = {
            "stream": dict(GAUSS_STREAM),
            "t_offline": 3,
            "t_online": 9,
            "kappas": [1],
            "policies": [{"name": "never"}],
            "model": {"kind": "logistic"},
        }
        raw[key] = value
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            RunConfig.from_dict(raw)

    def test_run_config_that_is_not_an_object_fails_at_load(self):
        with pytest.raises(InvalidInputError, match=re.escape("run config must be an object, got [1]")):
            RunConfig.from_dict([1])

    def test_stream_seed_is_replaced_by_each_run_seed(self, tmp_path):
        raw = {
            "stream": {"dataset": "gauss", "n_batches": 12, "batch_size": 40, "queries_per_batch": 4},
            "t_offline": 3,
            "t_online": 11,
            "kappas": [1, 4],
            "policies": [{"name": "threshold", "params": "optimize"}, {"name": "never"}],
            "model": {"kind": "logistic", "epochs": 20},
            "seeds": [0, 1],
        }
        without, with_seed = tmp_path / "without.csv", tmp_path / "with_seed.csv"
        results_to_csv(run_sweep(RunConfig.from_dict(raw)), without)
        raw["stream"]["seed"] = 5
        results_to_csv(run_sweep(RunConfig.from_dict(raw)), with_seed)
        assert with_seed.read_bytes() == without.read_bytes()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"name": "adwn"}, "unknown policy 'adwn'"),
            ({"name": "threshold"}, "threshold policy params is missing 'tau'"),
            ({"name": "threshold", "params": {}}, "threshold policy params is missing 'tau'"),
            ({"params": {}}, "policy entry is missing 'name'"),
            ("never", "policy entry must be an object with a 'name', got 'never'"),
            ({"name": "threshold", "params": None}, "threshold policy params must be a dict or 'optimize', got None"),
            ({"name": "threshold", "params": {"tau": None}}, "threshold policy params: tau must be a number, got None"),
            ({"name": "cumulative", "params": {"tau_cum": math.nan}}, "cumulative policy params: tau_cum must not be NaN"),
            ({"name": "periodic", "params": {"period": 2.5}}, "periodic policy params: period must be an integer"),
            ({"name": "periodic", "params": {"period": 3, "offset": True}}, "periodic policy params: offset must be an integer"),
            ({"name": "ddm", "params": {"min_samples": 2.7}}, "ddm policy params: min_samples must be an integer"),
            ({"name": "ddm", "params": {"drift_sigma": "wide"}}, "ddm policy params: drift_sigma must be a number, got 'wide'"),
            ({"name": "ddm", "params": {"drift_sigma": None}}, "ddm policy params: drift_sigma must be a number, got None"),
            ({"name": "adwin", "params": {"delta": 2}}, r"adwin policy params: delta must be in \(0, 1\)"),
            ({"name": "adwin", "params": {"max_buckets": "5"}}, "adwin policy params: max_buckets must be an integer"),
            ({"name": "threshold", "params": {"tau": "0.5"}}, "threshold policy params: tau must be a number, got '0.5'"),
            ({"name": "threshold", "params": {"tau": True}}, "threshold policy params: tau must be a number, got True"),
            ({"name": "cumulative", "params": {"tau_cum": "1"}}, "cumulative policy params: tau_cum must be a number"),
            ({"name": "ddm", "params": {"drift_sigma": "3"}}, "ddm policy params: drift_sigma must be a number, got '3'"),
            ({"name": "adwin", "params": {"delta": "0.01"}}, "adwin policy params: delta must be a number, got '0.01'"),
            ({"name": ["never"]}, re.escape(f"unknown policy ['never']; expected one of {sorted(POLICY_KINDS)}")),
        ],
    )
    def test_policy_entry_fails_at_load(self, entry, message):
        raw = {
            "stream": dict(GAUSS_STREAM),
            "t_offline": 3,
            "t_online": 9,
            "kappas": [1],
            "policies": [{"name": "never"}, entry],
            "model": {"kind": "logistic"},
        }
        with pytest.raises(InvalidInputError, match=message):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "model, message",
        [
            ({"kind": "forest", "n_trees": 0}, "n_trees must be >= 1"),
            ({"kind": "forest", "feature_fraction": 1.0}, "unknown forest model key 'feature_fraction'"),
            ({"kind": "logistic", "epochs": 0}, "epochs must be >= 1"),
            ({"kind": "forest", "n_trees": "5"}, "n_trees must be an integer, got '5'"),
            ({"kind": "forest", "n_trees": 2.5}, "n_trees must be an integer, got 2.5"),
            ({"kind": "forest", "max_depth": True}, "max_depth must be an integer, got True"),
            ({"kind": "forest", "max_depth": 0}, "max_depth must be >= 1"),
            ({"kind": "logistic", "epochs": 10.0}, "epochs must be an integer, got 10.0"),
            ({"kind": "logistic", "learning_rate": "0.1"}, "learning_rate must be a number, got '0.1'"),
            ({"kind": "logistic", "learning_rate": math.nan}, "learning_rate must be > 0"),
            ({"kind": "logistic", "l2": 0.0}, "unknown logistic model key 'l2'"),
            ({"kind": "logistic", "seed": "x"}, "unknown logistic model key 'seed'"),
            ({"kind": "forest", "seed": 2.5}, "seed must be an integer, got 2.5"),
            ({"kind": "forest", "seed": -1}, "seed must be >= 0"),
            ({"kind": "forest", "bootstrap": "false"}, "bootstrap must be a bool, got 'false'"),
            ({"kind": "forest", "bootstrap": 0}, "bootstrap must be a bool, got 0"),
            ({"kind": ["forest"]}, re.escape("unknown model kind ['forest']; expected one of ['forest', 'logistic']")),
            ({"kind": "tree"}, re.escape("unknown model kind 'tree'; expected one of ['forest', 'logistic']")),
        ],
    )
    def test_model_hyperparameters_fail_at_load(self, model, message):
        raw = {
            "stream": dict(GAUSS_STREAM),
            "t_offline": 3,
            "t_online": 9,
            "kappas": [1],
            "policies": [{"name": "never"}],
            "model": model,
        }
        with pytest.raises(InvalidInputError, match=message):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "where, key, value, message",
        [
            ("run", "kappas", ["2"], "kappas must be a number, got '2'"),
            ("run", "kappas", [True], "kappas must be a number, got True"),
            ("run", "kappas", [math.nan], "kappas must be finite, got nan"),
            ("run", "kappas", [1.0, math.inf], "kappas must be finite, got inf"),
            ("run", "kappas", 2, "kappas must be a non-empty list, got 2"),
            ("run", "seeds", [2.5], "seeds must be an integer, got 2.5"),
            ("run", "seeds", ["x"], "seeds must be an integer, got 'x'"),
            ("run", "seeds", [-1], "seeds must be >= 0"),
            ("run", "t_offline", 3.5, "t_offline must be an integer, got 3.5"),
            ("run", "t_offline", "3", "t_offline must be an integer, got '3'"),
            ("run", "t_online", 9.0, "t_online must be an integer, got 9.0"),
            ("run", "gamma", True, "gamma must be a number, got True"),
            ("run", "gamma", "0.5", "gamma must be a number, got '0.5'"),
            ("run", "gamma", math.inf, "gamma must be finite, got inf"),
            ("csv", "n_batches", "12", "csv stream n_batches must be an integer, got '12'"),
            ("csv", "path", 5, "csv stream path must be a string, got 5"),
            ("csv", "path", None, "csv stream is missing 'path'"),
            ("gauss", "n_batches", 12.0, "n_batches must be an integer, got 12.0"),
            ("gauss", "batch_size", "40", "batch_size must be an integer, got '40'"),
            ("gauss", "dataset", None, "stream is missing 'dataset'"),
        ],
    )
    def test_malformed_number_fails_at_load(self, tmp_path, where, key, value, message):
        # the csv file does not exist and a gauss stream is generated only by run_sweep,
        # so each failure comes from the load, before any stream is read or generated
        raw = {
            "stream": {"dataset": "csv", "path": str(tmp_path / "absent.csv"), "n_batches": 12},
            "t_offline": 3,
            "t_online": 9,
            "kappas": [1],
            "policies": [{"name": "never"}],
            "model": {"kind": "logistic"},
        }
        if where == "gauss":
            raw["stream"] = {"dataset": "gauss", "n_batches": 12, "batch_size": 40, "queries_per_batch": 4}
        target = raw if where == "run" else raw["stream"]
        if value is None:  # the key is left out
            del target[key]
        else:
            target[key] = value
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            RunConfig.from_dict(raw)

    def test_malformed_policy_fails_before_the_stream_is_read(self, tmp_path):
        # the csv file does not exist: a load that read it would fail with OSError instead
        raw = {
            "stream": {"dataset": "csv", "path": str(tmp_path / "absent.csv"), "n_batches": 12},
            "t_offline": 3,
            "t_online": 9,
            "kappas": [1],
            "policies": [{"name": "adwin", "params": {"delta": 2}}],
            "model": {"kind": "logistic"},
        }
        with pytest.raises(InvalidInputError, match="adwin policy params: delta must be in"):
            RunConfig.from_dict(raw)


# arguments for the constructors that have required parameters; the rest are built with their defaults
REQUIRED_ARGS = {"threshold": {"tau": 0.5}, "cumulative": {"tau_cum": 1.5}, "periodic": {"period": 3, "offset": 1}}


@pytest.mark.parametrize(
    "name, cls", [*POLICY_KINDS.items(), *MODEL_KINDS.items()], ids=[*POLICY_KINDS, *MODEL_KINDS]
)
def test_get_params_reads_the_constructor_signature(name, cls):
    obj = cls(**REQUIRED_ARGS.get(name, {}))
    params = obj.get_params()
    assert list(params) == list(inspect.signature(cls).parameters)
    assert all(type(value) in (bool, int, float) for value in params.values())
    assert cls(**params).get_params() == params


def test_get_params_gives_python_scalars_for_numpy_arguments():
    params = ForestClassifier(n_trees=np.int64(5)).get_params()
    assert params["n_trees"] == 5 and type(params["n_trees"]) is int
