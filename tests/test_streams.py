import re
from dataclasses import fields

import numpy as np
import pytest
from helpers import MALFORMED_STREAMS, indexed_stream

from retrainer import DataBatch, InvalidInputError, QueryBatch
from retrainer.streams import check_stream

X = np.zeros((3, 2))


@pytest.mark.parametrize(
    "make",
    [
        lambda t: DataBatch(t, X, [0, 1, 0]),
        lambda t: QueryBatch(t, X),
        lambda t: QueryBatch(t, X, [0, 1, 0]),
    ],
    ids=["data", "query", "labeled-query"],
)
class TestBatchIndex:
    @pytest.mark.parametrize("t", [1.5, 2.0, True, "a", None, [1]])
    def test_an_index_that_is_not_an_integer_is_refused(self, make, t):
        with pytest.raises(InvalidInputError, match=re.escape(f"batch index must be an integer, got {t!r}")):
            make(t)

    def test_a_negative_index_is_refused(self, make):
        with pytest.raises(InvalidInputError, match="^batch index must be >= 0$"):
            make(-1)

    def test_an_integer_index_is_kept_as_an_int(self, make):
        batch = make(np.int64(4))
        assert batch.t == 4 and type(batch.t) is int
        assert (batch.size, batch.dim) == (3, 2)


def test_fields_keep_their_order():
    assert [f.name for f in fields(DataBatch)] == ["t", "X", "y"]
    assert [f.name for f in fields(QueryBatch)] == ["t", "X", "eval_labels"]
    assert QueryBatch(0, X).eval_labels is None


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: DataBatch(3, np.zeros((2, 2, 2)), [0, 1]), "DataBatch[3].X must be 2-dimensional"),
        (lambda: DataBatch(3, [[0.0, np.nan]], [0]), "DataBatch[3].X contains NaN or infinite entries"),
        (lambda: DataBatch(3, X, [0, 1]), "DataBatch[3].y has length 2, expected 3"),
        (lambda: DataBatch(3, X, [0, 2, 1]), "DataBatch[3].y must contain only 0/1 labels"),
        (lambda: QueryBatch(3, np.empty((0, 2))), "QueryBatch[3].X must be non-empty"),
        (lambda: QueryBatch(3, X, [0, 1]), "QueryBatch[3].eval_labels has length 2, expected 3"),
        (lambda: QueryBatch(3, X, [0.5, 1, 0]), "QueryBatch[3].eval_labels must contain only 0/1 labels"),
    ],
)
def test_point_and_label_messages_name_the_batch(make, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        make()


@pytest.mark.parametrize("data_ts, query_ts, message", MALFORMED_STREAMS.values(), ids=MALFORMED_STREAMS)
def test_a_stream_that_is_not_batch_t_at_position_t_is_refused(data_ts, query_ts, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
        check_stream(*indexed_stream(data_ts, query_ts))


@pytest.mark.parametrize(
    "kind, position, message",
    [
        ("data", 0, "data batch 1 has dimensionality 2, expected 3"),
        ("data", 2, "data batch 2 has dimensionality 3, expected 2"),
        ("query", 0, "query batch 0 has dimensionality 3, expected 2"),
        ("query", 2, "query batch 2 has dimensionality 3, expected 2"),
    ],
)
def test_a_batch_of_another_dimensionality_is_refused(kind, position, message):
    # every batch is checked against the first data batch
    data, queries = indexed_stream(range(3), range(3))
    batches = data if kind == "data" else queries
    batches[position] = type(batches[position])(position, np.ones((2, 3)), [0, 1])
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        check_stream(data, queries)


@pytest.mark.parametrize("n", [1, 12])
def test_batch_t_at_position_t_is_accepted_with_or_without_queries(n):
    data, queries = indexed_stream(range(n), range(n))
    check_stream(data, queries)
    check_stream(data, [])
