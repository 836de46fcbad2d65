"""Batched stream containers.

A stream is a list of batches in which batch t sits at position t, from 0.
``DataBatch`` carries labeled training points, ``QueryBatch`` carries the
points the deployed model must answer at the same step; query labels are
optional and used only when scoring accuracy, never by decision policies.
``check_stream`` is the one rule for what a stream is; the cost cache, the
stream CSV writer and its reader all apply it.

Batches are treated as immutable after construction: the arrays are owned by
the batch and shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .validation import as_binary_labels, as_int, as_point_matrix, check_same_dim


@dataclass(frozen=True)
class _Batch:
    """The points of step ``t``: an integer ``t >= 0`` and an (n, d) matrix
    X of finite floats."""

    t: int
    X: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", as_int(self.t, "batch index", 0))
        object.__setattr__(self, "X", as_point_matrix(self.X, name=f"{self._name}.X"))

    @property
    def _name(self) -> str:
        return f"{type(self).__name__}[{self.t}]"

    @property
    def size(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class DataBatch(_Batch):
    """Labeled points that arrived at step ``t``; y holds the matching 0/1
    labels."""

    y: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "y", as_binary_labels(self.y, n=self.size, name=f"{self._name}.y"))


@dataclass(frozen=True)
class QueryBatch(_Batch):
    """Query points to answer at step ``t``.

    eval_labels, when present, are ground-truth 0/1 labels used for accuracy
    reporting only.
    """

    eval_labels: np.ndarray | None = field(default=None)

    def __post_init__(self):
        super().__post_init__()
        if self.eval_labels is not None:
            labels = as_binary_labels(self.eval_labels, n=self.size, name=f"{self._name}.eval_labels")
            object.__setattr__(self, "eval_labels", labels)


def check_stream(data, queries) -> None:
    """Refuse a stream that is not batch t at position t: ``data`` must be
    non-empty with batch t at position t, from 0, ``queries`` empty or the
    same with one batch per data batch, and every batch must have the first
    data batch's dimensionality."""
    if not data:
        raise InvalidInputError("data stream is empty")
    for kind, batches in (("data", data), ("query", queries)):
        if len(batches) not in (0, len(data)):
            raise InvalidInputError(f"expected {len(data)} {kind} batches or none, got {len(batches)}")
        for t, batch in enumerate(batches):
            if batch.t != t:
                raise InvalidInputError(f"{kind} batch {batch.t} is at position {t}; batch t must be at position t")
            check_same_dim(data[0].dim, batch.dim, f"{kind} batch {t}")
