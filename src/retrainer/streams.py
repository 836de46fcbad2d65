"""Batched stream containers.

A stream is a list of batches indexed by a non-negative time step ``t``.
``DataBatch`` carries labeled training points, ``QueryBatch`` carries the
points the deployed model must answer at the same step; query labels are
optional and used only when scoring accuracy, never by decision policies.

Batches are treated as immutable after construction: the arrays are owned by
the batch and shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .validation import as_binary_labels, as_point_matrix


@dataclass(frozen=True)
class DataBatch:
    """Labeled points that arrived at step ``t``.

    X has shape (n, d) with finite float entries; y holds the matching
    0/1 labels.
    """

    t: int
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.t < 0:
            raise InvalidInputError(f"batch index must be non-negative, got {self.t}")
        X = as_point_matrix(self.X, name=f"DataBatch[{self.t}].X")
        y = as_binary_labels(self.y, n=X.shape[0], name=f"DataBatch[{self.t}].y")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def size(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class QueryBatch:
    """Query points to answer at step ``t``.

    eval_labels, when present, are ground-truth 0/1 labels used for accuracy
    reporting only.
    """

    t: int
    X: np.ndarray
    eval_labels: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.t < 0:
            raise InvalidInputError(f"batch index must be non-negative, got {self.t}")
        X = as_point_matrix(self.X, name=f"QueryBatch[{self.t}].X")
        object.__setattr__(self, "X", X)
        if self.eval_labels is not None:
            labels = as_binary_labels(
                self.eval_labels, n=X.shape[0], name=f"QueryBatch[{self.t}].eval_labels"
            )
            object.__setattr__(self, "eval_labels", labels)

    @property
    def size(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]
