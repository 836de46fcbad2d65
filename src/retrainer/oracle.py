"""Retrospectively optimal retraining strategy via dynamic programming.

Given a complete cost matrix over [start, end], the table value at (t, p) is
the cheapest cost of any reachable strategy through batch t whose current
model was trained at batch p. Filling the table row by row and walking the
argmins backwards from the last row recovers the optimal strategy: each
argmin p is a retrain batch that serves every batch up to the end of the
segment the walk came from, and the walk ends at the range start, where
training is forced.

Runs in O(n^2) time; entries above the feasible region stay +inf, and
negative staleness entries are handled like any other value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costmatrix import CostMatrix, Strategy, format_value, write_csv


@dataclass(frozen=True)
class DPTable:
    """Memoized best-cost table; ``values[t, p]`` uses range-relative indices."""

    start: int
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def optimal_cost(self) -> float:
        return float(self.values[-1].min())

    def to_csv(self, path) -> None:
        cells = ((t, p) for t in range(self.n) for p in range(self.n))
        rows = ([self.start + t, self.start + p, format_value(self.values[t, p])] for t, p in cells)
        write_csv(path, ["t", "p", "value"], rows)


def memoize_dp(c: CostMatrix) -> DPTable:
    """Fill the best-cost table from a cost matrix.

    The first column is the never-retrain prefix: cumulative costs of serving
    every batch with the model from the range start. Interior cells either
    extend the same model by one batch or pay the diagonal cost on top of the
    best table value from the previous row.
    """
    n = c.n
    E = c.entries
    V = np.full((n, n), math.inf)
    V[:, 0] = np.cumsum(E[0, :])
    for t in range(1, n):
        prev = V[t - 1]
        if t > 1:
            V[t, 1:t] = E[1:t, t] + prev[1:t]
        V[t, t] = E[t, t] + prev[:t].min()
    return DPTable(c.start, V)


def oracle_strategy(c: CostMatrix) -> tuple[Strategy, float]:
    """Optimal strategy for a cost matrix together with its cost.

    Walks the table backwards: the argmin p of the row of a segment's last
    batch is the retrain batch whose model serves the segment, and row p - 1
    ends the segment before it. Argmin ties resolve to the smallest batch
    index.
    """
    table = memoize_dp(c)
    served = np.empty(c.n, dtype=np.int64)
    end = c.n
    while end > 0:
        p = int(np.argmin(table.values[end - 1]))
        served[p:end] = c.start + p
        end = p
    return Strategy(c.start, c.end, served), table.optimal_cost
