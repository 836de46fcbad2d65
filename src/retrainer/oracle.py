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

import numpy as np

from .costmatrix import CostMatrix, Strategy


def memoize_dp(c: CostMatrix) -> np.ndarray:
    """Fill the (n, n) best-cost table from a cost matrix; ``V[t, p]`` uses
    range-relative indices.

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
    return V


def oracle_strategy(c: CostMatrix) -> tuple[Strategy, float]:
    """Optimal strategy for a cost matrix together with its cost.

    Walks the table backwards: the argmin p of the row of a segment's last
    batch is the retrain batch whose model serves the segment, and row p - 1
    ends the segment before it. Argmin ties resolve to the smallest batch
    index.
    """
    V = memoize_dp(c)
    served = np.empty(c.n, dtype=np.int64)
    end = c.n
    while end > 0:
        p = int(np.argmin(V[end - 1]))
        served[p:end] = c.start + p
        end = p
    return Strategy(c.start, c.end, served), float(V[-1].min())
