"""Retrospectively optimal retraining strategy via dynamic programming.

Given a complete cost matrix over [start, end], the table value at (t, p) is
the cheapest cost of any reachable strategy through batch t whose current
model was trained at batch p. Filling the table row by row and walking the
argmins backwards from the last row recovers the optimal strategy: each
argmin p is a retrain batch that serves every batch up to the end of the
segment the walk came from, and the walk ends at the range start, where
training is forced.

Runs in O(n^2) time and O(n) memory: the DP keeps one running row and
records each row's minimum and first argmin, all the walk reads. Cells
above the feasible region stay +inf, and negative staleness needs no care.
"""

from __future__ import annotations

import math

import numpy as np

from .costmatrix import CostMatrix, Strategy


def dp_rows(c: CostMatrix):
    """Yield the best-cost table's rows in order, range-relative, in one
    buffer each step overwrites: row t adds C[p, t] to every earlier model
    p's value and pays kappa[t] on top of the previous row's minimum."""
    row = np.full(c.n, math.inf)
    row[0] = c.kappa[0]
    yield row
    for t in range(1, c.n):
        best = row[:t].min()
        row[:t] += c.staleness[:t, t]
        row[t] = c.kappa[t] + best
        yield row


def memoize_dp(c: CostMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Run the DP over a cost matrix: each table row's minimum and its
    first argmin (range-relative), as two length-n arrays."""
    best = [(row.min(), row.argmin()) for row in dp_rows(c)]
    mins, argmins = zip(*best)
    return np.array(mins), np.array(argmins, dtype=np.int64)


def oracle_strategy(c: CostMatrix) -> tuple[Strategy, float]:
    """Optimal strategy for a cost matrix together with its cost.

    Walks the table backwards: the argmin p of the row of a segment's last
    batch is the retrain batch whose model serves the segment, and row p - 1
    ends the segment before it. Argmin ties resolve to the smallest batch
    index.
    """
    mins, argmins = memoize_dp(c)
    served = np.empty(c.n, dtype=np.int64)
    end = c.n
    while end > 0:
        p = int(argmins[end - 1])
        served[p:end] = c.start + p
        end = p
    return Strategy(c.start, c.end, served), float(mins[-1])
