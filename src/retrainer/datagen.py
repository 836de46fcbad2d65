"""Seeded synthetic drift streams and the two query regimes.

Three 2-D binary stream families:

* gauss  -- recurring covariate drift: points from a Gaussian with sigma 0.1
  whose center walks along (c, 0.5 - c) with c = ((t + 1) % 15) / 30, labeled
  by the fixed parabola x2 > 4 (x1 - 0.5)^2.
* circle -- gradual concept drift: uniform points on the unit square labeled
  by whether they fall outside a circle; the circle grows/moves through the
  concepts of ``CIRCLE_SCHEDULE``, split over equal segments of the stream.
* covcon -- covariate and concept drift: both coordinates from a Gaussian
  with mean ((t + 1) % 7) / 10 and sigma 0.1, labeled by sin(pi * x1) > x2
  with the inequality direction flipping every 10 batches (first flip at
  t = 10).

Query regimes: mode "D" samples queries (with their labels) from the data
batch without replacement and without removing them from it; mode "S" draws
queries from a static Gaussian at (0.5, 0.5) with sigma 0.015 and labels them
with the concept active at t.

Labels are pure functions of (point, t), and each batch's randomness is
seeded by (seed, t), so any batch can be regenerated independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .streams import DataBatch, QueryBatch
from .validation import as_int

DATASETS = ("gauss", "circle", "covcon")
QUERY_MODES = ("D", "S")

# (c1, c2, r) of each circle, in stream order
CIRCLE_SCHEDULE = (
    (0.2, 0.5, 0.15),
    (0.4, 0.5, 0.2),
    (0.6, 0.5, 0.25),
    (0.8, 0.5, 0.3),
)

STATIC_QUERY_CENTER = (0.5, 0.5)
STATIC_QUERY_SIGMA = 0.015


@dataclass(frozen=True)
class StreamSpec:
    """Everything needed to regenerate a synthetic stream deterministically."""

    dataset: str
    n_batches: int = 100
    batch_size: int = 1000
    queries_per_batch: int = 100
    query_mode: str = "D"
    seed: int = 0

    def __post_init__(self):
        if self.dataset not in DATASETS:
            raise InvalidInputError(f"dataset must be one of {DATASETS}, got {self.dataset!r}")
        for name in ("n_batches", "batch_size", "queries_per_batch"):
            as_int(getattr(self, name), name, 1)
        if self.query_mode not in QUERY_MODES:
            raise InvalidInputError(f"query_mode must be 'D' or 'S', got {self.query_mode!r}")
        if self.query_mode == "D" and self.queries_per_batch > self.batch_size:
            raise InvalidInputError("mode D cannot sample more queries than the batch size")

    @property
    def name(self) -> str:
        return f"{self.dataset}-{self.query_mode}"


def _rng(seed: int, t: int, substream: int) -> np.random.Generator:
    return np.random.default_rng([seed % (2**32), t, substream])


def gauss_center(t: int) -> tuple[float, float]:
    c = ((t + 1) % 15) / 30.0
    return (c, 0.5 - c)


def covcon_mean(t: int) -> float:
    return ((t + 1) % 7) / 10.0


def covcon_flipped(t: int) -> bool:
    return (t // 10) % 2 == 1


def circle_concept(spec: StreamSpec, t: int) -> tuple[float, float, float]:
    """Concept active at batch t: the schedule covers equal stream segments."""
    k = len(CIRCLE_SCHEDULE)
    seg = min(k - 1, (t * k) // spec.n_batches)
    return CIRCLE_SCHEDULE[seg]


def concept_label(spec: StreamSpec, X, t: int) -> np.ndarray:
    """Ground-truth labels for points under the concept active at batch t."""
    X = np.asarray(X, dtype=np.float64)
    if spec.dataset == "gauss":
        labels = X[:, 1] > 4.0 * (X[:, 0] - 0.5) ** 2
    elif spec.dataset == "circle":
        c1, c2, r = circle_concept(spec, t)
        labels = (X[:, 0] - c1) ** 2 + (X[:, 1] - c2) ** 2 - r**2 > 0
    else:
        boundary = np.sin(math.pi * X[:, 0])
        if covcon_flipped(t):
            labels = boundary < X[:, 1]
        else:
            labels = boundary > X[:, 1]
    return labels.astype(np.int64)


def gen_batch(spec: StreamSpec, t: int) -> DataBatch:
    if not 0 <= t < spec.n_batches:
        raise InvalidInputError(f"batch index {t} outside [0, {spec.n_batches})")
    rng = _rng(spec.seed, t, 0)
    size = (spec.batch_size, 2)
    if spec.dataset == "gauss":
        X = rng.normal(loc=gauss_center(t), scale=0.1, size=size)
    elif spec.dataset == "circle":
        X = rng.uniform(0.0, 1.0, size=size)
    else:
        X = rng.normal(loc=covcon_mean(t), scale=0.1, size=size)
    return DataBatch(t, X, concept_label(spec, X, t))


def sample_queries(seed: int, batch: DataBatch, q: int) -> QueryBatch:
    """Mode-D queries: ``q`` rows of ``batch`` with their labels, drawn
    without replacement by the generator keyed (seed, batch.t, 1)."""
    if q > batch.size:
        raise InvalidInputError(f"cannot sample {q} queries from a batch of {batch.size}")
    idx = _rng(seed, batch.t, 1).choice(batch.size, size=q, replace=False)
    return QueryBatch(batch.t, batch.X[idx], batch.y[idx])


def make_queries(spec: StreamSpec, t: int, data_batch: DataBatch) -> QueryBatch:
    if spec.query_mode == "D":
        return sample_queries(spec.seed, data_batch, spec.queries_per_batch)
    rng = _rng(spec.seed, t, 1)
    Q = rng.normal(loc=STATIC_QUERY_CENTER, scale=STATIC_QUERY_SIGMA, size=(spec.queries_per_batch, 2))
    return QueryBatch(t, Q, concept_label(spec, Q, t))


def generate_stream(spec: StreamSpec) -> tuple[list[DataBatch], list[QueryBatch]]:
    """All data and query batches for the spec, in batch order."""
    data = [gen_batch(spec, t) for t in range(spec.n_batches)]
    queries = [make_queries(spec, t, data[t]) for t in range(spec.n_batches)]
    return data, queries
