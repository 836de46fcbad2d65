"""``np.dot`` gives ``@``'s bits on every layout the package multiplies.

The logistic fit and predict, the RBF kernels and the staleness rows call
``np.dot``, which costs less per call than ``@``; both reach the same BLAS
routine (dot, gemv, gemm or syrk) with the same operand layout, so the
results are equal bit for bit. A numpy or BLAS build that splits the two
forms fails here, not as a moved golden CSV.
"""

import numpy as np
import pytest


def _operands(n, d):
    rng = np.random.default_rng(1000 * n + d)
    # magnitudes spread over a few decades, so a change of summation order
    # shows in the last bits
    X = rng.normal(size=(n, d)) * np.exp(rng.uniform(-3, 3, size=(n, d)))
    return rng, np.ascontiguousarray(X)


def _matrix_vector(n, d):
    rng, X = _operands(n, d)
    w = rng.normal(size=d)
    return np.dot(X, w, out=np.empty(n)), X @ w


def _transpose_vector(n, d):
    rng, X = _operands(n, d)
    r = rng.normal(size=n)
    return np.dot(X.T, r, out=np.empty(d)), X.T @ r


def _concatenation_slices(n, d):
    # the per-batch margins of a predict over stacked batches
    rng, X = _operands(n, d)
    w = rng.normal(size=d)
    stacked = np.concatenate([X, X[::-1], X[: (n + 1) // 2]])
    sizes = [n, n, (n + 1) // 2]
    got, want = np.empty(stacked.shape[0]), np.empty(stacked.shape[0])
    lo = 0
    for size in sizes:
        np.dot(stacked[lo : lo + size], w, out=got[lo : lo + size])
        want[lo : lo + size] = stacked[lo : lo + size] @ w
        lo += size
    return got, want


def _queries_by_points(n, d):
    # Q @ X.T of the kernels: a C-order (q, d) times an F-order (d, n), for
    # a lone query and for a batch of them
    rng, X = _operands(n, d)
    Qs = [rng.normal(size=(q, d)) for q in (1, n + 3)]
    return np.concatenate([np.dot(Q, X.T).ravel() for Q in Qs]), np.concatenate([(Q @ X.T).ravel() for Q in Qs])


def _slice_dots(n, d):
    # the staleness rows: one 1-D dot per batch slice
    rng, _ = _operands(n, d)
    mass = rng.uniform(0.0, 5.0, size=n)
    wrong = (rng.uniform(size=3 * n + d) < 0.3).astype(np.float64)
    got = [np.dot(mass, wrong[a : a + n]) for a in range(0, 2 * n + d + 1, max(1, n // 2))]
    want = [mass @ wrong[a : a + n] for a in range(0, 2 * n + d + 1, max(1, n // 2))]
    return np.array(got), np.array(want)


def _points_by_themselves(n, d):
    # Q is X: numpy may route a product with its own transpose to syrk
    _, X = _operands(n, d)
    return np.dot(X, X.T), X @ X.T


LAYOUTS = [
    _matrix_vector,
    _transpose_vector,
    _concatenation_slices,
    _queries_by_points,
    _slice_dots,
    _points_by_themselves,
]


@pytest.mark.parametrize("d", [1, 2, 3, 8, 30])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 200, 1000])
@pytest.mark.parametrize("layout", LAYOUTS, ids=lambda f: f.__name__.lstrip("_"))
def test_dot_gives_the_matmul_bits(layout, n, d):
    got, want = layout(n, d)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
