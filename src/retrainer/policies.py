"""Online retraining policies and their offline calibration.

A policy looks at one batch at a time and decides Keep or Retrain:
``decide`` returns True to retrain. The one decision loop starts from the
model trained at the range start, then per batch passes each policy the
inputs its ``decide`` takes after the batch index ``t``, by keyword:

* ``staleness`` -- the relative staleness of the current model, read from
  the cost matrix (threshold, cumulative and markov policies);
* ``errors`` -- the model's per-sample 0/1 errors on the current data
  batch, in stream order, from an ``errors(t_model, t_data)`` source (the
  ADWIN and DDM drift detectors, each of which is its own policy, holds the
  detector state and reads a batch's bits in one call);
* ``kappa`` -- the retraining cost of the current batch, read from the
  matrix diagonal (the markov policy). A policy whose ``decide`` does not
  take it replays to the same strategy under every retraining cost.

``decide_inputs`` reads that list from the signature, so a policy cannot
read an input it does not declare.

``replay_policy`` runs one policy through that loop. An online run is a
replay on the online cost matrix, with ``StreamCosts.errors`` as the
detectors' error source; the matrix and the error vectors both come from the
same ``StreamCosts`` cache.

Policies that keep mutable state reset it when they decide to retrain, so a
single instance can be reused across runs via ``reset()``.

The threshold, cumulative and periodic rules are written with numpy
comparisons, so one instance built from arrays of parameters decides for a
whole block of candidates at once. ``get_params`` reads the parameter names
from the constructor's signature and returns a single policy's values as
Python numbers. ``optimize_offline`` calibrates these families against a
prebuilt cost matrix, never refitting a model: it runs blocks of candidates
through the same loop and prices each candidate's serving row the way
``strategy_cost`` prices the replayed strategy, so the costs are equal
exactly.
"""

from __future__ import annotations

import inspect
import itertools
import math

import numpy as np

from .costmatrix import CostMatrix, Strategy, _cost_terms
from .errors import InvalidInputError
from .validation import ConstructorParams, as_count, as_int, as_kind, as_reals, check_number


class RetrainPolicy(ConstructorParams):
    """Base decision function; subclasses override ``decide``."""

    name = "base"

    def reset(self) -> None:
        """Clear any per-run mutable state."""

    def decide(self, t: int):
        """True to retrain at batch ``t``, False to keep the current model.
        An override takes, by keyword, the inputs it reads: some of
        ``staleness``, ``errors`` and ``kappa``."""
        raise NotImplementedError


def decide_inputs(policy: RetrainPolicy) -> tuple:
    """The inputs ``policy.decide`` takes after ``t``, in its order."""
    return tuple(inspect.signature(policy.decide).parameters)[1:]


class ThresholdPolicy(RetrainPolicy):
    """Retrain as soon as the current staleness reaches ``tau``.

    Keep requires strictly smaller staleness, so a value exactly at the
    threshold retrains; tau = +inf never retrains and tau = -inf always
    does.
    """

    name = "threshold"

    def __init__(self, tau: float):
        self.tau = as_reals(tau, "tau")

    def decide(self, t, *, staleness):
        return np.logical_not(staleness < self.tau)

    @classmethod
    def calibration_grid(cls, c: CostMatrix) -> dict:
        return {"tau": _sentinel_grid(np.concatenate([c.staleness[i, i + 1 :] for i in range(c.n)]))}


class CumulativeThresholdPolicy(RetrainPolicy):
    """Retrain when staleness accumulated since the last training reaches
    ``tau_cum``; the accumulator resets to zero on retrain."""

    name = "cumulative"

    def __init__(self, tau_cum: float):
        self.tau_cum = as_reals(tau_cum, "tau_cum")
        self.reset()

    def reset(self):
        self.cumulative_ = np.zeros(self.tau_cum.shape)

    def decide(self, t, *, staleness):
        self.cumulative_ += staleness
        retrain = np.logical_not(self.cumulative_ < self.tau_cum)
        self.cumulative_[retrain] = 0.0
        return retrain

    @classmethod
    def calibration_grid(cls, c: CostMatrix) -> dict:
        rows = (c.staleness[i, i + 1 :] for i in range(c.n))
        return {"tau_cum": _sentinel_grid(np.concatenate([np.cumsum(row[np.isfinite(row)]) for row in rows]))}


class PeriodicPolicy(RetrainPolicy):
    """Retrain on a fixed schedule: whenever (t - offset) % period == 0."""

    name = "periodic"

    def __init__(self, period: int, offset: int = 0):
        self.period = as_count(period, "period", 1)
        self.offset = as_count(offset, "offset", 0)

    def decide(self, t):
        return (t - self.offset) % self.period == 0

    @classmethod
    def calibration_grid(cls, c: CostMatrix) -> dict:
        """Periods 1..max(1, c.end) (the absolute matrix end), largest
        first, each with every offset 0..period-1, smallest first."""
        periods = np.arange(max(1, c.end), 0, -1)
        return {"period": np.repeat(periods, periods), "offset": np.concatenate([np.arange(p) for p in periods])}


class NeverRetrainPolicy(RetrainPolicy):
    """Always keep the initial model."""

    name = "never"

    def decide(self, t):
        return False


class MarkovPolicy(RetrainPolicy):
    """Uncalibrated threshold rule: keep only while the current staleness is
    below the current retraining cost."""

    name = "markov"

    def decide(self, t, *, staleness, kappa):
        return not staleness < kappa


def _bits(errors) -> np.ndarray:
    """A batch of error bits as bools; refused whole unless it is a 1-D
    array of numbers, each 0 or 1."""
    bits = np.asarray(errors)
    if bits.ndim != 1 or bits.dtype.kind not in "biuf":
        raise InvalidInputError(
            f"error bits must be a 1-D array of numbers, got {bits.dtype} of shape {bits.shape}"
        )
    bad = (bits != 0) & (bits != 1)
    if bad.any():
        raise InvalidInputError(f"error bit must be 0 or 1, got {bits[bad][0].item()!r}")
    return bits == 1


class DriftDetectorPolicy(RetrainPolicy):
    """A per-sample drift detector, which is itself the per-batch policy.

    A subclass holds the detector's state, and ``reset()`` restarts it, so a
    reset policy equals a fresh one. ``decide`` checks every error bit of
    the batch (1 = misclassified) before the detector reads any, then hands
    the whole batch to the subclass's ``_detects``. A detection anywhere in
    the batch means Retrain, and the detector restarts from scratch after a
    retrain. Neither the queries nor the retraining cost influence the
    decision.
    """

    def decide(self, t, *, errors):
        if self._detects(_bits(errors)):
            self.reset()
            return True
        return False

    def _detects(self, bits: np.ndarray) -> bool:
        """True if the detector flags a drift among ``bits``, a batch of
        bools in stream order; without one, the state has taken in the whole
        batch."""
        raise NotImplementedError


class DdmPolicy(DriftDetectorPolicy):
    """Running error-rate monitor with a drift band.

    Tracks the error rate p and its standard error s = sqrt(p(1-p)/n) after
    every observation, remembering the smallest seen p + s. A drift is
    signaled when the current statistic reaches the recorded minimum plus
    ``drift_sigma`` standard errors. Statistics reset after a drift.

    No decision is made before ``min_samples`` observations, and a statistic
    that merely equals its recorded minimum (e.g. a constant error stream)
    never counts as drift.
    """

    name = "ddm"

    def __init__(self, min_samples: int = 30, drift_sigma: float = 3.0):
        self.min_samples = as_int(min_samples, "min_samples", 1)
        check_number(drift_sigma, "drift_sigma")
        self.drift_sigma = float(drift_sigma)
        if not self.drift_sigma > 0:
            raise InvalidInputError("drift_sigma must be > 0")
        self.reset()

    def reset(self) -> None:
        self.n_ = 0
        self.error_count_ = 0
        self.p_min_ = math.inf
        self.s_min_ = math.inf

    def _detects(self, bits) -> bool:
        for error in bits.tolist():
            self.n_ += 1
            self.error_count_ += error
            if self.n_ < self.min_samples:
                continue
            p = self.error_count_ / self.n_
            s = math.sqrt(p * (1.0 - p) / self.n_)
            if p + s < self.p_min_ + self.s_min_:
                self.p_min_ = p
                self.s_min_ = s
            level = p + s
            baseline = self.p_min_ + self.s_min_
            if level >= self.p_min_ + self.drift_sigma * self.s_min_ and level > baseline:
                return True
        return False


_CUT_TESTS = 1024  # ADWIN cut tests per block of its batch pass; bounds the work arrays


class AdwinPolicy(DriftDetectorPolicy):
    """Adaptive sliding window over the error stream.

    The window is kept as an exponential histogram: level i holds buckets of
    2^i observations, at most ``max_buckets`` per level; overflowing levels
    merge their two oldest buckets one level up. After every insertion, each
    admissible cut of the window into an old part (n0, mean mu0) and a recent
    part (n1, mean mu1) is tested against

        eps_cut = sqrt(ln(4 / delta') / (2 m)),   m = 1 / (1/n0 + 1/n1),

    with delta' = delta / window_length. A cut with |mu0 - mu1| >= eps_cut is
    a drift, and the policy retrains and restarts with an empty window.

    ``_detects`` runs all the cut tests of a batch as one exact array pass.
    Without a detection it leaves the histogram that inserting the bits one
    at a time, with their merges, would leave.
    """

    name = "adwin"

    def __init__(self, delta: float = 0.002, max_buckets: int = 5):
        check_number(delta, "delta")
        self.delta = float(delta)
        self.max_buckets = as_int(max_buckets, "max_buckets", 1)
        if not 0.0 < self.delta < 1.0:
            raise InvalidInputError("delta must be in (0, 1)")
        self.reset()

    def reset(self) -> None:
        self.rows_: list[list[float]] = [[]]  # per level, oldest bucket sum first
        self.width_ = 0
        self.total_ = 0.0

    def _detects(self, bits) -> bool:
        # Merges depend on bucket counts only, so a list loop first finds, for
        # each bucket, the step its end position stops being a cut boundary:
        # the step it is merged into its newer neighbour (``death``). The end
        # of the bucket of step k becomes a boundary at step k + 1. Every
        # (step, live boundary) cut test then runs in numpy, block by block,
        # with the operations of a scalar cut test in their order, on exact
        # integers in float64; eps_cut's log term is math.log's.
        steps = bits.size
        if steps == 0:
            return False
        rows = self.rows_
        width0 = self.width_
        # the batch-start buckets oldest first, then one level-0 bucket per step
        sizes = [1 << level for level in range(len(rows) - 1, -1, -1) for _ in rows[level]]
        n_old = len(sizes)
        end = np.concatenate((np.cumsum(sizes, dtype=np.float64), width0 + np.arange(1.0, steps + 1)))
        prefix = np.concatenate(
            (np.cumsum([s for row in reversed(rows) for s in row]), self.total_ + np.cumsum(bits, dtype=np.float64))
        )
        birth = np.concatenate((np.zeros(n_old, np.int64), np.arange(1, steps + 1)))
        death = np.full(n_old + steps, steps)
        levels, first = [], n_old
        for row in rows:
            first -= len(row)
            levels.append(list(range(first, first + len(row))))
        cap = self.max_buckets
        for k in range(steps):
            levels[0].append(n_old + k)
            level = 0
            while len(levels[level]) > cap:
                if level + 1 == len(levels):
                    levels.append([])
                death[levels[level].pop(0)] = k
                levels[level + 1].append(levels[level].pop(0))
                level += 1
        # A block of steps tests the boundaries live at any of its steps (at most
        # cap per level, plus one born per step) at every step of the block, so
        # at most 2 * _CUT_TESTS tests; those of a boundary not live at a step
        # are masked out.
        block = max(1, min(_CUT_TESTS // (cap * len(levels)), math.isqrt(_CUT_TESTS)))
        width, total = end[n_old:], prefix[n_old:]
        log_term = np.fromiter(
            (math.log(4.0 / (self.delta / w)) for w in range(width0 + 1, width0 + steps + 1)), np.float64, steps
        )
        for k0 in range(0, steps, block):
            k1 = min(k0 + block, steps)
            # born before the block's last step, not dead by its first
            cut = np.flatnonzero(death[: n_old + k1 - 1] > k0)[:, None]
            k = np.arange(k0, k1)
            live = (birth[cut] <= k) & (k < death[cut])
            n0 = end[cut]
            sum0 = prefix[cut]
            # below 1 only where the boundary is not born yet
            n1 = np.maximum(width[k0:k1] - n0, 1.0)
            mu0 = sum0 / n0
            mu1 = (total[k0:k1] - sum0) / n1
            m = 1.0 / (1.0 / n0 + 1.0 / n1)
            eps_cut = np.sqrt(log_term[k0:k1] / (2.0 * m))
            if (live & (np.abs(mu0 - mu1) >= eps_cut)).any():
                return True
        # no detection: each surviving bucket sums the bits since its older neighbour's end
        sums = iter(np.diff(prefix[[i for level in reversed(levels) for i in level]], prepend=0.0).tolist())
        self.rows_ = [list(itertools.islice(sums, len(level))) for level in reversed(levels)][::-1]
        self.width_ = width0 + steps
        self.total_ = float(prefix[-1])
        return False


POLICY_KINDS = {
    cls.name: cls
    for cls in (
        ThresholdPolicy,
        CumulativeThresholdPolicy,
        PeriodicPolicy,
        NeverRetrainPolicy,
        MarkovPolicy,
        AdwinPolicy,
        DdmPolicy,
    )
}


def make_policy(name: str, **params) -> RetrainPolicy:
    return as_kind(name, POLICY_KINDS, "policy")(**params)


CALIBRATABLE = {name: cls for name, cls in POLICY_KINDS.items() if hasattr(cls, "calibration_grid")}


def replay_policy(policy: RetrainPolicy, c: CostMatrix, errors=None) -> Strategy:
    """Run the decision loop against a prebuilt cost matrix.

    The matrix rows supply every staleness value the policy can ask for, so
    no model is fit for them. A policy whose ``decide`` takes ``errors`` (a
    drift detector) reads per-sample errors from ``errors(t_model, t_data)``
    and cannot be replayed without it.
    """
    if "errors" in decide_inputs(policy) and errors is None:
        raise InvalidInputError(
            f"policy {policy.name!r} consumes per-sample errors and cannot be "
            "replayed from a cost matrix alone"
        )
    return Strategy(c.start, c.end, c.start + _serving_rows(policy, c, (), errors))


def _serving_rows(policy: RetrainPolicy, c: CostMatrix, shape: tuple, errors=None) -> np.ndarray:
    """The decision loop: the range-relative training batch of the model
    serving each batch of ``c``, shape (n, *shape) for a policy whose
    parameters are arrays of ``shape`` (() for a single policy). Each step
    passes ``decide`` exactly the inputs ``decide_inputs`` names, read once
    per call."""
    reads = decide_inputs(policy)
    policy.reset()
    rel = np.zeros(shape, dtype=np.int64)
    served = np.empty((c.n, *shape), dtype=np.int64)
    for j in range(c.n):
        inputs = {}
        if "kappa" in reads:
            inputs["kappa"] = float(c.kappa[j])
        if "staleness" in reads:
            inputs["staleness"] = c.staleness[rel, j]
        if "errors" in reads:
            inputs["errors"] = errors(c.start + int(rel), c.start + j)
        rel[policy.decide(c.start + j, **inputs)] = j
        served[j] = rel
    return served


_BLOCK = 256  # candidates per pass; bounds the (n, block) work arrays


def _candidate_costs(cls: type, params: dict, c: CostMatrix) -> np.ndarray:
    """Cost over ``c`` of each candidate ``cls(**params)`` holds (one per
    index of the equal-length arrays in ``params``), equal to
    ``strategy_cost`` of its replay exactly: each serving row is summed
    along a C-contiguous row, as ``strategy_cost``'s ``np.sum`` does."""
    size = len(next(iter(params.values())))
    costs = np.empty(size)
    for lo in range(0, size, _BLOCK):
        hi = min(lo + _BLOCK, size)
        served = _serving_rows(cls(**{name: values[lo:hi] for name, values in params.items()}), c, (hi - lo,))
        costs[lo:hi] = np.ascontiguousarray(_cost_terms(c, served.T)).sum(axis=1)
    return costs


def _sentinel_grid(values: np.ndarray) -> np.ndarray:
    """The distinct finite values, largest first, between +inf and -inf."""
    return np.concatenate(([math.inf], np.unique(values[np.isfinite(values)])[::-1], [-math.inf]))


def optimize_offline(family: str, c: CostMatrix) -> RetrainPolicy:
    """Pick the policy parameters that minimize the strategy cost over the
    offline matrix.

    ``family`` is one of ``CALIBRATABLE``: 'threshold', 'cumulative' or
    'periodic'. The search is exhaustive over the family's
    ``calibration_grid`` and the first candidate of least cost wins, so
    ties go to the grid order.

    Threshold candidates are the realized staleness values (cumulative sums
    for the cumulative family) between the +inf and -inf sentinels, largest
    first. Past the first batch, whose decision changes nothing, a replay
    compares the threshold only against candidates or against values that
    take the same branch for every finite threshold, so a threshold strictly
    between two adjacent candidates replays like the larger one and the
    grid is exhaustive. The sentinels keep the result no worse than never
    retraining or retraining every batch, and since ties prefer the largest
    threshold, +inf wins whenever never retraining is already
    offline-optimal: a policy calibrated under a huge retraining cost stays
    retrain-free online instead of inheriting a knife-edge finite threshold.
    Periodic ties prefer the largest period, then the smallest offset.
    """
    cls = as_kind(family, CALIBRATABLE, "optimizable family")
    grid = cls.calibration_grid(c)
    best = int(np.argmin(_candidate_costs(cls, grid, c)))
    return cls(**{name: values[best] for name, values in grid.items()})
