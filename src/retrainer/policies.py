"""Online retraining policies and their offline calibration.

A policy looks at one batch at a time and answers Keep or Retrain. The one
decision loop (``replay_policy``) starts from the model trained at the range
start, then per batch feeds each policy the inputs it declares:

* ``requires_staleness`` -- the relative staleness of the current model,
  read from the cost matrix (threshold, cumulative and markov policies);
* ``requires_errors`` -- the model's per-sample 0/1 errors on the current
  data batch, in stream order, from an ``errors(t_model, t_data)`` source
  (drift detector policies);
* ``requires_kappa`` -- the retraining cost of the current batch, read from
  the matrix diagonal (the markov policy). A policy without it gets no
  ``kappa`` and so replays to the same strategy under every retraining cost.

An online run is a replay on the online cost matrix, with
``StreamCosts.errors`` as the detectors' error source; the matrix and the
error vectors both come from the same ``StreamCosts`` cache.

Policies that keep mutable state reset it when they decide to retrain, so a
single instance can be reused across runs via ``reset()``.

``optimize_offline`` calibrates the threshold, cumulative and periodic
families against a prebuilt cost matrix, never refitting a model: one pass
over the matrix columns evaluates a block of candidates together, holding
each one's serving row (and accumulator) in numpy vectors and making
``decide``'s comparisons, so each cost equals ``strategy_cost`` of the
replayed strategy exactly. Candidate thresholds are the realized staleness
values (cumulative sums for the cumulative family) with -inf/+inf sentinels.
The sentinels guarantee the result is never worse than never-retraining or
retrain-every-batch where the family can express them, and equal-cost ties
prefer the largest (most conservative) threshold.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .costmatrix import CostMatrix, Strategy
from .detectors import AdwinDetector, DdmDetector
from .errors import InvalidInputError


class Decision(enum.Enum):
    KEEP = "keep"
    RETRAIN = "retrain"


class RetrainPolicy:
    """Base decision function; subclasses override ``decide``."""

    name = "base"
    requires_staleness = False
    requires_errors = False
    requires_kappa = False

    def reset(self) -> None:
        """Clear any per-run mutable state."""

    def decide(self, t: int, t_prime: int, *, staleness=None, errors=None, kappa=None) -> Decision:
        raise NotImplementedError

    def get_params(self) -> dict:
        return {}

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


class ThresholdPolicy(RetrainPolicy):
    """Retrain as soon as the current staleness reaches ``tau``.

    Keep requires strictly smaller staleness, so a value exactly at the
    threshold retrains; tau = +inf never retrains and tau = -inf always
    does.
    """

    name = "threshold"
    requires_staleness = True

    def __init__(self, tau: float):
        self.tau = float(tau)

    def decide(self, t, t_prime, *, staleness=None, errors=None, kappa=None) -> Decision:
        return Decision.KEEP if staleness < self.tau else Decision.RETRAIN

    def get_params(self):
        return {"tau": self.tau}


class CumulativeThresholdPolicy(RetrainPolicy):
    """Retrain when staleness accumulated since the last training reaches
    ``tau_cum``; the accumulator resets to zero on retrain."""

    name = "cumulative"
    requires_staleness = True

    def __init__(self, tau_cum: float):
        self.tau_cum = float(tau_cum)
        self.cumulative_ = 0.0

    def reset(self):
        self.cumulative_ = 0.0

    def decide(self, t, t_prime, *, staleness=None, errors=None, kappa=None) -> Decision:
        self.cumulative_ += staleness
        if self.cumulative_ < self.tau_cum:
            return Decision.KEEP
        self.cumulative_ = 0.0
        return Decision.RETRAIN

    def get_params(self):
        return {"tau_cum": self.tau_cum}


class PeriodicPolicy(RetrainPolicy):
    """Retrain on a fixed schedule: whenever (t - offset) % period == 0."""

    name = "periodic"

    def __init__(self, period: int, offset: int = 0):
        if period < 1:
            raise InvalidInputError("period must be >= 1")
        if offset < 0:
            raise InvalidInputError("offset must be >= 0")
        self.period = int(period)
        self.offset = int(offset)

    def decide(self, t, t_prime, *, staleness=None, errors=None, kappa=None) -> Decision:
        return Decision.RETRAIN if (t - self.offset) % self.period == 0 else Decision.KEEP

    def get_params(self):
        return {"period": self.period, "offset": self.offset}


class NeverRetrainPolicy(RetrainPolicy):
    """Always keep the initial model."""

    name = "never"

    def decide(self, t, t_prime, *, staleness=None, errors=None, kappa=None) -> Decision:
        return Decision.KEEP


class MarkovPolicy(RetrainPolicy):
    """Uncalibrated threshold rule: keep only while the current staleness is
    below the current retraining cost."""

    name = "markov"
    requires_staleness = True
    requires_kappa = True

    def decide(self, t, t_prime, *, staleness=None, errors=None, kappa=None) -> Decision:
        return Decision.KEEP if staleness < kappa else Decision.RETRAIN


class DriftDetectorPolicy(RetrainPolicy):
    """Adapter from a per-sample drift detector to a per-batch decision.

    Error bits are fed in stream order; any detection inside the batch means
    Retrain, and the detector restarts from scratch after a retrain. Neither
    the queries nor the retraining cost influence the decision. Subclasses
    build ``detector_`` in ``__init__``; a reset detector equals a fresh one.
    """

    requires_errors = True

    def reset(self):
        self.detector_.reset()

    def decide(self, t, t_prime, *, staleness=None, errors=None, kappa=None) -> Decision:
        drifted = False
        for bit in errors:
            if self.detector_.update(int(bit)):
                drifted = True
                break
        if drifted:
            self.reset()
            return Decision.RETRAIN
        return Decision.KEEP


class DdmPolicy(DriftDetectorPolicy):
    name = "ddm"

    def __init__(self, min_samples: int = 30, drift_sigma: float = 3.0):
        self.min_samples = int(min_samples)
        self.drift_sigma = float(drift_sigma)
        self.detector_ = DdmDetector(self.min_samples, self.drift_sigma)

    def get_params(self):
        return {"min_samples": self.min_samples, "drift_sigma": self.drift_sigma}


class AdwinPolicy(DriftDetectorPolicy):
    name = "adwin"

    def __init__(self, delta: float = 0.002, max_buckets: int = 5):
        self.delta = float(delta)
        self.max_buckets = int(max_buckets)
        self.detector_ = AdwinDetector(self.delta, self.max_buckets)

    def get_params(self):
        return {"delta": self.delta, "max_buckets": self.max_buckets}


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
    try:
        cls = POLICY_KINDS[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown policy {name!r}; expected one of {sorted(POLICY_KINDS)}"
        ) from None
    return cls(**params)


def replay_policy(policy: RetrainPolicy, c: CostMatrix, errors=None) -> Strategy:
    """Run the decision loop against a prebuilt cost matrix.

    The matrix rows supply every staleness value the policy can ask for, so
    no model is fit for them. Detector policies read per-sample errors from
    ``errors(t_model, t_data)`` and cannot be replayed without it. Only a
    policy that declares ``requires_kappa`` is passed ``kappa``, so one that
    reads it without declaring it fails here instead of being replayed once
    for every retraining cost by ``run_sweep``.
    """
    if policy.requires_errors and errors is None:
        raise InvalidInputError(
            f"policy {policy.name!r} consumes per-sample errors and cannot be "
            "replayed from a cost matrix alone"
        )
    psi = c.staleness_entries()
    policy.reset()
    rel_prime = 0
    served = np.empty(c.n, dtype=np.int64)
    for j in range(c.n):
        t, t_prime = c.start + j, c.start + rel_prime
        inputs = {}
        if policy.requires_kappa:
            inputs["kappa"] = float(c.kappa[j])
        if policy.requires_staleness:
            inputs["staleness"] = float(psi[rel_prime, j])
        if policy.requires_errors:
            inputs["errors"] = errors(t_prime, t)
        if policy.decide(t, t_prime, **inputs) is Decision.RETRAIN:
            rel_prime = j
        served[j] = c.start + rel_prime
    return Strategy(c.start, c.end, served)


_BLOCK = 256  # candidates per pass; bounds the (block, n) work arrays


def _candidate_costs(family: str, params: np.ndarray, c: CostMatrix) -> list[float]:
    """Cost over ``c`` of each candidate of ``family`` (a threshold, or a
    (period, offset) row), equal to ``strategy_cost`` of its replay exactly."""
    psi = c.staleness_entries()
    costs: list[float] = []
    for lo in range(0, len(params), _BLOCK):
        p = params[lo : lo + _BLOCK]
        rel, acc = np.zeros(len(p), dtype=np.int64), np.zeros(len(p))
        terms = np.empty((len(p), c.n))
        for j in range(c.n):
            if family == "threshold":
                retrain = ~(psi[rel, j] < p)
            elif family == "cumulative":
                acc += psi[rel, j]
                retrain = ~(acc < p)
                acc[retrain] = 0.0
            else:
                retrain = (c.start + j - p[:, 1]) % p[:, 0] == 0
            rel[retrain] = j
            terms[:, j] = c.entries[rel, j]
        costs.extend(terms.sum(axis=1).tolist())
    return costs


def _threshold_candidates(values: np.ndarray) -> np.ndarray:
    finite = np.unique(values[np.isfinite(values)])
    return np.concatenate(([-math.inf], finite, [math.inf]))


def _search_threshold(family: str, candidates: np.ndarray, c: CostMatrix) -> float:
    """Grid search over the candidates; ties resolve to the largest threshold.

    Past the first batch, whose decision changes nothing, a replay compares
    the threshold only against candidates or against values that take the
    same branch for every finite threshold. So a threshold strictly between
    two adjacent candidates replays like the larger one, and the grid is
    exhaustive. Preferring the largest tied threshold means the
    +inf sentinel wins whenever never retraining is already offline-optimal,
    so policies calibrated under a huge retraining cost stay retrain-free
    online instead of inheriting a knife-edge finite threshold.
    """
    costs = _candidate_costs(family, candidates, c)
    best_tau, _ = min(zip(candidates.tolist(), costs), key=lambda item: (item[1], -item[0]))
    return best_tau


def optimize_offline(family: str, c: CostMatrix) -> RetrainPolicy:
    """Pick the policy parameters that minimize the strategy cost over the
    offline matrix.

    ``family`` is 'threshold', 'cumulative' or 'periodic'. A matrix whose
    staleness entries are all zero short-circuits the threshold families to
    +inf (never retrain). The periodic search is exhaustive over periods
    1..max(1, c.end) (the absolute matrix end) with every offset
    0..period-1; its ties prefer the largest period, then the smallest
    offset.
    """
    psi = c.staleness_entries()
    if family in ("threshold", "cumulative"):
        make = ThresholdPolicy if family == "threshold" else CumulativeThresholdPolicy
        values = psi[np.triu_indices(c.n, k=1)]
        if not np.any(values != 0.0):
            return make(math.inf)
        if family == "cumulative":
            rows = (psi[i, i + 1 :] for i in range(c.n - 1))
            values = np.concatenate([np.cumsum(row[np.isfinite(row)]) for row in rows])
        return make(_search_threshold(family, _threshold_candidates(values), c))

    if family == "periodic":
        pairs = [(p, offset) for p in range(1, max(1, c.end) + 1) for offset in range(p)]
        costs = _candidate_costs(family, np.array(pairs), c)
        _, (period, offset) = min(zip(costs, pairs), key=lambda it: (it[0], -it[1][0], it[1][1]))
        return PeriodicPolicy(period, offset)

    raise InvalidInputError(
        f"unknown optimizable family {family!r}; expected 'threshold', 'cumulative' or 'periodic'"
    )
