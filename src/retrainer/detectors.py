"""Error-rate drift detectors consumed one prediction outcome at a time.

Both detectors see a stream of 0/1 error bits (1 = misclassified) and answer
"did the error distribution just change?". They know nothing about queries
or retraining costs.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError


class DdmDetector:
    """Running error-rate monitor with a drift band.

    Tracks the error rate p and its standard error s = sqrt(p(1-p)/n) after
    every observation, remembering the smallest seen p + s. A drift is
    signaled when the current statistic reaches the recorded minimum plus
    ``drift_sigma`` standard errors. Statistics reset after a drift.

    No decision is made before ``min_samples`` observations, and a statistic
    that merely equals its recorded minimum (e.g. a constant error stream)
    never counts as drift.
    """

    def __init__(self, min_samples: int = 30, drift_sigma: float = 3.0):
        if min_samples < 1:
            raise InvalidInputError("min_samples must be >= 1")
        if not drift_sigma > 0:
            raise InvalidInputError("drift_sigma must be > 0")
        self.min_samples = min_samples
        self.drift_sigma = drift_sigma
        self.reset()

    def reset(self) -> None:
        self.n_ = 0
        self.error_count_ = 0
        self.p_min_ = math.inf
        self.s_min_ = math.inf

    def update(self, error: int) -> bool:
        """Consume one error bit; True when a drift is detected."""
        error = int(error)
        if error not in (0, 1):
            raise InvalidInputError(f"error bit must be 0 or 1, got {error}")
        self.n_ += 1
        self.error_count_ += error
        if self.n_ < self.min_samples:
            return False
        p = self.error_count_ / self.n_
        s = math.sqrt(p * (1.0 - p) / self.n_)
        if p + s < self.p_min_ + self.s_min_:
            self.p_min_ = p
            self.s_min_ = s
        level = p + s
        baseline = self.p_min_ + self.s_min_
        if level >= self.p_min_ + self.drift_sigma * self.s_min_ and level > baseline:
            self.reset()
            return True
        return False


class AdwinDetector:
    """Adaptive sliding window over the error stream.

    The window is kept as an exponential histogram: level i holds buckets of
    2^i observations, at most ``max_buckets`` per level; overflowing levels
    merge their two oldest buckets one level up. After every insertion, each
    admissible cut of the window into an old part (n0, mean mu0) and a recent
    part (n1, mean mu1) is tested against

        eps_cut = sqrt(ln(4 / delta') / (2 m)),   m = 1 / (1/n0 + 1/n1),

    with delta' = delta / window_length. A cut with |mu0 - mu1| >= eps_cut is
    a drift: the oldest bucket is dropped and the scan repeats until the
    window is consistent again.
    """

    def __init__(self, delta: float = 0.002, max_buckets: int = 5):
        if not 0.0 < delta < 1.0:
            raise InvalidInputError("delta must be in (0, 1)")
        if max_buckets < 1:
            raise InvalidInputError("max_buckets must be >= 1")
        self.delta = delta
        self.max_buckets = max_buckets
        self.reset()

    def reset(self) -> None:
        self.rows_: list[list[float]] = [[]]  # per level, oldest bucket sum first
        self.width_ = 0
        self.total_ = 0.0

    @property
    def mean_(self) -> float:
        return self.total_ / self.width_ if self.width_ else 0.0

    def update(self, error: int) -> bool:
        """Consume one error bit; True when the window shrank (drift)."""
        error = int(error)
        if error not in (0, 1):
            raise InvalidInputError(f"error bit must be 0 or 1, got {error}")
        self._insert(float(error))
        return self._shrink()

    def _insert(self, value: float) -> None:
        self.rows_[0].append(value)
        self.width_ += 1
        self.total_ += value
        level = 0
        while len(self.rows_[level]) > self.max_buckets:
            if level + 1 == len(self.rows_):
                self.rows_.append([])
            merged = self.rows_[level].pop(0) + self.rows_[level].pop(0)
            # the merged pair is newer than everything already at level+1
            self.rows_[level + 1].append(merged)
            level += 1

    def _drop_oldest(self) -> None:
        level = len(self.rows_) - 1
        while not self.rows_[level]:
            level -= 1
        dropped = self.rows_[level].pop(0)
        self.width_ -= 1 << level
        self.total_ -= dropped
        while len(self.rows_) > 1 and not self.rows_[-1]:
            self.rows_.pop()

    def _shrink(self) -> bool:
        shrunk = False
        while self.width_ >= 2:
            if not self._cut_once():
                break
            shrunk = True
        return shrunk

    def _cut_once(self) -> bool:
        # Scans buckets oldest first: the highest level, each level oldest bucket first.
        width = self.width_
        total = self.total_
        rows = self.rows_
        delta_prime = self.delta / width
        log_term = math.log(4.0 / delta_prime)
        n0 = 0.0
        sum0 = 0.0
        for level in range(len(rows) - 1, -1, -1):
            size = float(1 << level)
            for s in rows[level]:
                n0 += size
                sum0 += s
                n1 = width - n0
                if n1 <= 0:
                    return False
                mu0 = sum0 / n0
                mu1 = (total - sum0) / n1
                m = 1.0 / (1.0 / n0 + 1.0 / n1)
                eps_cut = math.sqrt(log_term / (2.0 * m))
                if abs(mu0 - mu1) >= eps_cut:
                    self._drop_oldest()
                    return True
        return False
