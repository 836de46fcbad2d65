import math

import numpy as np
import pytest
from helpers import ReferenceAdwinDetector
from hypothesis import given, settings, strategies as st

from retrainer import AdwinDetector, DdmDetector, InvalidInputError


def first_detection(detector, bits):
    for i, bit in enumerate(bits):
        if detector.update(bit):
            return i
    return None


class TestDdm:
    def test_constant_zero_never_drifts(self):
        assert first_detection(DdmDetector(), [0] * 10_000) is None

    def test_constant_one_never_drifts(self):
        assert first_detection(DdmDetector(), [1] * 10_000) is None

    def test_error_rate_jump_detected_in_high_segment(self):
        rng = np.random.default_rng(42)
        bits = [int(rng.random() < (0.1 if i < 500 else 0.9)) for i in range(1000)]
        hit = first_detection(DdmDetector(), bits)
        assert hit is not None and 500 <= hit < 700

    def test_detection_index_matches_naive_statistic_trajectory(self):
        # independent oracle: recompute the running statistics directly
        rng = np.random.default_rng(7)
        bits = [int(rng.random() < (0.1 if i < 500 else 0.9)) for i in range(1000)]
        n = errors = 0
        p_min = s_min = math.inf
        expected = None
        for i, bit in enumerate(bits):
            n += 1
            errors += bit
            if n < 30:
                continue
            p = errors / n
            s = math.sqrt(p * (1 - p) / n)
            if p + s < p_min + s_min:
                p_min, s_min = p, s
            if p + s >= p_min + 3 * s_min and p + s > p_min + s_min:
                expected = i
                break
        assert expected is not None
        assert first_detection(DdmDetector(), bits) == expected

    def test_no_detection_before_min_samples(self):
        bits = [0] * 100 + [1] * 10
        # gate longer than the stream: never fires
        assert first_detection(DdmDetector(min_samples=200), bits) is None
        # gate passed long before the jump: fires at the first error
        assert first_detection(DdmDetector(min_samples=30), bits) == 100

    def test_statistics_reset_after_drift(self):
        rng = np.random.default_rng(11)
        det = DdmDetector()
        bits = [int(rng.random() < (0.1 if i < 500 else 0.9)) for i in range(1000)]
        hit = first_detection(det, bits)
        assert hit is not None
        assert det.n_ == 0 and det.p_min_ == math.inf

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidInputError):
            DdmDetector().update(2)

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            DdmDetector(min_samples=0)
        with pytest.raises(InvalidInputError):
            DdmDetector(drift_sigma=0)


class TestAdwin:
    def test_constant_streams_never_drift(self):
        for bit in (0, 1):
            assert first_detection(AdwinDetector(), [bit] * 10_000) is None

    def test_alternating_stationary_stream_never_drifts(self):
        bits = [i % 2 for i in range(10_000)]
        assert first_detection(AdwinDetector(delta=0.002), bits) is None

    def test_mean_shift_detected_and_window_shrinks(self):
        det = AdwinDetector(delta=0.002)
        bits = [0] * 1000 + [1] * 1000
        hit = first_detection(det, bits)
        assert hit is not None and 1000 <= hit < 1200
        # the drift dropped the stale history: window now far below its
        # pre-detection length
        assert det.width_ < (hit + 1) // 2

    def test_detection_point_crosses_the_stated_bound(self):
        # derived check: at the detection step, some old/new split of the
        # observed prefix must violate the cut inequality
        det = AdwinDetector(delta=0.002)
        bits = [0] * 1000 + [1] * 1000
        hit = first_detection(det, bits)
        assert hit is not None
        prefix = bits[: hit + 1]
        width = len(prefix)
        found = False
        for cut in range(1, width):
            n0, n1 = cut, width - cut
            mu0 = sum(prefix[:cut]) / n0
            mu1 = sum(prefix[cut:]) / n1
            m = 1.0 / (1.0 / n0 + 1.0 / n1)
            eps = math.sqrt(math.log(4.0 * width / 0.002) / (2.0 * m))
            if abs(mu0 - mu1) >= eps:
                found = True
                break
        assert found

    def test_window_tracks_inserted_count_without_drift(self):
        det = AdwinDetector()
        for i in range(257):
            det.update(0)
        assert det.width_ == 257
        assert det.mean_ == 0.0

    def test_reset_clears_window(self):
        det = AdwinDetector()
        for i in range(100):
            det.update(i % 2)
        det.reset()
        assert det.width_ == 0 and det.total_ == 0.0

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidInputError):
            AdwinDetector().update(-1)

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            AdwinDetector(delta=0.0)
        with pytest.raises(InvalidInputError):
            AdwinDetector(delta=1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(1, 3000),
        rates=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        delta=st.sampled_from([1e-4, 0.002, 0.05, 0.5, 0.99]),
        max_buckets=st.integers(1, 7),
    )
    def test_scan_matches_reference_generator_scan(self, seed, n, rates, delta, max_buckets):
        # piecewise-constant error rates, so some examples drift and some do not
        rng = np.random.default_rng(seed)
        segment = -(-n // len(rates))
        bits = [int(rng.random() < rates[i // segment]) for i in range(n)]
        det, ref = AdwinDetector(delta, max_buckets), ReferenceAdwinDetector(delta, max_buckets)
        for bit in bits:
            assert det.update(bit) == ref.update(bit)
            assert det.rows_ == ref.rows_
            assert (det.width_, det.total_) == (ref.width_, ref.total_)
