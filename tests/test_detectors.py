import math
import tracemalloc

import numpy as np
import pytest
from helpers import ReferenceAdwinDetector
from hypothesis import example, given, settings, strategies as st

from retrainer import AdwinPolicy, DdmPolicy, InvalidInputError
from retrainer.policies import DriftDetectorPolicy

NON_BINARY = (2, -1, 0.5, 1.9, math.nan, "1", None)


def first_detection(detector, bits):
    for i, bit in enumerate(bits):
        if detector.update(bit):
            return i
    return None


class TestDdm:
    def test_constant_zero_never_drifts(self):
        assert first_detection(DdmPolicy(), [0] * 10_000) is None

    def test_constant_one_never_drifts(self):
        assert first_detection(DdmPolicy(), [1] * 10_000) is None

    def test_error_rate_jump_detected_in_high_segment(self):
        rng = np.random.default_rng(42)
        bits = [int(rng.random() < (0.1 if i < 500 else 0.9)) for i in range(1000)]
        hit = first_detection(DdmPolicy(), bits)
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
        assert first_detection(DdmPolicy(), bits) == expected

    def test_no_detection_before_min_samples(self):
        bits = [0] * 100 + [1] * 10
        # gate longer than the stream: never fires
        assert first_detection(DdmPolicy(min_samples=200), bits) is None
        # gate passed long before the jump: fires at the first error
        assert first_detection(DdmPolicy(min_samples=30), bits) == 100

    def test_statistics_reset_after_drift(self):
        rng = np.random.default_rng(11)
        det = DdmPolicy()
        bits = [int(rng.random() < (0.1 if i < 500 else 0.9)) for i in range(1000)]
        hit = first_detection(det, bits)
        assert hit is not None
        assert det.n_ == 0 and det.p_min_ == math.inf

    def test_rejects_non_binary(self):
        for bad in NON_BINARY:
            with pytest.raises(InvalidInputError):
                DdmPolicy().update(bad)
            with pytest.raises(InvalidInputError):
                DdmPolicy().decide(0, errors=[0, 1, bad])

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            DdmPolicy(min_samples=0)
        with pytest.raises(InvalidInputError):
            DdmPolicy(drift_sigma=0)
        with pytest.raises(InvalidInputError):
            DdmPolicy(drift_sigma=math.nan)
        for min_samples in (2.7, 30.0, True, "30"):
            with pytest.raises(InvalidInputError, match="min_samples must be an integer"):
                DdmPolicy(min_samples=min_samples)
        assert DdmPolicy(min_samples=np.int64(10)).get_params() == {"min_samples": 10, "drift_sigma": 3.0}


class TestAdwin:
    def test_constant_streams_never_drift(self):
        for bit in (0, 1):
            assert first_detection(AdwinPolicy(), [bit] * 10_000) is None

    def test_alternating_stationary_stream_never_drifts(self):
        bits = [i % 2 for i in range(10_000)]
        assert first_detection(AdwinPolicy(delta=0.002), bits) is None

    def test_mean_shift_detected_and_window_shrinks(self):
        det = AdwinPolicy(delta=0.002)
        bits = [0] * 1000 + [1] * 1000
        hit = first_detection(det, bits)
        assert hit is not None and 1000 <= hit < 1200
        # the drift dropped the stale history: window now far below its
        # pre-detection length
        assert det.width_ < (hit + 1) // 2

    def test_detection_point_crosses_the_stated_bound(self):
        # derived check: at the detection step, some old/new split of the
        # observed prefix must violate the cut inequality
        det = AdwinPolicy(delta=0.002)
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
        det = AdwinPolicy()
        for i in range(257):
            det.update(0)
        assert det.width_ == 257
        assert det.mean_ == 0.0

    def test_reset_clears_window(self):
        det = AdwinPolicy()
        for i in range(100):
            det.update(i % 2)
        det.reset()
        assert det.width_ == 0 and det.total_ == 0.0

    def test_rejects_non_binary(self):
        for bad in NON_BINARY:
            with pytest.raises(InvalidInputError):
                AdwinPolicy().update(bad)
            for errors in ([0, 1, bad], np.array([0, 1, bad])):
                with pytest.raises(InvalidInputError):
                    AdwinPolicy().decide(0, errors=errors)

    def test_batch_is_checked_before_any_bit_is_read(self):
        # the bad bit follows a detection, which the per-bit loop stops at
        det = AdwinPolicy()
        det.decide(0, errors=[0] * 100)
        with pytest.raises(InvalidInputError, match="got 0.5"):
            det.decide(1, errors=[0] * 1000 + [1] * 1000 + [0.5])
        assert (det.width_, det.total_) == (100, 0.0)

    def test_decide_is_the_base_class_entry_point(self):
        # the benchmark's tracer times every detector's batches by wrapping
        # DriftDetectorPolicy.decide; the batch pass hooks in below it
        assert AdwinPolicy.decide is DdmPolicy.decide is DriftDetectorPolicy.decide

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        sizes=st.lists(st.sampled_from([0, 1, 2, 7, 64, 333, 1000]), min_size=1, max_size=6),
        rates=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        delta=st.sampled_from([1e-4, 0.002, 0.05, 0.5, 0.99]),
        max_buckets=st.integers(1, 7),
        dtype=st.sampled_from([bool, int, float]),
        as_list=st.booleans(),
    )
    # in these, testing a boundary also on the step it is merged away would
    # change a decision
    @example(seed=7, sizes=[64] * 3, rates=[0.3, 0.7], delta=0.99, max_buckets=2, dtype=bool, as_list=False)
    @example(seed=196, sizes=[64] * 3, rates=[0.3, 0.7], delta=0.99, max_buckets=1, dtype=int, as_list=True)
    def test_decide_matches_per_bit_updates(self, seed, sizes, rates, delta, max_buckets, dtype, as_list):
        # one detector per side over several batches, so the window carries
        # over; the per-bit side stops at a detection and restarts
        rng = np.random.default_rng(seed)
        det, ref = AdwinPolicy(delta, max_buckets), AdwinPolicy(delta, max_buckets)
        for t, size in enumerate(sizes):
            bits = (rng.random(size) < rates[t % len(rates)]).astype(dtype)
            detected = False
            for bit in bits:
                if ref.update(bit):
                    ref.reset()
                    detected = True
                    break
            assert det.decide(t, errors=bits.tolist() if as_list else bits) == detected
            assert det.rows_ == ref.rows_
            assert (det.width_, det.total_) == (ref.width_, ref.total_)

    def test_decide_memory_stays_small(self):
        # a 1000-bit batch on a 20k-bit window makes about 60k cut tests;
        # the pass holds one block of them at a time
        rng = np.random.default_rng(3)
        det = AdwinPolicy()
        for t in range(20):
            assert not det.decide(t, errors=rng.random(1000) < 0.3)
        bits = rng.random(1000) < 0.3
        tracemalloc.start()
        try:
            detected = det.decide(20, errors=bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not detected and det.width_ == 21_000
        assert peak < 512 * 1024

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            AdwinPolicy(delta=0.0)
        with pytest.raises(InvalidInputError):
            AdwinPolicy(delta=1.0)
        with pytest.raises(InvalidInputError):
            AdwinPolicy(max_buckets=0)
        for max_buckets in (2.5, 5.0, False):
            with pytest.raises(InvalidInputError, match="max_buckets must be an integer"):
                AdwinPolicy(max_buckets=max_buckets)

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
        det, ref = AdwinPolicy(delta, max_buckets), ReferenceAdwinDetector(delta, max_buckets)
        for bit in bits:
            assert det.update(bit) == ref.update(bit)
            assert det.rows_ == ref.rows_
            assert (det.width_, det.total_) == (ref.width_, ref.total_)
