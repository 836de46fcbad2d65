import numpy as np
import pytest

from retrainer import InvalidInputError, StreamSpec, generate_stream
from retrainer.datagen import (
    CIRCLE_SCHEDULE,
    STATIC_QUERY_SIGMA,
    circle_concept,
    concept_label,
    covcon_flipped,
    covcon_mean,
    gauss_center,
    gen_batch,
    make_queries,
)


def spec_for(dataset, **kw):
    defaults = dict(n_batches=20, batch_size=50, queries_per_batch=5, seed=0)
    defaults.update(kw)
    return StreamSpec(dataset=dataset, **defaults)


class TestGauss:
    def test_center_formula(self):
        assert gauss_center(14) == (0.0, 0.5)
        assert gauss_center(0) == pytest.approx((1 / 30, 0.5 - 1 / 30))

    def test_centers_recur_with_period_15(self):
        for t in range(40):
            assert gauss_center(t) == gauss_center(t + 15)

    def test_parabola_label_boundary(self):
        spec = spec_for("gauss")
        assert concept_label(spec, [[0.5, 0.1]], 0)[0] == 1
        assert concept_label(spec, [[0.5, -0.1]], 0)[0] == 0
        assert concept_label(spec, [[1.0, 0.9]], 0)[0] == 0  # 0.9 < 4*0.25

    def test_points_cluster_near_center(self):
        spec = spec_for("gauss", batch_size=2000)
        batch = gen_batch(spec, 3)
        assert np.allclose(batch.X.mean(axis=0), gauss_center(3), atol=0.02)
        assert np.allclose(batch.X.std(axis=0), 0.1, rtol=0.2)


class TestCircle:
    def test_inside_circle_is_zero(self):
        spec = spec_for("circle")
        c1, c2, r = CIRCLE_SCHEDULE[0]
        assert concept_label(spec, [[c1, c2]], 0)[0] == 0
        assert concept_label(spec, [[c1 + 0.99 * r, c2]], 0)[0] == 0
        assert concept_label(spec, [[c1 + 1.01 * r, c2]], 0)[0] == 1

    def test_far_corner_is_one_under_all_default_concepts(self):
        spec = spec_for("circle", n_batches=100)
        for t in (0, 30, 60, 99):
            assert concept_label(spec, [[0.99, 0.99]], t)[0] == 1

    def test_schedule_boundaries_at_equal_quarters(self):
        spec = spec_for("circle", n_batches=100)
        assert circle_concept(spec, 0) == CIRCLE_SCHEDULE[0]
        assert circle_concept(spec, 24) == CIRCLE_SCHEDULE[0]
        assert circle_concept(spec, 25) == CIRCLE_SCHEDULE[1]
        assert circle_concept(spec, 99) == CIRCLE_SCHEDULE[3]

    def test_points_are_uniform_on_unit_square(self):
        batch = gen_batch(spec_for("circle", batch_size=500), 0)
        assert batch.X.min() >= 0.0 and batch.X.max() <= 1.0


class TestCovcon:
    def test_mean_formula(self):
        assert covcon_mean(6) == 0.0
        assert covcon_mean(0) == pytest.approx(0.1)

    def test_flip_phase(self):
        assert not covcon_flipped(0) and not covcon_flipped(9)
        assert covcon_flipped(10) and covcon_flipped(19)
        assert not covcon_flipped(20)

    def test_label_flips_with_concept(self):
        spec = spec_for("covcon")
        point = [[0.5, 0.5]]  # sin(pi/2) = 1 > 0.5
        assert concept_label(spec, point, 5)[0] == 1
        assert concept_label(spec, point, 15)[0] == 0

    def test_labels_are_the_sine_boundary_then_its_reverse(self):
        spec = spec_for("covcon")
        X = np.random.default_rng(4).uniform(-0.5, 1.5, size=(500, 2))
        above = (np.sin(np.pi * X[:, 0]) > X[:, 1]).astype(np.int64)
        for t in (0, 9, 20, 29):
            assert np.array_equal(concept_label(spec, X, t), above)
        for t in (10, 19, 30):
            assert np.array_equal(concept_label(spec, X, t), 1 - above)


class TestQueries:
    def test_mode_d_queries_are_batch_rows(self):
        spec = spec_for("covcon")
        batch = gen_batch(spec, 2)
        q = make_queries(spec, 2, batch)
        rows = {tuple(r) for r in batch.X}
        assert all(tuple(r) in rows for r in q.X)
        assert q.eval_labels is not None

    def test_mode_d_full_sample_is_permutation(self):
        spec = spec_for("gauss", batch_size=20, queries_per_batch=20)
        batch = gen_batch(spec, 0)
        q = make_queries(spec, 0, batch)
        assert np.array_equal(np.sort(q.X, axis=0), np.sort(batch.X, axis=0))

    def test_mode_d_rejects_oversampling(self):
        with pytest.raises(InvalidInputError):
            spec_for("gauss", batch_size=10, queries_per_batch=11)
        spec = spec_for("gauss", batch_size=10, queries_per_batch=10)
        small = gen_batch(spec_for("gauss", batch_size=5, queries_per_batch=5), 0)
        with pytest.raises(InvalidInputError):
            make_queries(spec, 0, small)

    def test_mode_s_statistics(self):
        spec = spec_for("covcon", query_mode="S", queries_per_batch=10_000)
        q = make_queries(spec, 0, gen_batch(spec, 0))
        assert np.allclose(q.X.mean(axis=0), (0.5, 0.5), atol=0.01)
        assert np.allclose(q.X.std(axis=0), STATIC_QUERY_SIGMA, rtol=0.2)

    def test_mode_s_labels_follow_the_flipping_concept(self):
        spec = spec_for("covcon", query_mode="S")
        q9 = make_queries(spec, 9, gen_batch(spec, 9))
        labels_at_10 = concept_label(spec, q9.X, 10)
        assert np.array_equal(q9.eval_labels, 1 - labels_at_10)


class TestDeterminismAndPurity:
    @pytest.mark.parametrize("dataset", ["gauss", "circle", "covcon"])
    def test_stream_fully_determined_by_spec(self, dataset):
        spec = spec_for(dataset, n_batches=6)
        d1, q1 = generate_stream(spec)
        d2, q2 = generate_stream(spec)
        for a, b in zip(d1, d2):
            assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        for a, b in zip(q1, q2):
            assert np.array_equal(a.X, b.X) and np.array_equal(a.eval_labels, b.eval_labels)

    def test_different_seeds_differ(self):
        a = gen_batch(spec_for("gauss", seed=0), 0)
        b = gen_batch(spec_for("gauss", seed=1), 0)
        assert not np.array_equal(a.X, b.X)

    @pytest.mark.parametrize("dataset", ["gauss", "circle", "covcon"])
    def test_labels_are_pure_functions_of_point_and_t(self, dataset):
        spec = spec_for(dataset, n_batches=12)
        data, queries = generate_stream(spec)
        for batch in data:
            assert np.array_equal(concept_label(spec, batch.X, batch.t), batch.y)
        mode_s = spec_for(dataset, n_batches=12, query_mode="S")
        for q in generate_stream(mode_s)[1]:
            assert np.array_equal(concept_label(mode_s, q.X, q.t), q.eval_labels)

    def test_batches_regenerate_independently(self):
        spec = spec_for("covcon", n_batches=8)
        data, _ = generate_stream(spec)
        again = gen_batch(spec, 5)
        assert np.array_equal(data[5].X, again.X)


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        StreamSpec(dataset="bogus")
    with pytest.raises(InvalidInputError):
        StreamSpec(dataset="gauss", n_batches=0)
    with pytest.raises(InvalidInputError):
        StreamSpec(dataset="gauss", query_mode="X")
    with pytest.raises(InvalidInputError):
        gen_batch(StreamSpec(dataset="gauss", n_batches=5), 5)
    assert StreamSpec(dataset="gauss").name == "gauss-D"
