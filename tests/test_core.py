import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpkmeans import core
from dpkmeans.core import (
    Assignment,
    CentroidSet,
    ClusterAggregate,
    Dataset,
    InvalidInputError,
    assign_labels,
    label_points,
    nearest_centroid,
    squared_distance,
)


def _squared_distance_oracle(a, b):
    # Independent scalar-loop evaluation, no numpy.
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) * (x - y)
    return total


class TestSquaredDistance:
    def test_identity(self):
        assert squared_distance(np.array([0.0, 0.0]), np.array([0.0, 0.0])) == 0.0

    def test_unit_hypercube_diagonal(self):
        assert squared_distance(np.array([0.0, 0.0]), np.array([1.0, 1.0])) == 2.0

    def test_hand_arithmetic(self):
        a = [0.1, 0.2, 0.3]
        b = [0.4, 0.0, 0.3]
        got = squared_distance(np.array(a), np.array(b))
        assert got == pytest.approx(0.13, rel=1e-12)
        assert got == pytest.approx(_squared_distance_oracle(a, b), rel=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_loop_on_random_vectors(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        a = rng.random(7)
        b = rng.random(7)
        assert squared_distance(a, b) == pytest.approx(
            _squared_distance_oracle(a, b), rel=1e-13
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            squared_distance(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(InvalidInputError):
            squared_distance(np.zeros((2, 2)), np.zeros((2, 2)))

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e4, 1e4, allow_nan=False),
                st.floats(-1e4, 1e4, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_symmetry_and_nonnegativity(self, pairs):
        a = np.array([p[0] for p in pairs])
        b = np.array([p[1] for p in pairs])
        d_ab = squared_distance(a, b)
        assert d_ab == squared_distance(b, a)
        assert d_ab >= 0.0
        if np.array_equal(a, b):
            assert d_ab == 0.0

    def test_zero_iff_equal(self):
        a = np.array([0.5, 0.25])
        assert squared_distance(a, a) == 0.0
        assert squared_distance(a, a + 1e-9) > 0.0


class TestNearestCentroid:
    def test_strictly_closer(self):
        cs = CentroidSet(centroids=np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert nearest_centroid(np.array([0.1, 0.1]), cs) == 0

    def test_equidistant_breaks_to_lowest_index(self):
        cs = CentroidSet(centroids=np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert nearest_centroid(np.array([0.5, 0.5]), cs) == 0

    def test_brute_force_three_centroids(self):
        # Note: a query at exactly 0.9 per coordinate ties centroids 1 and 2
        # (distance 0.03 each), which the lowest-index rule resolves to 1;
        # 0.85 makes centroid 2 the strict winner.
        cs = CentroidSet(
            centroids=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.8, 0.8, 0.8]])
        )
        x = np.array([0.85, 0.85, 0.85])
        dists = [squared_distance(x, c) for c in cs.centroids]
        assert dists.index(min(dists)) == 2
        assert nearest_centroid(x, cs) == 2

    def test_exact_tie_between_later_centroids_takes_lower(self):
        cs = CentroidSet(
            centroids=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.8, 0.8, 0.8]])
        )
        x = np.array([0.9, 0.9, 0.9])
        d1 = squared_distance(x, cs.centroids[1])
        d2 = squared_distance(x, cs.centroids[2])
        assert d1 == d2
        assert nearest_centroid(x, cs) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_per_point_scan(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        centroids = rng.random((4, 3))
        cs = CentroidSet(centroids=centroids)
        for x in rng.random((20, 3)):
            expected = min(
                range(4), key=lambda j: _squared_distance_oracle(x, centroids[j])
            )
            assert nearest_centroid(x, cs) == expected

    def test_monotone_transform_invariance(self):
        # argmin under sqrt(distance) equals argmin under squared distance
        rng = np.random.Generator(np.random.PCG64(3))
        centroids = rng.random((5, 2))
        cs = CentroidSet(centroids=centroids)
        for x in rng.random((25, 2)):
            by_sq = nearest_centroid(x, cs)
            by_abs = int(
                np.argmin(
                    [np.sqrt(squared_distance(x, c)) for c in centroids]
                )
            )
            assert by_sq == by_abs

    def test_dimension_mismatch(self):
        cs = CentroidSet(centroids=np.array([[0.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            nearest_centroid(np.array([0.1, 0.2, 0.3]), cs)


class TestAssignLabels:
    def test_labels_are_pure_function(self, small_blobs):
        cs = CentroidSet(centroids=small_blobs.points[:3].copy())
        first = assign_labels(small_blobs, cs)
        second = assign_labels(small_blobs, cs)
        assert np.array_equal(first.labels, second.labels)

    def test_every_label_is_the_nearest(self, small_blobs):
        cs = CentroidSet(centroids=small_blobs.points[10:13].copy())
        asg = assign_labels(small_blobs, cs)
        for i in range(0, small_blobs.n_rows, 37):
            assert asg.labels[i] == nearest_centroid(small_blobs.points[i], cs)

    def test_label_points_ties_prefer_lowest_index(self):
        pts = np.array([[0.5, 0.5]])
        centroids = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        assert label_points(pts, centroids)[0] == 0

    def test_dims_must_match(self, small_blobs):
        cs = CentroidSet(centroids=np.zeros((2, 5)))
        with pytest.raises(InvalidInputError):
            assign_labels(small_blobs, cs)


def _broadcast_labels(points, centroids):
    # One-shot (n, k, d) broadcast: the formula label_points must reproduce.
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


class TestLabelPointsChunks:
    CHUNK = core._LABEL_CHUNK_ROWS

    @pytest.mark.parametrize("d,k", [(1, 3), (4, 2), (9, 5), (16, 20)])
    def test_bit_equal_to_one_shot_broadcast_across_chunks(self, d, k):
        rng = np.random.Generator(np.random.PCG64(d * 100 + k))
        pts = rng.random((3 * self.CHUNK + 17, d))
        centroids = rng.random((k, d))
        got = label_points(pts, centroids)
        assert got.dtype == np.int64
        assert np.array_equal(got, _broadcast_labels(pts, centroids))

    def test_ties_at_chunk_boundaries_prefer_lowest_index(self):
        rng = np.random.Generator(np.random.PCG64(1))
        pts = rng.random((3 * self.CHUNK + 17, 2)) * 0.1
        # Rows at 0.5 are exactly as far from centroids 1 and 3, and nearer
        # to them than to 0 and 2 (points near the origin go to 0).
        centroids = np.array([[0.0, 0.0], [0.25, 0.5], [0.9, 0.9], [0.75, 0.5]])
        tied = [self.CHUNK - 1, self.CHUNK, 2 * self.CHUNK - 1, 2 * self.CHUNK]
        pts[tied] = 0.5
        got = label_points(pts, centroids)
        assert got[tied].tolist() == [1, 1, 1, 1]
        assert np.array_equal(got, _broadcast_labels(pts, centroids))

    def test_temporary_bounded_by_one_chunk(self):
        n, d, k = 40_000, 16, 20
        rng = np.random.Generator(np.random.PCG64(2))
        pts, centroids = rng.random((n, d)), rng.random((k, d))
        chunk_bytes = self.CHUNK * k * d * 8
        # The bound is under an eighth of the one-shot (n, k, d) temporary.
        assert 8 * 4 * chunk_bytes < n * k * d * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            label_points(pts, centroids)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 4 * chunk_bytes

    def test_no_rows(self):
        assert label_points(np.empty((0, 3)), np.zeros((2, 3))).shape == (0,)


class TestDataset:
    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            Dataset(points=np.array([[0.1, np.nan]]))

    def test_rejects_non_2d(self):
        with pytest.raises(InvalidInputError):
            Dataset(points=np.array([1.0, 2.0]))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            Dataset(points=np.zeros((0, 3)))

    def test_normalized_flag_enforces_unit_cube(self):
        with pytest.raises(InvalidInputError):
            Dataset(points=np.array([[0.5, 1.5]]), normalized=True)
        ok = Dataset(points=np.array([[0.0, 1.0]]), normalized=True)
        assert ok.n_rows == 1 and ok.n_dims == 2

    def test_points_are_immutable(self):
        data = Dataset(points=np.array([[0.1, 0.2]]))
        with pytest.raises(ValueError):
            data.points[0, 0] = 9.0


class TestCentroidSetAndAssignment:
    def test_centroid_set_shape(self):
        cs = CentroidSet(centroids=np.array([[0.0, 1.0], [1.0, 0.0]]), noisy=True)
        assert cs.k == 2 and cs.n_dims == 2 and cs.noisy

    def test_centroid_set_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            CentroidSet(centroids=np.zeros((0, 2)))

    def test_assignment_rejects_negative_and_float_labels(self):
        with pytest.raises(InvalidInputError):
            Assignment(labels=np.array([0, -1]))
        with pytest.raises(InvalidInputError):
            Assignment(labels=np.array([0.5, 1.0]))

    def test_assignment_rejects_2d(self):
        with pytest.raises(InvalidInputError):
            Assignment(labels=np.zeros((2, 2), dtype=np.int64))


class TestClusterAggregate:
    def test_merge_adds_counts_and_sums(self):
        a = ClusterAggregate(cluster_index=1, count=2.0, sums=np.array([1.0, 2.0]))
        b = ClusterAggregate(cluster_index=1, count=3.0, sums=np.array([0.5, 0.5]))
        merged = a.merge(b)
        assert merged.count == 5.0
        assert np.array_equal(merged.sums, np.array([1.5, 2.5]))

    def test_merge_rejects_mismatched_clusters(self):
        a = ClusterAggregate(cluster_index=0, count=1.0, sums=np.zeros(2))
        b = ClusterAggregate(cluster_index=1, count=1.0, sums=np.zeros(2))
        with pytest.raises(InvalidInputError):
            a.merge(b)
