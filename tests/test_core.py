import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpkmeans import core
from dpkmeans.core import (
    Assignment,
    CentroidSet,
    Dataset,
    InvalidInputError,
    assign_labels,
    label_points,
)
from dpkmeans.engine import _block_partials


def _squared_distance_oracle(a, b):
    # Independent scalar-loop evaluation, no numpy.
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) * (x - y)
    return total


def _sq_dist(a, b):
    """The squared distance the map task sums for NICV, for one row and one
    centroid."""
    a, b = np.array([a], dtype=float), np.array([b], dtype=float)
    return _block_partials(a, b, 1)[3]


def _nearest(x, centroid_set):
    return int(label_points(np.asarray(x)[None, :], centroid_set.centroids)[0])


class TestSquaredDistance:
    def test_identity(self):
        assert _sq_dist(np.array([0.0, 0.0]), np.array([0.0, 0.0])) == 0.0

    def test_unit_hypercube_diagonal(self):
        assert _sq_dist(np.array([0.0, 0.0]), np.array([1.0, 1.0])) == 2.0

    def test_hand_arithmetic(self):
        a = [0.1, 0.2, 0.3]
        b = [0.4, 0.0, 0.3]
        got = _sq_dist(np.array(a), np.array(b))
        assert got == pytest.approx(0.13, rel=1e-12)
        assert got == pytest.approx(_squared_distance_oracle(a, b), rel=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_loop_on_random_vectors(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        a = rng.random(7)
        b = rng.random(7)
        assert _sq_dist(a, b) == pytest.approx(
            _squared_distance_oracle(a, b), rel=1e-13
        )

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
        d_ab = _sq_dist(a, b)
        assert d_ab == _sq_dist(b, a)
        assert d_ab >= 0.0
        if np.array_equal(a, b):
            assert d_ab == 0.0

    def test_zero_iff_equal(self):
        a = np.array([0.5, 0.25])
        assert _sq_dist(a, a) == 0.0
        assert _sq_dist(a, a + 1e-9) > 0.0


class TestNearestCentroid:
    def test_strictly_closer(self):
        cs = CentroidSet(centroids=np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert _nearest(np.array([0.1, 0.1]), cs) == 0

    def test_equidistant_breaks_to_lowest_index(self):
        cs = CentroidSet(centroids=np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert _nearest(np.array([0.5, 0.5]), cs) == 0

    def test_brute_force_three_centroids(self):
        # Note: a query at exactly 0.9 per coordinate ties centroids 1 and 2
        # (distance 0.03 each), which the lowest-index rule resolves to 1;
        # 0.85 makes centroid 2 the strict winner.
        cs = CentroidSet(
            centroids=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.8, 0.8, 0.8]])
        )
        x = np.array([0.85, 0.85, 0.85])
        dists = [_sq_dist(x, c) for c in cs.centroids]
        assert dists.index(min(dists)) == 2
        assert _nearest(x, cs) == 2

    def test_exact_tie_between_later_centroids_takes_lower(self):
        cs = CentroidSet(
            centroids=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.8, 0.8, 0.8]])
        )
        x = np.array([0.9, 0.9, 0.9])
        d1 = _sq_dist(x, cs.centroids[1])
        d2 = _sq_dist(x, cs.centroids[2])
        assert d1 == d2
        assert _nearest(x, cs) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_per_point_scan(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        centroids = rng.random((4, 3))
        cs = CentroidSet(centroids=centroids)
        for x in rng.random((20, 3)):
            expected = min(
                range(4), key=lambda j: _squared_distance_oracle(x, centroids[j])
            )
            assert _nearest(x, cs) == expected

    def test_monotone_transform_invariance(self):
        # argmin under sqrt(distance) equals argmin under squared distance
        rng = np.random.Generator(np.random.PCG64(3))
        centroids = rng.random((5, 2))
        cs = CentroidSet(centroids=centroids)
        for x in rng.random((25, 2)):
            by_sq = _nearest(x, cs)
            by_abs = int(
                np.argmin(
                    [np.sqrt(_sq_dist(x, c)) for c in centroids]
                )
            )
            assert by_sq == by_abs

    def test_dimension_mismatch(self):
        cs = CentroidSet(centroids=np.array([[0.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            assign_labels(Dataset(points=np.array([[0.1, 0.2, 0.3]])), cs)


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
            x = small_blobs.points[i]
            dists = [_squared_distance_oracle(x, c) for c in cs.centroids]
            assert asg.labels[i] == dists.index(min(dists))

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


#: Centroid counts whose chunks the tie tests cross: 10240, 4096, 1024 and
#: 975 rows.
TIE_KS = [2, 5, 20, 21]


def _ties_at_chunk_boundaries(k):
    """Rows near the origin, four of them at 0.5 on the boundaries of the
    first chunks, and k centroids of which two, a < b, are exactly as far
    from 0.5 and nearer to it than the rest.  Returns rows, centroids, the
    tied rows and a."""
    chunk = core.label_chunk_rows(k)
    rng = np.random.Generator(np.random.PCG64(1))
    pts = rng.random((3 * chunk + 17, 2)) * 0.1
    tied = [chunk - 1, chunk, 2 * chunk - 1, 2 * chunk]
    pts[tied] = 0.5
    centroids = np.column_stack([np.full(k, 0.95), 0.95 - 0.01 * np.arange(k)])
    a, b = k // 2 - 1, k - 1
    centroids[a], centroids[b] = [0.25, 0.5], [0.75, 0.5]
    return pts, centroids, tied, a


class TestLabelPointsChunks:
    @pytest.mark.parametrize("d,k", [(1, 3), (4, 2), (9, 5), (16, 20)])
    def test_bit_equal_to_one_shot_broadcast_across_chunks(self, d, k):
        rng = np.random.Generator(np.random.PCG64(d * 100 + k))
        pts = rng.random((3 * core.label_chunk_rows(k) + 17, d))
        centroids = rng.random((k, d))
        got = label_points(pts, centroids)
        assert got.dtype == np.int64
        assert np.array_equal(got, _broadcast_labels(pts, centroids))

    @pytest.mark.parametrize(
        "k, rows", [(2, 10240), (5, 4096), (20, 1024), (21, 975), (20481, 1)]
    )
    def test_chunk_holds_at_most_20480_pairs(self, k, rows):
        assert core.label_chunk_rows(k) == rows

    @pytest.mark.parametrize("k", TIE_KS)
    def test_ties_at_chunk_boundaries_prefer_lowest_index(self, k):
        pts, centroids, tied, a = _ties_at_chunk_boundaries(k)
        got = label_points(pts, centroids)
        assert got[tied].tolist() == [a] * 4
        assert np.array_equal(got, _broadcast_labels(pts, centroids))

    @pytest.mark.parametrize("k", TIE_KS)
    def test_unit_cube_bound_at_chunk_boundary_ties(self, k):
        # The engine's bound: d, the largest squared norm in the unit cube.
        pts, centroids, tied, a = _ties_at_chunk_boundaries(k)
        got = label_points(pts, centroids, max_sq_norm=2)
        assert got[tied].tolist() == [a] * 4
        assert np.array_equal(got, _broadcast_labels(pts, centroids))

    def test_temporary_bounded_by_one_chunk(self):
        n, d, k = 40_000, 16, 20
        rng = np.random.Generator(np.random.PCG64(2))
        pts, centroids = rng.random((n, d)), rng.random((k, d))
        chunk_bytes = core.label_chunk_rows(k) * k * d * 8
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


@st.composite
def _labelling_inputs(draw):
    """Rows and centroids built to sit on or near bisectors: coordinates on a
    dyadic grid, centroids that repeat one another or copy a data row,
    exactly or 1e-9 away, and centroids far outside the unit cube."""
    n = draw(st.integers(0, 40))
    d = draw(st.integers(1, 5))
    k = draw(st.integers(1, 6))
    coord = st.one_of(
        st.sampled_from([0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0]),
        st.floats(-1.0, 2.0, allow_nan=False),
    )
    vec = st.lists(coord, min_size=d, max_size=d).map(np.array)
    points = np.array(draw(st.lists(vec, min_size=n, max_size=n))).reshape(n, d)
    centroids = []
    for _ in range(k):
        kind = draw(st.sampled_from(["grid", "far", "row", "jittered row", "repeat"]))
        if kind in ("row", "jittered row") and n:
            c = points[draw(st.integers(0, n - 1))].copy()
            if kind == "jittered row":
                c += 1e-9 * draw(st.sampled_from([-1.0, 1.0]))
        elif kind == "repeat" and centroids:
            c = centroids[draw(st.integers(0, len(centroids) - 1))].copy()
        elif kind == "far":
            c = draw(vec) * draw(st.sampled_from([-1e6, 1e3, 1e6]))
        else:
            c = draw(vec)
        centroids.append(c)
    return points, np.array(centroids).reshape(k, d)


class TestLabelPointsFilter:
    @settings(max_examples=200, deadline=None)
    @given(_labelling_inputs())
    def test_bit_equal_to_broadcast_oracle(self, inputs):
        points, centroids = inputs
        got = label_points(points, centroids)
        assert np.array_equal(got, _broadcast_labels(points, centroids))

    @settings(max_examples=200, deadline=None)
    @given(_labelling_inputs(), st.sampled_from([1.0, 1.0 + 2**-52, 4.0, 1e6]))
    def test_any_bound_on_the_row_norms_matches_oracle(self, inputs, factor):
        points, centroids = inputs
        largest = float(np.einsum("ij,ij->i", points, points).max(initial=0.0))
        got = label_points(points, centroids, max_sq_norm=largest * factor)
        assert np.array_equal(got, _broadcast_labels(points, centroids))

    @pytest.mark.parametrize(
        "case",
        [
            "duplicate centroids",
            "dyadic bisectors",
            "rows as centroids",
            "jittered rows as centroids",
            "far centroids",
            "one far centroid",
            "underflowing products",
        ],
    )
    def test_adversarial_inputs_match_oracle_across_chunks(self, case):
        rng = np.random.Generator(np.random.PCG64(7))
        # Six centroids in every case: chunks of 3413 rows.
        n, d = 2 * core.label_chunk_rows(6) + 5, 3
        pts = rng.random((n, d))
        if case == "duplicate centroids":
            centroids = rng.random((4, d))[[0, 1, 0, 2, 1, 3]]
        elif case == "dyadic bisectors":
            pts = rng.integers(0, 9, (n, d)) / 8.0
            centroids = rng.integers(0, 5, (6, d)) / 4.0
        elif case == "rows as centroids":
            centroids = pts[rng.choice(n, 6, replace=False)]
        elif case == "jittered rows as centroids":
            centroids = pts[rng.choice(n, 6, replace=False)]
            centroids = centroids + 1e-9 * rng.standard_normal((6, d))
        elif case == "far centroids":
            centroids = rng.uniform(-1e6, 1e6, (6, d))
        elif case == "underflowing products":
            # Squared distances near 1e-320 are subnormal: rounding there
            # loses absolute, not relative, precision.
            pts = pts * 1e-160
            centroids = rng.random((6, d)) * 1e-160
        else:
            # One centroid at 1e6 widens the bound of every row (S ~ 1e6),
            # so rows near the bisectors of the near centroids go through
            # the exact path.
            centroids = np.vstack([rng.random((5, d)), np.full((1, d), 1e6)])
        got = label_points(pts, centroids)
        assert np.array_equal(got, _broadcast_labels(pts, centroids))

    @pytest.mark.parametrize(
        # 5125 rows: one 5120-row chunk of k=4 and 5 rows more.
        "n,d,k", [(0, 3, 2), (0, 1, 1), (5, 1, 1), (5125, 1, 4), (7, 4, 1)]
    )
    def test_degenerate_shapes(self, n, d, k):
        rng = np.random.Generator(np.random.PCG64(n + 10 * d + 100 * k))
        pts, centroids = rng.random((n, d)), rng.random((k, d))
        got = label_points(pts, centroids)
        assert got.dtype == np.int64 and got.shape == (n,)
        assert np.array_equal(got, _broadcast_labels(pts, centroids))

    def _count_exact_rows(self, monkeypatch) -> list[int]:
        rows: list[int] = []
        exact = core._label_exact

        def counting(points, centroids):
            rows.append(points.shape[0])
            return exact(points, centroids)

        monkeypatch.setattr(core, "_label_exact", counting)
        return rows

    def test_ties_go_through_the_exact_path(self, monkeypatch):
        rows = self._count_exact_rows(monkeypatch)
        pts = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.8]])
        centroids = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert label_points(pts, centroids).tolist() == [0, 0, 1]
        assert rows == [1]

    def test_clear_rows_skip_the_exact_path(self, monkeypatch):
        rows = self._count_exact_rows(monkeypatch)
        rng = np.random.Generator(np.random.PCG64(3))
        pts, centroids = rng.random((4096, 16)), rng.random((20, 16))
        got = label_points(pts, centroids)
        assert rows == []
        assert np.array_equal(got, _broadcast_labels(pts, centroids))

    @pytest.mark.parametrize(
        "point_scale,centroid_scale,k",
        [
            (1e155, 1e155, 6),
            (1.0, 1e155, 6),
            (1e155, 1.0, 6),
            (1e160, 1e150, 6),
            (1e160, 1e150, 1),
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_bound_sends_every_row_to_the_exact_path(
        self, monkeypatch, point_scale, centroid_scale, k
    ):
        # S^2 overflows, so tau is infinite: with k >= 2 no row can have
        # exactly one near centroid, whatever its F values.
        rows = self._count_exact_rows(monkeypatch)
        rng = np.random.Generator(np.random.PCG64(11))
        n, d = 2 * core.label_chunk_rows(k) + 5, 3
        pts = point_scale * (1.0 + rng.random((n, d)))
        centroids = centroid_scale * (1.0 + rng.random((k, d)))
        got = label_points(pts, centroids)
        assert np.array_equal(got, _broadcast_labels(pts, centroids))
        if k >= 2:
            assert sum(rows) == n


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
        cs = CentroidSet(centroids=np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert cs.k == 2 and cs.n_dims == 2

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
