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
from dpkmeans.engine import _squared_differences


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
    return float(_squared_differences(a, b, np.zeros(1, dtype=np.int64)).sum())


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

    @pytest.mark.parametrize("k", [2, 20])
    def test_one_chunk_edge_gives_the_exact_paths_labels(self, k):
        # Rows that fit one chunk get that chunk's labels: no rows, exactly
        # one chunk, and one row past it.
        chunk = core.label_chunk_rows(k)
        rng = np.random.Generator(np.random.PCG64(k))
        centroids = rng.random((k, 3))
        for n in (0, chunk, chunk + 1):
            pts = rng.random((n, 3))
            for bound in (None, 3):
                got = label_points(pts, centroids, bound)
                assert got.dtype == np.int64 and got.shape == (n,)
                assert np.array_equal(got, core._label_exact(pts, centroids))


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


@st.composite
def _certificate_inputs(draw):
    """Rows and centroids as for the filter, and a candidate per row: its
    exact label, any label, or its label against moved centroids."""
    points, centroids = draw(_labelling_inputs())
    n, k = len(points), len(centroids)
    exact = core._label_exact(points, centroids)
    seed = draw(st.integers(0, 2**32 - 1))
    step = draw(st.sampled_from([1e-12, 1e-3, 0.3]))
    moved = centroids + step * np.random.Generator(np.random.PCG64(seed)).standard_normal(
        centroids.shape
    )
    stale = core._label_exact(points, moved)
    kinds = draw(st.lists(st.sampled_from(["right", "any", "stale"]), min_size=n, max_size=n))
    picks = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    by_kind = {"right": exact, "any": np.array(picks, dtype=np.int64), "stale": stale}
    candidates = np.array([by_kind[kind][i] for i, kind in enumerate(kinds)], dtype=np.int64)
    return points, centroids, candidates


def _certified(points, centroids, candidates, max_sq_norm):
    """Rows whose candidate the certificate proves, with each row's squared
    distance to it summed in two orders; both must agree."""
    bounds = core.certificate_bounds(centroids, max_sq_norm)
    diff = _squared_differences(points, centroids, candidates)
    forward = np.einsum("ij->i", diff) < bounds[candidates]
    backward = diff[:, ::-1].sum(axis=1) < bounds[candidates]
    assert np.array_equal(forward, backward)
    return np.flatnonzero(forward)


def _assert_strict_argmin(points, centroids, candidates, rows):
    """Each of ``rows`` has its candidate as the strictly smallest of the
    exact path's summed squared distances: its label, and no tie."""
    dist = ((points[rows, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    mine = dist[np.arange(len(rows)), candidates[rows]]
    dist[np.arange(len(rows)), candidates[rows]] = np.inf
    assert (dist > mine[:, None]).all()
    assert np.array_equal(candidates[rows], core._label_exact(points[rows], centroids))


class TestCertificate:
    @settings(max_examples=200, deadline=None)
    @given(_certificate_inputs(), st.sampled_from([1.0, 1.0 + 2**-52, 4.0, 1e6]))
    def test_certified_rows_are_the_exact_paths_strict_argmin(self, inputs, factor):
        points, centroids, candidates = inputs
        largest = float(np.einsum("ij,ij->i", points, points).max(initial=0.0))
        rows = _certified(points, centroids, candidates, largest * factor)
        _assert_strict_argmin(points, centroids, candidates, rows)

    def test_clear_rows_are_certified(self):
        # Well-separated blobs in the unit cube, candidates their labels: the
        # certificate settles nearly every row, and only right candidates.
        rng = np.random.Generator(np.random.PCG64(4))
        centres = rng.random((20, 16))
        pts = np.clip(centres[rng.integers(0, 20, 4096)] + 0.02 * rng.standard_normal((4096, 16)), 0, 1)
        centroids = centres + 0.01 * rng.standard_normal(centres.shape)
        exact = core._label_exact(pts, centroids)
        wrong = (exact + 1) % 20
        right_rows = _certified(pts, centroids, exact, 16)
        assert len(right_rows) > 0.99 * len(pts)
        assert len(_certified(pts, centroids, wrong, 16)) == 0

    def test_midpoints_of_dyadic_centroids_are_never_certified(self):
        # Every row is exactly as far from two centroids, and its squared
        # distances are computed exactly: the certificate's own test,
        # distance below a quarter of the separation, fails only by tau.
        centroids = np.array([[0.25, 0.5], [0.75, 0.5], [0.25, 0.0]])
        pts = np.array([[0.5, 0.5], [0.5, 0.25], [0.25, 0.25], [0.5, 0.75], [0.0, 0.25]])
        for label in range(3):
            candidates = np.full(len(pts), label)
            assert len(_certified(pts, centroids, candidates, 2)) == 0
        # c_0's nearest other centroid is c_2, 0.5 away: rows (0.5, 0.5) and
        # (0.25, 0.25) sit exactly at a quarter of its squared separation.
        assert 0 < 0.5**2 / 4 - core.certificate_bounds(centroids, 2)[0] < 1e-12

    def test_duplicate_centroids_certify_nothing_near_them(self):
        rng = np.random.Generator(np.random.PCG64(6))
        centroids = rng.random((4, 3))[[0, 1, 2, 0, 3]]
        bounds = core.certificate_bounds(centroids, 3)
        assert bounds[0] < 0 and bounds[3] < 0
        pts = rng.random((500, 3))
        for label in (0, 3):
            assert len(_certified(pts, centroids, np.full(500, label), 3)) == 0

    def test_one_centroid_is_bounded_by_the_norm_cap(self):
        rng = np.random.Generator(np.random.PCG64(7))
        pts, centroid = rng.random((300, 4)), rng.random((1, 4))
        s = 2.0 + float(np.sqrt((centroid**2).sum()))
        bound = core.certificate_bounds(centroid, 4)
        assert bound.tolist() == [s * s - core.rounding_margin(4, 2 * s)]
        assert len(_certified(pts, centroid, np.zeros(300, dtype=np.int64), 4)) == 300

    @pytest.mark.parametrize("max_sq_norm", [0.25e308, 1e308])
    def test_overflowing_bound_certifies_nothing(self, max_sq_norm):
        # 4 S^2 overflows, so tau is infinite.  The row at the origin is as
        # far from both centroids: unchecked, the overflowing separation
        # would have certified it.
        centroids = np.array([[0.7e154], [-0.7e154]])
        assert core.certificate_bounds(centroids, max_sq_norm).tolist() == [-np.inf] * 2
        pts = np.array([[0.0], [0.5e154]])
        for label in (0, 1):
            assert len(_certified(pts, centroids, np.full(2, label), max_sq_norm)) == 0

    def test_temporaries_bounded_by_one_chunk(self):
        # The separations of k centroids, k x k of them, are taken in chunks
        # of label_points' rows: no temporary holds all k^2.
        k, d = 3000, 2
        centroids = np.random.Generator(np.random.PCG64(8)).random((k, d))
        chunk_bytes = core.label_chunk_rows(k) * k * d * 8
        assert 8 * 4 * chunk_bytes < k * k * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            core.certificate_bounds(centroids, d)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 4 * chunk_bytes


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

    @pytest.mark.parametrize(
        "points,message",
        [
            ([[0.1, np.nan]], "points contains NaN or infinite values"),
            ([[0.1, np.inf]], "points contains NaN or infinite values"),
            ([[-np.inf, 0.1]], "points contains NaN or infinite values"),
            ([[2.0, np.nan]], "points contains NaN or infinite values"),
            ([[0.5, 1.5]], r"outside \[0, 1\]: min=0.5 max=1.5"),
            ([[-0.25, 0.5]], r"outside \[0, 1\]: min=-0.25 max=0.5"),
        ],
    )
    def test_refusal_messages(self, points, message):
        with pytest.raises(InvalidInputError, match=message):
            Dataset(points=np.array(points), normalized=True)

    def test_writeable_source_is_copied(self):
        source = np.array([[0.1, 0.2], [0.3, 0.4]])
        data = Dataset(points=source, normalized=True)
        source[0, 0] = 0.9
        assert data.points is not source and data.points[0, 0] == 0.1
        assert source.flags.writeable

    def test_read_only_owned_array_is_kept(self):
        source = np.array([[0.1, 0.2], [0.3, 0.4]])
        source.setflags(write=False)
        assert Dataset(points=source, normalized=True).points is source

    def test_converted_array_is_kept_read_only(self):
        data = Dataset(points=np.array([[1, 2], [3, 4]]))
        assert data.points.dtype == np.float64 and data.points.flags.owndata
        assert not data.points.flags.writeable

    @pytest.mark.parametrize("kind", ["view", "fortran", "memmap"])
    def test_other_read_only_arrays_are_copied(self, kind, tmp_path):
        base = np.arange(12, dtype=np.float64).reshape(4, 3) / 12
        if kind == "view":
            source = base[1:]
        elif kind == "fortran":
            source = np.asfortranarray(base)
        else:
            base.tofile(tmp_path / "rows.bin")
            source = np.memmap(tmp_path / "rows.bin", dtype=np.float64, mode="r", shape=(4, 3))
        source.setflags(write=False)
        data = Dataset(points=source, normalized=True)
        assert not np.shares_memory(data.points, source)
        assert data.points.flags.c_contiguous and data.points.flags.owndata
        assert np.array_equal(data.points, source)


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
