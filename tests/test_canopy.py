import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpkmeans import canopy, core, engine
from dpkmeans.canopy import (
    CanopyParams,
    default_thresholds,
    run_canopy,
    select_initial_centroids,
)
from dpkmeans.core import Dataset, InvalidInputError
from dpkmeans.engine import EngineConfig, Variant, run_baseline, run_edpdcs
from dpkmeans.evaluation import compare_variants
from dpkmeans.ingestion import synthetic_blobs
from dpkmeans.mechanism import derive_stream_seed, laplace_inverse_cdf
from dpkmeans.planner import PlannerInputs, make_plan

THREE_POINTS = np.array([[0.0, 0.0], [0.05, 0.0], [0.9, 0.9]])

NON_FINITE_RADII = [(np.nan, np.nan), (1.0, np.nan), (np.inf, 0.1), (np.inf, np.inf)]


def reference_run_canopy(points, t1, t2):
    """The loop ``run_canopy`` replaced, kept as the reference: each seed's
    squared distances summed directly over the remaining candidates, and
    every canopy made.  Returns (loose count, tight indices) pairs, ranked."""
    t1_sq, t2_sq = t1 * t1, t2 * t2
    candidates = np.arange(points.shape[0], dtype=np.int64)
    canopies = []
    while candidates.size:
        seed = int(candidates[0])
        d2 = ((points[candidates] - points[seed]) ** 2).sum(axis=1)
        tight_mask = d2 <= t2_sq
        canopies.append((int(np.count_nonzero(d2 <= t1_sq)), candidates[tight_mask]))
        candidates = candidates[~tight_mask]
    return sorted(canopies, key=lambda canopy: -canopy[0])


@st.composite
def _canopy_inputs(draw):
    """Rows and radii built to sit on the radii: rows drawn from a small
    pool (duplicates, tied loose counts), radii equal to a distance between
    two rows or a few ulps either side, radii whose squares underflow or
    that cover the cube, and coordinates scaled to 1e154 (squares
    overflow) or 1e-160 (products underflow)."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    coord = st.one_of(
        st.sampled_from([0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 1.0]),
        st.floats(0.0, 1.0),
    )
    vec = st.lists(coord, min_size=d, max_size=d)
    pool = draw(st.lists(vec, min_size=1, max_size=n))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1.0, 1.0, 1.0, 1e154, 1.3e154, 1e-160]))
    points = scale * np.array([pool[i] for i in rows]).reshape(n, d)

    def radius():
        kind = draw(st.sampled_from(["row distance", "row distance", "tiny", "cover", "any"]))
        if kind == "row distance":
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            r = float(np.sqrt(((points[i] - points[j]) ** 2).sum()))
            toward = draw(st.sampled_from([0.0, np.inf]))
            for _ in range(draw(st.integers(0, 2))):
                r = float(np.nextafter(r, toward))
        elif kind == "tiny":
            r = 1e-170
        elif kind == "cover":
            r = scale * draw(st.sampled_from([2.0 * np.sqrt(d), 1e200]))
        else:
            r = scale * draw(st.floats(0.0, 2.0))
        # Two equal rows are at distance 0, which is not a radius; an
        # overflowing one still covers everything at 1e300.
        return min(r, 1e300) if r > 0.0 else 1e-170

    t1, t2 = sorted([radius(), radius()], reverse=True)
    return points, t1, t2


def _huge_budget(n_rows, n_dims, k):
    """The start's share of a budget of 1e12, where its noise vanishes."""
    return make_plan(
        PlannerInputs(n_rows=n_rows, n_dims=n_dims, k=k, epsilon_total=1e12)
    ).epsilon_per_iter


def _clumps():
    # Two clumps that the radii t1=0.5, t2=0.4 merge; halving twice splits them.
    rng = np.random.Generator(np.random.PCG64(7))
    return np.vstack([0.45 + 0.01 * rng.random((30, 2)), 0.55 + 0.01 * rng.random((30, 2))])


def _given_rows(monkeypatch):
    """The rows each call of the engine's ``select_initial_centroids`` was given."""
    handed = []
    real = engine.select_initial_centroids

    def recorded(points, k, params):
        handed.append(points)
        return real(points, k, params)

    monkeypatch.setattr(engine, "select_initial_centroids", recorded)
    return handed


class TestRunCanopy:
    def test_loose_radius_covering_everything_gives_one_canopy(self):
        rng = np.random.Generator(np.random.PCG64(0))
        pts = rng.random((50, 3))
        canopies = run_canopy(pts, t1=10.0, t2=1e-6)
        assert canopies[0].size == 50

    def test_all_tight_empties_working_set_in_one_pass(self):
        rng = np.random.Generator(np.random.PCG64(1))
        pts = rng.random((30, 2))
        canopies = run_canopy(pts, t1=10.0, t2=10.0 - 1e-9)
        assert len(canopies) == 1
        assert canopies[0].tight_member_indices.shape[0] == 30

    def test_three_point_hand_trace(self):
        canopies = run_canopy(THREE_POINTS, t1=0.2, t2=0.1)
        assert [c.tight_member_indices.tolist() for c in canopies] == [[0, 1], [2]]
        # ranked largest first
        assert [c.size for c in canopies] == [2, 1]

    def test_loose_counts_rank_the_canopies(self):
        # Row 0 holds rows 1-3 loosely but only itself tightly; row 1 then
        # holds rows 1-3 tightly.  The loose count, 4 against 3, ranks first.
        pts = np.array([[0.0], [0.15], [0.15], [0.15], [1.0], [1.0]])
        canopies = run_canopy(pts, t1=0.2, t2=0.1)
        assert [c.size for c in canopies] == [4, 3, 2]
        assert [c.tight_member_indices.tolist() for c in canopies] == [
            [0],
            [1, 2, 3],
            [4, 5],
        ]

    def test_largest_first_with_creation_order_ties(self):
        # Five separated groups of identical rows, created in row order with
        # sizes 7, 3, 9, 2, 9; the two groups of 9 keep their creation order.
        sizes = [7, 3, 9, 2, 9]
        pts = np.repeat(0.2 * np.arange(5.0), sizes)[:, None]
        canopies = run_canopy(pts, t1=0.05, t2=0.05)
        assert [c.tight_member_indices[0] for c in canopies] == [10, 21, 0, 7, 19]
        assert [c.size for c in canopies] == [9, 9, 7, 3, 2]

    def test_seed_pops_in_ascending_index_order(self):
        canopies = run_canopy(THREE_POINTS, t1=0.2, t2=0.1)
        assert canopies[0].tight_member_indices[0] == 0
        assert canopies[1].tight_member_indices[0] == 2

    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.integers(1, 300),
        n_dims=st.integers(1, 4),
        t2=st.floats(1e-3, 2.0),
        loose_factor=st.floats(1.0, 3.0),
        duplicates=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_tight_sets_partition_the_rows(
        self, n_rows, n_dims, t2, loose_factor, duplicates, seed
    ):
        rng = np.random.Generator(np.random.PCG64(seed))
        pts = rng.random((n_rows, n_dims))
        if duplicates:
            pts = pts[rng.integers(0, max(1, n_rows // 4), n_rows)]
        canopies = run_canopy(pts, t1=t2 * loose_factor, t2=t2)
        seen: set[int] = set()
        for canopy in canopies:
            tight = set(canopy.tight_member_indices.tolist())
            assert len(tight) == canopy.tight_member_indices.size
            assert not seen & tight
            seen |= tight
        assert seen == set(range(n_rows))

    @settings(max_examples=300, deadline=None)
    @given(_canopy_inputs())
    # S^2 overflows though S does not: the margin must then be infinite.
    @example((np.array([[0.0, 1e154, 0.0]] * 5 + [[0.0, 1e154, 1.25e153]]), 1e-170, 1e-170))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_the_direct_loop(self, inputs):
        points, t1, t2 = inputs
        expected = reference_run_canopy(points, t1, t2)

        def same(got, want):
            assert [c.size for c in got] == [size for size, _ in want]
            for canopy, (_, tight) in zip(got, want):
                assert np.array_equal(canopy.tight_member_indices, tight)

        same(run_canopy(points, t1, t2), expected)
        for top in range(1, len(expected) + 1):
            got = run_canopy(points, t1, t2, top=top)
            assert len(got) >= top
            same(got[:top], expected[:top])

    @pytest.mark.parametrize("top, made", [(1, 3), (2, 3), (3, 5), (5, 5), (None, 5)])
    def test_stops_once_the_top_is_settled(self, top, made):
        # Separated groups of identical rows, created with sizes 9, 9, 3, 2
        # and 7.  After the third canopy 9 rows are left, no more than the
        # largest and the second-largest count so far: no later canopy can
        # enter the top 1 or 2.  The third-largest count is 3, and 7 rows
        # are left after the fourth, so the top 3 runs to the end.
        pts = np.repeat(0.2 * np.arange(5.0), [9, 9, 3, 2, 7])[:, None]
        got = run_canopy(pts, t1=0.05, t2=0.05, top=top)
        assert len(got) == made
        assert [c.size for c in got] == sorted([9, 9, 3, 2, 7][:made], reverse=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        # A NaN seed is never within any radius of itself, so the pass
        # would never retire it.
        pts = np.array([[0.1, 0.2], [bad, 0.3], [0.5, 0.5]])
        with pytest.raises(InvalidInputError, match="NaN or infinite"):
            run_canopy(pts, 0.4, 0.2)

    def test_top_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            run_canopy(THREE_POINTS, 0.2, 0.1, top=0)

    def test_invalid_radii_rejected(self):
        with pytest.raises(InvalidInputError):
            run_canopy(THREE_POINTS, t1=0.1, t2=0.2)
        with pytest.raises(InvalidInputError):
            run_canopy(THREE_POINTS, t1=-1.0, t2=-2.0)

    @pytest.mark.parametrize("t1, t2", NON_FINITE_RADII)
    def test_non_finite_radii_rejected(self, t1, t2):
        with pytest.raises(InvalidInputError):
            run_canopy(THREE_POINTS, t1=t1, t2=t2)

    def test_deterministic(self):
        rng = np.random.Generator(np.random.PCG64(3))
        pts = rng.random((100, 2))
        a = run_canopy(pts, t1=0.4, t2=0.2)
        b = run_canopy(pts, t1=0.4, t2=0.2)
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert ca.size == cb.size
            assert np.array_equal(ca.tight_member_indices, cb.tight_member_indices)


class TestDefaultThresholds:
    def test_tight_is_half_mean_pairwise_and_loose_doubles_it(self):
        rng = np.random.Generator(np.random.PCG64(4))
        pts = rng.random((64, 3))
        t1, t2 = default_thresholds(pts)
        from scipy.spatial.distance import pdist

        assert t2 == pytest.approx(0.5 * pdist(pts).mean(), rel=1e-12)
        assert t1 == 2.0 * t2

    def test_degenerate_data_still_positive(self):
        pts = np.zeros((10, 2))
        t1, t2 = default_thresholds(pts)
        assert t2 > 0.0 and t1 == 2.0 * t2

    def test_needs_two_points(self):
        with pytest.raises(InvalidInputError):
            default_thresholds(np.zeros((1, 2)))


def _start(data, k, params, seed, epsilon=None):
    """The canopy start of a run at master seed ``seed`` over ``data``, given
    ``epsilon`` for the start or exact: its centroids, draws and notes."""
    boundary = engine._Boundary(data, EngineConfig(master_seed=seed), epsilon)
    return boundary.canopy_start(k, params, epsilon)


class TestSelectInitialCentroids:
    """The data-only part of the start, over the rows it is given."""

    def test_summarizes_the_top_k_tight_sets_of_the_rows_given(self):
        summary = select_initial_centroids(THREE_POINTS, 2, CanopyParams(t1=0.2, t2=0.1))
        assert (summary.halvings, summary.n_canopies) == (0, 2)
        assert summary.counts.tolist() == [2.0, 1.0]
        assert np.array_equal(summary.sums, [[0.05, 0.0], [0.9, 0.9]])

    def test_k_must_be_positive(self):
        with pytest.raises(InvalidInputError, match="k must be >= 1"):
            select_initial_centroids(THREE_POINTS, 0, CanopyParams())


class TestCanopyStart:
    """The start the run's boundary makes from the summary: subsample,
    store, noise and fill."""

    def test_small_data_is_summarized_whole_without_a_draw(self, monkeypatch):
        # No larger than the subsample: every row, in order, whatever the seed.
        handed = _given_rows(monkeypatch)
        params = CanopyParams(t1=0.2, t2=0.1, subsample_size=10)
        a, _, _ = _start(Dataset(points=THREE_POINTS, normalized=True), 2, params, seed=0)
        b, _, _ = _start(Dataset(points=THREE_POINTS, normalized=True), 2, params, seed=5)
        assert np.array_equal(a, b)
        assert len(handed) == 2
        assert all(np.array_equal(rows, THREE_POINTS) for rows in handed)

    def test_subsample_is_sorted_unique_and_seeded(self, monkeypatch):
        # Row i is i / n, so rows drawn once each in dataset order increase
        # strictly.
        rows = np.arange(500.0)[:, None] / 500
        handed = _given_rows(monkeypatch)
        for _ in range(2):
            _start(Dataset(points=rows, normalized=True), 1, CanopyParams(subsample_size=100), 9)
        pts_a, pts_b = handed
        assert pts_a.shape == (100, 1)
        assert np.array_equal(pts_a, pts_b)
        assert np.all(np.diff(pts_a[:, 0]) > 0)
        assert np.isin(pts_a, rows).all()

    def test_exact_mean_in_vanishing_noise_limit(self):
        data = Dataset(points=np.array([[0.0, 0.0], [1.0, 1.0]]), normalized=True)
        params = CanopyParams(t1=10.0, t2=10.0)
        start, _, _ = _start(data, 1, params, 1, _huge_budget(2, 2, 1))
        assert start[0] == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_three_point_example_near_tight_means(self):
        data = Dataset(points=THREE_POINTS, normalized=True)
        params = CanopyParams(t1=0.2, t2=0.1)
        got, draws, _ = _start(data, 2, params, 2, _huge_budget(3, 2, 2))
        assert got[0] == pytest.approx([0.025, 0.0], abs=1e-3)
        assert got[1] == pytest.approx([0.9, 0.9], abs=1e-3)
        assert draws == 2 * (2 + 1)

    def test_consumes_k_times_d_plus_one_draws(self, small_blobs):
        plan = make_plan(
            PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        )
        _, draws, _ = _start(small_blobs, 3, CanopyParams(), 3, plan.epsilon_per_iter)
        assert draws == 3 * (3 + 1)

    def test_deterministic_given_seed(self, small_blobs):
        plan = make_plan(
            PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        )
        params = CanopyParams(subsample_size=100)
        a, _, _ = _start(small_blobs, 3, params, 8, plan.epsilon_per_iter)
        fresh = Dataset(points=small_blobs.points, normalized=True)
        b, _, _ = _start(fresh, 3, params, 8, plan.epsilon_per_iter)
        assert np.array_equal(a, b)

    def test_subsample_drawn_from_stream_zero_zero(self, small_blobs):
        data = Dataset(points=small_blobs.points, normalized=True)
        rng = np.random.Generator(np.random.PCG64(derive_stream_seed(8, 0, 0)))
        points = data.points[np.sort(rng.choice(400, size=100, replace=False))]
        summary = select_initial_centroids(points, 3, CanopyParams())
        top = run_canopy(points, *default_thresholds(points))[:3]
        sums = np.vstack([points[c.tight_member_indices].sum(axis=0) for c in top])
        assert summary.halvings == 0
        assert np.array_equal(summary.sums, sums)
        start, _, _ = _start(data, 3, CanopyParams(subsample_size=100), 8)
        assert np.array_equal(start, summary.sums / summary.counts[:, None])

    def test_heavy_noise_still_lands_in_unit_cube(self, small_blobs):
        plan = make_plan(
            PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1e-4)
        )
        got, _, _ = _start(small_blobs, 3, CanopyParams(), 6, plan.epsilon_per_iter)
        assert np.all(got >= 0.0) and np.all(got <= 1.0)

    def test_dp_disabled_returns_exact_means_without_draws(self):
        data = Dataset(points=THREE_POINTS, normalized=True)
        start, draws, _ = _start(data, 2, CanopyParams(t1=0.2, t2=0.1), 0)
        assert start[0] == pytest.approx([0.025, 0.0])
        assert start[1] == pytest.approx([0.9, 0.9])
        assert draws == 0

    def test_identical_points_fall_back_to_random_fill(self):
        data = Dataset(points=np.full((20, 2), 0.5), normalized=True)
        start, _, notes = _start(data, 3, CanopyParams(), 1, _huge_budget(20, 2, 3))
        assert start.shape == (3, 2)
        assert any("filled" in note for note in notes)
        assert np.all(start >= 0.0)
        assert np.all(start <= 1.0)

    def test_noise_is_one_sequential_stream_in_rank_order(self):
        # Identical rows give one canopy for k=3: its centroid takes the first
        # d + 1 draws of stream (1, 0), count first, and the rest are filled
        # from stream (0, 1).
        data = Dataset(points=np.full((20, 2), 0.5), normalized=True)
        plan = make_plan(PlannerInputs(n_rows=20, n_dims=2, k=3, epsilon_total=3.0))
        start, draws, notes = _start(data, 3, CanopyParams(), 7, plan.epsilon_per_iter)
        rng = np.random.Generator(np.random.PCG64(derive_stream_seed(7, 1, 0)))
        scale = 1.0 / plan.epsilon_dim
        count = 20.0 + laplace_inverse_cdf(rng.random(1), scale)[0]
        sums = data.points.sum(axis=0) + laplace_inverse_cdf(rng.random(2), scale)
        expected = np.clip(sums / max(count, 1.0), 0.0, 1.0)
        fill = np.random.Generator(np.random.PCG64(derive_stream_seed(7, 0, 1)))
        assert draws == 3
        assert np.array_equal(start[0], expected)
        assert np.array_equal(start[1:], fill.random((2, 2)))
        assert any("filled 2" in note for note in notes)

    def test_threshold_halving_is_reported(self):
        # Two clumps merge into one canopy at the loose default radius but
        # split after halving.
        data = Dataset(points=_clumps(), normalized=True)
        params = CanopyParams(t1=0.5, t2=0.4)
        start, _, notes = _start(data, 2, params, 2, _huge_budget(60, 2, 2))
        assert start.shape == (2, 2)
        assert notes == ["canopy radii halved 2x to reach 2 canopies"]
        summary = select_initial_centroids(data.points, 2, params)
        top = run_canopy(data.points, 0.125, 0.1)
        sums = np.vstack([data.points[c.tight_member_indices].sum(axis=0) for c in top])
        assert (summary.halvings, summary.n_canopies) == (2, len(top))
        assert np.array_equal(summary.sums, sums)

    @pytest.mark.parametrize("variant", [Variant.EDPDCS, Variant.NONPRIVATE])
    def test_unnormalized_data_rejected(self, variant):
        data = Dataset(points=np.array([[2.0, 3.0], [4.0, 5.0]]))
        with pytest.raises(InvalidInputError, match="normalized"):
            _run(data, variant, 1, CanopyParams(), 0)


class TestCanopyParams:
    def test_thresholds_must_come_together(self):
        with pytest.raises(InvalidInputError):
            CanopyParams(t1=0.5)
        with pytest.raises(InvalidInputError):
            CanopyParams(t2=0.5)

    def test_tight_cannot_exceed_loose(self):
        with pytest.raises(InvalidInputError):
            CanopyParams(t1=0.1, t2=0.2)

    @pytest.mark.parametrize("t1, t2", NON_FINITE_RADII)
    def test_non_finite_radii_rejected(self, t1, t2):
        with pytest.raises(InvalidInputError):
            CanopyParams(t1=t1, t2=t2)

    def test_subsample_size_positive(self):
        with pytest.raises(InvalidInputError):
            CanopyParams(subsample_size=0)

    def test_subsample_size_must_be_an_integer(self):
        # 2.5 and True used to raise numpy's TypeError mid-run.
        for value in [2.5, 2.0, True, False, "2"]:
            with pytest.raises(InvalidInputError, match="subsample_size must be an integer"):
                CanopyParams(subsample_size=value)
        params = CanopyParams(subsample_size=np.int64(100))
        assert type(params.subsample_size) is int and params == CanopyParams(subsample_size=100)


def _run(data, variant, k, params, seed):
    config = EngineConfig(variant=variant, master_seed=seed)
    if variant is Variant.EDPDCS:
        inputs = PlannerInputs(n_rows=data.n_rows, n_dims=data.n_dims, k=k, epsilon_total=2.0)
        return run_edpdcs(data, k, inputs, params, config)
    if variant is Variant.NONPRIVATE:
        return run_baseline(data, k, None, config, canopy_params=params)
    return run_baseline(data, k, 2.0, config)


def _counting(monkeypatch, name, module=canopy):
    """What each call of ``module.<name>`` returned, in call order."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(module, name, counted)
    return calls


class TestCanopySummary:
    """The data-only canopy summary is computed once per dataset and key."""

    def test_grid_runs_the_canopy_pass_once(self, monkeypatch, blood_like):
        data = Dataset(points=blood_like.points, normalized=True)
        passes = _counting(monkeypatch, "run_canopy")
        radii = _counting(monkeypatch, "default_thresholds")
        summary = compare_variants(data, 2, [1.0, 3.0], n_seeds=4)
        assert len(summary.runs) == 3 * 2 * 4 + 1
        assert (len(passes), len(radii)) == (1, 1)

    def test_subsample_below_n_runs_once_per_master_seed(self, monkeypatch, small_blobs):
        data = Dataset(points=small_blobs.points, normalized=True)
        radii = _counting(monkeypatch, "default_thresholds")
        compare_variants(
            data, 3, [1.0, 3.0], n_seeds=3, base_seed=5,
            canopy_params=CanopyParams(subsample_size=100),
        )
        # Master seeds 5, 6 and 7; NONPRIVATE runs at 5.
        assert len(radii) == 3

    @pytest.mark.parametrize(
        "points, starts",
        [
            # Default radii for two k, given radii, and a subsample below N.
            (
                synthetic_blobs(400, 3, 3, seed=5).points,
                [
                    (3, CanopyParams()),
                    (2, CanopyParams()),
                    (3, CanopyParams(t1=0.5, t2=0.3)),
                    (3, CanopyParams(subsample_size=100)),
                ],
            ),
            # Radius halving, twice at the given radii.
            (_clumps(), [(2, CanopyParams(t1=0.5, t2=0.4)), (2, CanopyParams())]),
            # One canopy: random fill for k > 1.
            (np.full((20, 2), 0.5), [(3, CanopyParams()), (1, CanopyParams())]),
        ],
        ids=["blobs", "halving", "random-fill"],
    )
    def test_shared_dataset_gives_the_same_runs(self, points, starts):
        shared = Dataset(points=points, normalized=True)
        for seed in (3, 4, 3):
            for k, params in starts:
                for variant in Variant:
                    fresh = Dataset(points=points, normalized=True)
                    a_centroids, a_labels, a_report = _run(shared, variant, k, params, seed)
                    b_centroids, b_labels, b_report = _run(fresh, variant, k, params, seed)
                    assert a_report.comparable_json() == b_report.comparable_json()
                    assert np.array_equal(a_labels.labels, b_labels.labels)
                    assert np.array_equal(a_centroids.centroids, b_centroids.centroids)

    def test_first_pass_stops_at_top_k_and_halvings_run_to_the_end(self, monkeypatch):
        tops = []
        real = canopy.run_canopy

        def recorded(points, t1, t2, top=None):
            tops.append(top)
            return real(points, t1, t2, top=top)

        monkeypatch.setattr(canopy, "run_canopy", recorded)
        data = Dataset(points=_clumps(), normalized=True)
        summary = select_initial_centroids(data.points, 2, CanopyParams(t1=0.5, t2=0.4))
        assert summary.halvings == 2
        assert tops == [2, None, None]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_start_is_the_tight_rows_mean(self, blood_like, k):
        data = Dataset(points=blood_like.points, normalized=True)
        start, _, _ = _start(data, k, CanopyParams(), 0)
        summary = select_initial_centroids(data.points, k, CanopyParams())
        t1, t2 = default_thresholds(data.points)
        scale = 0.5**summary.halvings
        top = run_canopy(data.points, scale * t1, scale * t2)[:k]
        expected = np.vstack([data.points[c.tight_member_indices].mean(axis=0) for c in top])
        assert np.array_equal(start, expected)

    def test_entries_are_read_only_and_shared(self, small_blobs, monkeypatch):
        data = Dataset(points=small_blobs.points, normalized=True)
        handed = _given_rows(monkeypatch)
        _start(data, 3, CanopyParams(), 0)
        key = ("canopy", CanopyParams().subsample_size, None, None, None, 3)
        summary = core._STORES[data].get(key)
        # No subsample below the 400 rows: another master seed shares the entry.
        _start(data, 3, CanopyParams(), 1)
        assert len(handed) == 1
        assert core._STORES[data].get(key) is summary
        with pytest.raises(ValueError):
            summary.counts[0] = 0.0
        with pytest.raises(ValueError):
            summary.sums[0, 0] = 0.0
        with pytest.raises(AttributeError):
            summary.halvings = 1

    def test_summary_evicted_by_passes_is_recomputed_bit_for_bit(self, monkeypatch):
        data = synthetic_blobs(600, 3, 3, seed=4)
        inputs = PlannerInputs(n_rows=600, n_dims=3, k=3, epsilon_total=1.0)
        config = EngineConfig(master_seed=2)
        summaries = _counting(monkeypatch, "select_initial_centroids", engine)
        passes = _counting(monkeypatch, "run_canopy")
        jsons = [run_edpdcs(data, 3, inputs, config=config)[2].comparable_json()]
        sizes = {}
        for key, (_, size) in core._STORES[data].entries.items():
            sizes.setdefault(key[0], set()).add(size)
        (one,) = sizes["pass"]
        (canopy_bytes,) = sizes["canopy"]
        assert canopy_bytes < one
        # Room for a pass and less than a summary: a run's summary evicts the
        # last run's pass, and its step pass, against the same start, evicts
        # the summary.
        monkeypatch.setattr(core, "STORE_BYTES", one + canopy_bytes - 1)
        core._STORES.pop(data)
        for _ in range(2):
            jsons.append(run_edpdcs(data, 3, inputs, config=config)[2].comparable_json())
            assert all(key[0] == "pass" for key in core._STORES[data].entries)
        assert jsons[0] == jsons[1] == jsons[2]
        # Each run computed the summary anew, with the same bytes.
        assert len(passes) == len(summaries) == 3
        first, _, last = summaries
        assert last is not first
        assert (last.halvings, last.n_canopies) == (first.halvings, first.n_canopies)
        assert last.counts.tobytes() == first.counts.tobytes()
        assert last.sums.tobytes() == first.sums.tobytes()
