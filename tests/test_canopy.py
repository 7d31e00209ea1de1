import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpkmeans.canopy import (
    Canopy,
    CanopyParams,
    default_thresholds,
    draw_subsample,
    rank_canopies,
    run_canopy,
    select_initial_centroids,
    with_resolved_seed,
)
from dpkmeans.core import Dataset, InvalidInputError
from dpkmeans.mechanism import LaplaceSampler
from dpkmeans.planner import PlannerInputs, make_plan

THREE_POINTS = np.array([[0.0, 0.0], [0.05, 0.0], [0.9, 0.9]])


def _huge_budget_plan(n_rows, n_dims, k):
    return make_plan(
        PlannerInputs(n_rows=n_rows, n_dims=n_dims, k=k, epsilon_total=1e12)
    )


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
        assert len(canopies) == 2
        assert sorted(canopies[0].member_indices.tolist()) == [0, 1]
        assert canopies[1].member_indices.tolist() == [2]
        # ranked largest first
        assert canopies[0].size == 2 and canopies[1].size == 1

    def test_seed_pops_in_ascending_index_order(self):
        canopies = run_canopy(THREE_POINTS, t1=0.2, t2=0.1)
        assert canopies[0].seed_index == 0
        assert canopies[1].seed_index == 2

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

    def test_invalid_radii_rejected(self):
        with pytest.raises(InvalidInputError):
            run_canopy(THREE_POINTS, t1=0.1, t2=0.2)
        with pytest.raises(InvalidInputError):
            run_canopy(THREE_POINTS, t1=-1.0, t2=-2.0)

    def test_deterministic(self):
        rng = np.random.Generator(np.random.PCG64(3))
        pts = rng.random((100, 2))
        a = run_canopy(pts, t1=0.4, t2=0.2)
        b = run_canopy(pts, t1=0.4, t2=0.2)
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.member_indices, cb.member_indices)


class TestRanking:
    def test_largest_first_with_creation_order_ties(self):
        sizes = [7, 3, 9, 2, 9]
        canopies = [
            Canopy(
                seed_index=i,
                center=np.zeros(2),
                member_indices=np.arange(n),
                tight_member_indices=np.arange(n),
            )
            for i, n in enumerate(sizes)
        ]
        ranked = rank_canopies(canopies)
        assert [c.seed_index for c in ranked[:2]] == [2, 4]
        assert [c.size for c in ranked] == [9, 9, 7, 3, 2]


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


class TestDrawSubsample:
    def test_small_data_passes_through(self):
        data = Dataset(points=THREE_POINTS, normalized=True)
        pts, idx = draw_subsample(data, 10, seed=0)
        assert pts.shape == (3, 2)
        assert idx.tolist() == [0, 1, 2]

    def test_subsample_is_sorted_unique_and_seeded(self):
        rng = np.random.Generator(np.random.PCG64(5))
        data = Dataset(points=rng.random((500, 2)), normalized=True)
        pts_a, idx_a = draw_subsample(data, 100, seed=9)
        pts_b, idx_b = draw_subsample(data, 100, seed=9)
        assert np.array_equal(idx_a, idx_b)
        assert np.array_equal(pts_a, pts_b)
        assert len(set(idx_a.tolist())) == 100
        assert np.all(np.diff(idx_a) > 0)


class TestSelectInitialCentroids:
    def test_exact_mean_in_vanishing_noise_limit(self):
        data = Dataset(points=np.array([[0.0, 0.0], [1.0, 1.0]]), normalized=True)
        params = CanopyParams(t1=10.0, t2=10.0, seed=0)
        result = select_initial_centroids(
            data,
            1,
            params,
            _huge_budget_plan(2, 2, 1),
            LaplaceSampler(rng_seed=1),
            dp_enabled=True,
        )
        assert result.centroids.centroids[0] == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_three_point_example_near_tight_means(self):
        data = Dataset(points=THREE_POINTS, normalized=True)
        params = CanopyParams(t1=0.2, t2=0.1, seed=0)
        result = select_initial_centroids(
            data,
            2,
            params,
            _huge_budget_plan(3, 2, 2),
            LaplaceSampler(rng_seed=2),
            dp_enabled=True,
        )
        got = result.centroids.centroids
        assert got[0] == pytest.approx([0.025, 0.0], abs=1e-3)
        assert got[1] == pytest.approx([0.9, 0.9], abs=1e-3)
        assert result.centroids.noisy

    def test_consumes_k_times_d_plus_one_draws(self, small_blobs):
        plan = make_plan(
            PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        )
        sampler = LaplaceSampler(rng_seed=3)
        result = select_initial_centroids(
            small_blobs, 3, CanopyParams(seed=0), plan, sampler
        )
        assert result.noise_draws == 3 * (3 + 1)
        assert sampler.draw_count == result.noise_draws

    def test_deterministic_given_seed(self, small_blobs):
        plan = make_plan(
            PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        )
        a = select_initial_centroids(
            small_blobs, 3, CanopyParams(seed=4), plan, LaplaceSampler(rng_seed=8)
        )
        b = select_initial_centroids(
            small_blobs, 3, CanopyParams(seed=4), plan, LaplaceSampler(rng_seed=8)
        )
        assert np.array_equal(a.centroids.centroids, b.centroids.centroids)

    def test_heavy_noise_still_lands_in_unit_cube(self, small_blobs):
        plan = make_plan(
            PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1e-4)
        )
        result = select_initial_centroids(
            small_blobs, 3, CanopyParams(seed=5), plan, LaplaceSampler(rng_seed=6)
        )
        got = result.centroids.centroids
        assert np.all(got >= 0.0) and np.all(got <= 1.0)

    def test_dp_disabled_returns_exact_means_without_draws(self):
        data = Dataset(points=THREE_POINTS, normalized=True)
        result = select_initial_centroids(
            data, 2, CanopyParams(t1=0.2, t2=0.1, seed=0), None, None, dp_enabled=False
        )
        assert result.centroids.centroids[0] == pytest.approx([0.025, 0.0])
        assert result.centroids.centroids[1] == pytest.approx([0.9, 0.9])
        assert not result.centroids.noisy
        assert result.noise_draws == 0

    def test_identical_points_fall_back_to_random_fill(self):
        data = Dataset(points=np.full((20, 2), 0.5), normalized=True)
        result = select_initial_centroids(
            data,
            3,
            CanopyParams(seed=1),
            _huge_budget_plan(20, 2, 3),
            LaplaceSampler(rng_seed=1),
        )
        assert result.centroids.k == 3
        assert any("filled" in note for note in result.notes)
        assert np.all(result.centroids.centroids >= 0.0)
        assert np.all(result.centroids.centroids <= 1.0)

    def test_threshold_halving_is_reported(self):
        # Two clumps merge into one canopy at the loose default radius but
        # split after halving.
        rng = np.random.Generator(np.random.PCG64(7))
        clump_a = 0.45 + 0.01 * rng.random((30, 2))
        clump_b = 0.55 + 0.01 * rng.random((30, 2))
        data = Dataset(points=np.vstack([clump_a, clump_b]), normalized=True)
        result = select_initial_centroids(
            data,
            2,
            CanopyParams(t1=0.5, t2=0.4, seed=0),
            _huge_budget_plan(60, 2, 2),
            LaplaceSampler(rng_seed=2),
        )
        assert result.centroids.k == 2
        assert any("halved" in note for note in result.notes) or len(
            result.canopies
        ) >= 2

    def test_unresolved_seed_rejected(self, small_blobs):
        with pytest.raises(InvalidInputError):
            select_initial_centroids(
                small_blobs,
                2,
                CanopyParams(),
                _huge_budget_plan(400, 3, 2),
                LaplaceSampler(rng_seed=0),
            )

    def test_unnormalized_data_rejected(self):
        data = Dataset(points=np.array([[2.0, 3.0], [4.0, 5.0]]))
        with pytest.raises(InvalidInputError):
            select_initial_centroids(
                data,
                1,
                CanopyParams(seed=0),
                _huge_budget_plan(2, 2, 1),
                LaplaceSampler(rng_seed=0),
            )

    def test_dp_requires_plan_and_sampler(self, small_blobs):
        with pytest.raises(InvalidInputError):
            select_initial_centroids(
                small_blobs, 2, CanopyParams(seed=0), None, None, dp_enabled=True
            )


class TestCanopyParams:
    def test_thresholds_must_come_together(self):
        with pytest.raises(InvalidInputError):
            CanopyParams(t1=0.5)
        with pytest.raises(InvalidInputError):
            CanopyParams(t2=0.5)

    def test_tight_cannot_exceed_loose(self):
        with pytest.raises(InvalidInputError):
            CanopyParams(t1=0.1, t2=0.2)

    def test_subsample_size_positive(self):
        with pytest.raises(InvalidInputError):
            CanopyParams(subsample_size=0)

    def test_with_resolved_seed(self):
        params = CanopyParams()
        resolved = with_resolved_seed(params, 42)
        assert resolved.seed == 42
        already = CanopyParams(seed=7)
        assert with_resolved_seed(already, 42).seed == 7
