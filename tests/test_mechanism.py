import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from dpkmeans.core import InvalidInputError
from dpkmeans.engine import EngineConfig, Variant, run_baseline, run_edpdcs
from dpkmeans.ingestion import synthetic_blobs
from dpkmeans.mechanism import (
    BudgetExhaustedError,
    BudgetLedger,
    derive_stream_seed,
    laplace_inverse_cdf,
    noisy_mean,
    perturb_aggregate,
    stream_unit_noise,
)
from dpkmeans.planner import PlannerInputs

NON_FINITE = [float("nan"), float("inf")]


def _laplace(seed, n, scale):
    """``n`` Laplace(0, scale) draws from the PCG64 stream seeded ``seed``."""
    return laplace_inverse_cdf(np.random.Generator(np.random.PCG64(seed)).random(n), scale)


def _scalar_noisy_mean(master_seed, iteration, counts, sums, share):
    """Reference for the block noisy mean, one cluster at a time: a count
    draw, then the d sum draws, from the cluster's own stream."""
    out = []
    for j, (count, cluster_sums) in enumerate(zip(counts, sums)):
        rng = np.random.Generator(
            np.random.PCG64(derive_stream_seed(master_seed, iteration, j))
        )
        noisy_count = count + laplace_inverse_cdf(rng.random(1), 1.0 / share)[0]
        noise = laplace_inverse_cdf(rng.random(cluster_sums.shape[0]), 1.0 / share)
        out.append(np.clip((cluster_sums + noise) / max(noisy_count, 1.0), 0.0, 1.0))
    return np.array(out)


class TestLaplaceSampler:
    """Laplace draws: ``laplace_inverse_cdf`` over a seeded PCG64 stream."""

    def test_median_uniform_maps_to_zero(self):
        assert laplace_inverse_cdf(np.array([0.5]), 2.0)[0] == 0.0

    def test_endpoint_uniform_stays_finite(self):
        out = laplace_inverse_cdf(np.array([0.0, 1.0 - 1e-17]), 1.0)
        assert np.isfinite(out).all()

    def test_empirical_variance_at_unit_scale(self):
        draws = _laplace(12345, 10**6, 1.0)
        assert draws.var() == pytest.approx(2.0, rel=0.05)

    def test_empirical_mean_at_scale_three(self):
        draws = _laplace(999, 10**6, 3.0)
        assert abs(draws.mean()) < 0.02

    def test_ks_against_reference_distribution(self):
        draws = _laplace(7, 10**5, 1.5)
        result = stats.kstest(draws, "laplace", args=(0.0, 1.5))
        assert result.pvalue > 0.01

    def test_same_seed_reproduces_stream(self):
        a = stream_unit_noise(42, 3, 2, 16)
        stream_unit_noise.cache_clear()
        assert np.array_equal(a, stream_unit_noise(42, 3, 2, 16))

    def test_scalar_draws_match_vector_stream(self):
        # Row j of a block is cluster j's own stream, drawn one value at a
        # time or all at once.
        block = stream_unit_noise(9, 2, 3, 5)
        for j in range(3):
            rng = np.random.Generator(np.random.PCG64(derive_stream_seed(9, 2, j)))
            want = [laplace_inverse_cdf(rng.random(1), 1.0)[0] for _ in range(5)]
            assert block[j].tobytes() == np.array(want).tobytes()

    def test_draw_count_bookkeeping(self):
        # A block holds exactly n_streams * n draws, and a longer read of a
        # stream starts with the shorter one (the canopy start relies on it).
        assert stream_unit_noise(0, 1, 4, 7).shape == (4, 7)
        longer = stream_unit_noise(0, 1, 1, 30)
        assert np.array_equal(longer[0, :12], stream_unit_noise(0, 1, 1, 12)[0])

    def test_invalid_scale_rejected(self):
        with pytest.raises(InvalidInputError):
            laplace_inverse_cdf(np.array([0.3]), 0.0)
        with pytest.raises(InvalidInputError):
            stream_unit_noise(0, 1, 1, -1)
        with pytest.raises(InvalidInputError):
            stream_unit_noise(0, 1, -1, 1)

    @pytest.mark.parametrize("scale", NON_FINITE)
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(InvalidInputError):
            laplace_inverse_cdf(np.array([0.3]), scale)


class TestStreamSeeds:
    def test_deterministic(self):
        assert derive_stream_seed(3, 2, 1) == derive_stream_seed(3, 2, 1)

    def test_distinct_across_keys(self):
        seeds = {
            derive_stream_seed(master, it, j)
            for master in range(3)
            for it in range(5)
            for j in range(5)
        }
        assert len(seeds) == 3 * 5 * 5

    def test_negative_keys_rejected(self):
        with pytest.raises(InvalidInputError):
            derive_stream_seed(0, -1, 0)
        with pytest.raises(InvalidInputError):
            derive_stream_seed(0, 0, -1)


class TestStreamMemo:
    def test_block_is_read_only(self):
        block = stream_unit_noise(1, 2, 3, 4)
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 0.5

    def test_block_is_the_unit_scale_inverse_cdf(self):
        want = np.array([_laplace(derive_stream_seed(1, 2, j), 4, 1.0) for j in range(3)])
        assert stream_unit_noise(1, 2, 3, 4).tobytes() == want.tobytes()

    def test_scaled_unit_noise_is_the_draw_at_that_scale(self):
        # Byte for byte, so inf, -inf and -0.0 (at u = 0.5) must match too.
        edges = [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                 np.nextafter(1.0, 0.0), 5e-324]
        u = np.concatenate([edges, np.random.Generator(np.random.PCG64(8)).random(10**6)])
        unit = laplace_inverse_cdf(u, 1.0)
        for scale in [5e-300, 1e-17, 0.3, 1.0, 7.0 / 3.0, 1e17, 1e300]:
            assert (unit * scale).tobytes() == laplace_inverse_cdf(u, scale).tobytes()

    @pytest.mark.parametrize(
        "variant", [Variant.EDPDCS, Variant.RF_DPKM, Variant.RU_DPKM]
    )
    def test_cold_and_warm_memo_give_the_same_run(self, variant):
        data = synthetic_blobs(300, 3, 3, seed=4)
        config = EngineConfig(variant=variant, master_seed=11)

        def run():
            if variant is Variant.EDPDCS:
                inputs = PlannerInputs(n_rows=300, n_dims=3, k=3, epsilon_total=2.0)
                return run_edpdcs(data, 3, inputs, None, config)
            return run_baseline(data, 3, 2.0, config)

        cold = run()
        hits = stream_unit_noise.cache_info().hits
        warm = run()
        assert stream_unit_noise.cache_info().hits > hits
        assert cold[2].comparable_json() == warm[2].comparable_json()
        assert np.array_equal(cold[0].centroids, warm[0].centroids)
        assert np.array_equal(cold[1].labels, warm[1].labels)
        # Every charged step draws k (d + 1) values, cold or warm.
        for report in (cold[2], warm[2]):
            steps = [it for it in report.iterations if it["phase"] == "lloyd"]
            assert steps and all(it["noise_draws"] == 3 * 4 for it in steps)


@st.composite
def _blocks(draw):
    k = draw(st.integers(1, 5))
    d = draw(st.integers(1, 6))
    counts = draw(hnp.arrays(np.float64, k, elements=st.integers(0, 40).map(float)))
    fractions = draw(hnp.arrays(np.float64, (k, d), elements=st.floats(0.0, 1.0)))
    return counts, fractions * counts[:, None]


class TestPerturbAggregate:
    def _stats(self, count=100.0, k=1, d=4):
        return np.full(k, count), np.tile(np.linspace(0.0, 1.0, d), (k, 1))

    def test_vanishing_noise_limit(self):
        counts, sums = self._stats()
        noisy_counts, noisy_sums = perturb_aggregate(
            counts, sums, 1e12, stream_unit_noise(1, 1, 1, 5)
        )
        assert noisy_counts == pytest.approx(counts, abs=1e-9)
        assert noisy_sums == pytest.approx(sums, abs=1e-9)

    def test_unbiased_count_monte_carlo(self):
        # 10^5 clusters read one stream in turn, d + 1 = 5 draws each.
        counts, sums = self._stats(count=100.0, k=10**5, d=4)
        u = np.random.Generator(np.random.PCG64(2024)).random((10**5, 5))
        noisy_counts, _ = perturb_aggregate(counts, sums, 1.0, laplace_inverse_cdf(u, 1.0))
        assert noisy_counts.mean() == pytest.approx(100.0, abs=0.05)

    def test_consumes_exactly_d_plus_one_draws(self):
        counts, sums = self._stats(k=2, d=6)
        perturb_aggregate(counts, sums, 0.5, stream_unit_noise(3, 1, 2, 7))
        for n in (6, 8):
            with pytest.raises(InvalidInputError):
                perturb_aggregate(counts, sums, 0.5, stream_unit_noise(3, 1, 2, n))
        with pytest.raises(InvalidInputError):
            perturb_aggregate(counts, sums, 0.5, stream_unit_noise(3, 1, 3, 7))

    def test_count_perturbed_before_sums(self):
        # Reconstruct the exact stream by hand: one count draw, then d sum
        # draws, all at 1/share from the same uniform sequence.
        counts, sums = self._stats(count=10.0, d=3)
        u = np.random.Generator(np.random.PCG64(77)).random(4)
        unit = laplace_inverse_cdf(u[None, :], 1.0)
        noisy_counts, noisy_sums = perturb_aggregate(counts, sums, 2.0, unit)
        expected_count = counts[0] + laplace_inverse_cdf(u[:1], 1.0 / 2.0)[0]
        expected_sums = sums[0] + laplace_inverse_cdf(u[1:], 1.0 / 2.0)
        assert noisy_counts[0] == expected_count
        assert np.array_equal(noisy_sums[0], expected_sums)

    def test_input_not_modified(self):
        counts, sums = self._stats()
        before = counts.copy(), sums.copy()
        perturb_aggregate(counts, sums, 1.0, stream_unit_noise(4, 1, 1, 5))
        assert np.array_equal(counts, before[0])
        assert np.array_equal(sums, before[1])

    def test_nonpositive_epsilon_refused(self):
        with pytest.raises(InvalidInputError):
            perturb_aggregate(*self._stats(), 0.0, stream_unit_noise(0, 1, 1, 5))

    @pytest.mark.parametrize("share", NON_FINITE)
    def test_non_finite_epsilon_refused(self, share):
        with pytest.raises(InvalidInputError):
            perturb_aggregate(*self._stats(), share, stream_unit_noise(0, 1, 1, 5))

    @pytest.mark.parametrize("share", [1e-309, 1e-306])
    def test_share_whose_noise_overflows_refused(self, share):
        # 1 / 1e-309 overflows; 1 / 1e-306 is finite, but a unit draw of
        # up to 744 times it is not.
        with pytest.raises(InvalidInputError, match="noise overflows"):
            perturb_aggregate(*self._stats(), share, stream_unit_noise(0, 1, 1, 5))

    def test_smallest_share_keeps_the_largest_draw_finite(self):
        largest = laplace_inverse_cdf(np.array([0.0]), 1.0)
        for share in (1e-300, 746.0 / np.finfo(np.float64).max):
            noisy_counts, noisy_sums = perturb_aggregate(
                *self._stats(k=1, d=1), share, np.hstack([largest, -largest])[None, :]
            )
            assert np.isfinite(noisy_counts).all() and np.isfinite(noisy_sums).all()

    def test_distinct_streams_are_independent_bookkeeping(self):
        # Parallel composition across clusters: each row its own stream.
        counts, sums = self._stats(k=3)
        noisy_counts, _ = perturb_aggregate(counts, sums, 1.0, stream_unit_noise(5, 2, 3, 5))
        assert len(set((noisy_counts - 100.0).tolist())) == 3

    @settings(max_examples=200, deadline=None)
    @given(
        block=_blocks(),
        share=st.floats(1e-3, 1e12),
        master_seed=st.integers(0, 2**32),
        iteration=st.integers(1, 12),
    )
    # An empty cluster at a tiny share: the count floor and the clip.
    @example(block=(np.zeros(2), np.zeros((2, 3))), share=1e-3, master_seed=0, iteration=1)
    # The floor alone: noise at scale 10 takes a count of 2 below 1 (stream
    # (2, 0) of master seed 0 draws -4.02...).
    @example(
        block=(np.array([2.0]), np.array([[1.2, 0.4]])), share=0.1, master_seed=0, iteration=2
    )
    def test_block_noisy_mean_matches_scalar_reference(
        self, block, share, master_seed, iteration
    ):
        counts, sums = block
        k, d = sums.shape
        got = noisy_mean(
            counts, sums, share, stream_unit_noise(master_seed, iteration, k, d + 1)
        )
        want = _scalar_noisy_mean(master_seed, iteration, counts, sums, share)
        assert np.array_equal(got, want)

    def test_clamp_is_bit_equal_to_np_clip(self):
        # Uniforms of 0.5 draw zero noise, so the means are sums / counts:
        # one underflows to -0.0, one lies below the cube, one above, one in.
        counts = np.array([1e10, 1.0])
        sums = np.array([[-1e-320, 0.25], [-0.5, 2.0]])
        zero = laplace_inverse_cdf(np.full((2, 3), 0.5), 1.0)
        got = noisy_mean(counts, sums, 1.0, zero)
        want = np.clip(sums / counts[:, None], 0.0, 1.0)
        assert np.signbit(want[0, 0])
        assert got.tobytes() == want.tobytes()


class TestBudgetLedger:
    def test_exact_spend(self):
        ledger = BudgetLedger(total=1.0)
        ledger.charge("a", 0.5)
        ledger.charge("b", 0.5)
        assert ledger.spent == 1.0
        ledger.assert_fully_spent()

    def test_overspend_raises_on_second_charge(self):
        ledger = BudgetLedger(total=1.0)
        ledger.charge("a", 0.6)
        with pytest.raises(BudgetExhaustedError):
            ledger.charge("b", 0.6)

    def test_four_equal_charges(self):
        ledger = BudgetLedger(total=2.0)
        for i in range(4):
            ledger.charge(f"iter-{i}", 0.5)
        assert ledger.spent == 2.0
        assert ledger.remaining == 0.0

    def test_nonpositive_charge_rejected(self):
        ledger = BudgetLedger(total=1.0)
        with pytest.raises(InvalidInputError):
            ledger.charge("a", 0.0)

    @pytest.mark.parametrize("amount", NON_FINITE)
    def test_non_finite_charge_rejected(self, amount):
        ledger = BudgetLedger(total=1.0)
        with pytest.raises(InvalidInputError):
            ledger.charge("a", amount)
        assert ledger.entries == [] and ledger.spent == 0.0

    def test_nonpositive_total_rejected(self):
        with pytest.raises(InvalidInputError):
            BudgetLedger(total=0.0)

    @pytest.mark.parametrize("total", [float("nan"), float("inf")])
    def test_non_finite_total_rejected(self, total):
        with pytest.raises(InvalidInputError):
            BudgetLedger(total=total)

    def test_partially_spent_fails_full_spend_check(self):
        ledger = BudgetLedger(total=1.0)
        ledger.charge("a", 0.25)
        with pytest.raises(BudgetExhaustedError):
            ledger.assert_fully_spent()

    @settings(max_examples=60)
    @given(
        epsilon=st.floats(1e-3, 1e3, allow_nan=False),
        iterations=st.integers(2, 12),
    )
    def test_uniform_split_spends_total_within_tolerance(self, epsilon, iterations):
        ledger = BudgetLedger(total=epsilon)
        share = epsilon / iterations
        for t in range(iterations):
            ledger.charge(f"iteration-{t}", share)
        assert abs(ledger.spent - epsilon) <= 1e-12 * max(1.0, epsilon)
        # and bit-for-bit against the same left-to-right accumulation
        acc = 0.0
        for _ in range(iterations):
            acc += share
        assert ledger.spent == acc
