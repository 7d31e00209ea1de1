import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from dpkmeans.core import ClusterAggregate, InvalidInputError
from dpkmeans.mechanism import (
    BudgetExhaustedError,
    BudgetLedger,
    LaplaceSampler,
    derive_stream_seed,
    laplace_inverse_cdf,
    perturb_aggregate,
)

NON_FINITE = [float("nan"), float("inf")]


class TestLaplaceSampler:
    def test_median_uniform_maps_to_zero(self):
        assert laplace_inverse_cdf(np.array([0.5]), 2.0)[0] == 0.0

    def test_endpoint_uniform_stays_finite(self):
        out = laplace_inverse_cdf(np.array([0.0, 1.0 - 1e-17]), 1.0)
        assert np.isfinite(out).all()

    def test_empirical_variance_at_unit_scale(self):
        draws = LaplaceSampler(rng_seed=12345).draw_many(10**6, 1.0)
        assert draws.var() == pytest.approx(2.0, rel=0.05)

    def test_empirical_mean_at_scale_three(self):
        draws = LaplaceSampler(rng_seed=999).draw_many(10**6, 3.0)
        assert abs(draws.mean()) < 0.02

    def test_ks_against_reference_distribution(self):
        draws = LaplaceSampler(rng_seed=7).draw_many(10**5, 1.5)
        result = stats.kstest(draws, "laplace", args=(0.0, 1.5))
        assert result.pvalue > 0.01

    def test_same_seed_reproduces_stream(self):
        a = LaplaceSampler(rng_seed=42).draw_many(16, 0.7)
        b = LaplaceSampler(rng_seed=42).draw_many(16, 0.7)
        assert np.array_equal(a, b)

    def test_scalar_draws_match_vector_stream(self):
        vec = LaplaceSampler(rng_seed=9).draw_many(5, 2.0)
        scalar_sampler = LaplaceSampler(rng_seed=9)
        scalars = [scalar_sampler.draw(2.0) for _ in range(5)]
        assert np.array_equal(vec, np.array(scalars))

    def test_draw_count_bookkeeping(self):
        sampler = LaplaceSampler(rng_seed=0)
        sampler.draw(1.0)
        sampler.draw_many(10, 1.0)
        assert sampler.draw_count == 11

    def test_invalid_scale_rejected(self):
        sampler = LaplaceSampler(rng_seed=0)
        with pytest.raises(InvalidInputError):
            sampler.draw(0.0)
        with pytest.raises(InvalidInputError):
            sampler.draw_many(-1, 1.0)

    @pytest.mark.parametrize("scale", NON_FINITE)
    def test_non_finite_scale_rejected(self, scale):
        sampler = LaplaceSampler(rng_seed=0)
        with pytest.raises(InvalidInputError):
            sampler.draw(scale)
        with pytest.raises(InvalidInputError):
            sampler.draw_many(3, scale)
        assert sampler.draw_count == 0


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


class TestPerturbAggregate:
    def _agg(self, count=100.0, d=4):
        return ClusterAggregate(
            cluster_index=0, count=count, sums=np.linspace(0.0, 1.0, d)
        )

    def test_vanishing_noise_limit(self):
        agg = self._agg()
        noisy = perturb_aggregate(agg, 1e12, LaplaceSampler(rng_seed=1))
        assert noisy.count == pytest.approx(agg.count, abs=1e-9)
        assert noisy.sums == pytest.approx(agg.sums, abs=1e-9)

    def test_unbiased_count_monte_carlo(self):
        agg = self._agg(count=100.0, d=4)
        sampler = LaplaceSampler(rng_seed=2024)
        counts = np.empty(10**5)
        for i in range(counts.shape[0]):
            counts[i] = perturb_aggregate(agg, 1.0, sampler).count
        assert counts.mean() == pytest.approx(100.0, abs=0.05)

    def test_consumes_exactly_d_plus_one_draws(self):
        agg = self._agg(d=6)
        sampler = LaplaceSampler(rng_seed=3)
        perturb_aggregate(agg, 0.5, sampler)
        assert sampler.draw_count == 7

    def test_count_perturbed_before_sums(self):
        # Reconstruct the exact stream by hand: one count draw, then d sum
        # draws, all at 1/share from the same uniform sequence.
        agg = self._agg(count=10.0, d=3)
        seed = 77
        noisy = perturb_aggregate(agg, 2.0, LaplaceSampler(rng_seed=seed))
        u = np.random.Generator(np.random.PCG64(seed)).random(4)
        expected_count = agg.count + laplace_inverse_cdf(u[:1], 1.0 / 2.0)[0]
        expected_sums = agg.sums + laplace_inverse_cdf(u[1:], 1.0 / 2.0)
        assert noisy.count == expected_count
        assert np.array_equal(noisy.sums, expected_sums)

    def test_input_not_modified(self):
        agg = self._agg()
        before = agg.sums.copy()
        perturb_aggregate(agg, 1.0, LaplaceSampler(rng_seed=4))
        assert np.array_equal(agg.sums, before)
        assert agg.count == 100.0

    def test_nonpositive_epsilon_refused(self):
        with pytest.raises(InvalidInputError):
            perturb_aggregate(self._agg(), 0.0, LaplaceSampler(rng_seed=0))

    @pytest.mark.parametrize("share", NON_FINITE)
    def test_non_finite_epsilon_refused(self, share):
        sampler = LaplaceSampler(rng_seed=0)
        with pytest.raises(InvalidInputError):
            perturb_aggregate(self._agg(), share, sampler)
        assert sampler.draw_count == 0

    def test_distinct_streams_are_independent_bookkeeping(self):
        # Parallel composition across clusters: distinct sampler streams.
        samplers = [
            LaplaceSampler(rng_seed=derive_stream_seed(5, 2, j)) for j in range(3)
        ]
        outs = [perturb_aggregate(self._agg(), 1.0, s) for s in samplers]
        assert all(s.draw_count == 5 for s in samplers)
        noises = [o.count - 100.0 for o in outs]
        assert len(set(noises)) == 3


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
