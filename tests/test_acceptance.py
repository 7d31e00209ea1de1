"""End-to-end acceptance checks for the private clustering engine.

Each test covers one numbered criterion and emits a single
``[PASS]/[FAIL] criterion N`` line (collected in the terminal summary).
"""

import logging
import math
import os
import time
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy import stats

from dpkmeans import core
from dpkmeans.core import Assignment, CentroidSet, Dataset
from dpkmeans.engine import EngineConfig, Variant, run_baseline, run_edpdcs
from dpkmeans.evaluation import compare_variants, nicv
from dpkmeans.mechanism import laplace_inverse_cdf, noisy_mean
from dpkmeans.planner import PlannerInputs, make_plan, minimal_iteration_budget

EPSILON_GRID = [0.5, 1.0, 1.5, 2.0, 3.0]

# Reference per-iteration budget overrides for the two benchmark shapes and
# the iteration schedules they are documented to produce.
BLOOD_SHAPE = dict(n_rows=748, n_dims=4, k=2)
ADULT_SHAPE = dict(n_rows=48842, n_dims=6, k=5)
BLOOD_EPS_M = 0.65508
ADULT_EPS_M = 0.06799
BLOOD_SCHEDULE = [2, 2, 2, 3, 4]
ADULT_SCHEDULE = [7, 7, 7, 7, 7]


def _eps_m_oracle(k, d, n, rho="0.225", thr="0.01"):
    """50-digit-precision recomputation of the minimal iteration budget."""
    getcontext().prec = 50
    k, d, n = Decimal(k), Decimal(d), Decimal(n)
    rho, thr = Decimal(rho), Decimal(thr)
    value = (2 / thr) * k**3 * d * (1 + d) ** 2 * (1 + rho**2) / n**2
    return float(value.sqrt())


def _schedule(shape, override):
    plans = [
        make_plan(
            PlannerInputs(epsilon_total=eps, epsilon_m_override=override, **shape)
        )
        for eps in EPSILON_GRID
    ]
    return [p.iterations for p in plans]


class TestCriterion1:
    def test_reference_iteration_schedules(self, criterion):
        with criterion(1, "reference iteration schedules reproduced exactly"):
            t0 = time.perf_counter()
            assert _schedule(BLOOD_SHAPE, BLOOD_EPS_M) == BLOOD_SCHEDULE
            assert _schedule(ADULT_SHAPE, ADULT_EPS_M) == ADULT_SCHEDULE
            assert time.perf_counter() - t0 < 1.0


class TestCriterion2:
    def test_closed_form_minimal_budget(self, criterion, caplog):
        label = (
            "closed-form per-iteration budget matches 50-digit oracle; "
            "override discrepancy is logged"
        )
        with criterion(2, label):
            for shape in (BLOOD_SHAPE, ADULT_SHAPE):
                inputs = PlannerInputs(epsilon_total=1.0, **shape)
                got = minimal_iteration_budget(inputs)
                want = _eps_m_oracle(shape["k"], shape["n_dims"], shape["n_rows"])
                assert abs(got - want) <= 1e-10
            # The reference overrides sit well away from the closed form;
            # supplying one must leave a log trail quantifying the gap.
            for shape, override in (
                (BLOOD_SHAPE, BLOOD_EPS_M),
                (ADULT_SHAPE, ADULT_EPS_M),
            ):
                with caplog.at_level(logging.WARNING, logger="dpkmeans.planner"):
                    caplog.clear()
                    make_plan(
                        PlannerInputs(
                            epsilon_total=1.0, epsilon_m_override=override, **shape
                        )
                    )
                assert any(
                    "differs from computed" in rec.message for rec in caplog.records
                )


class TestCriterion3:
    def test_laplace_calibration(self, criterion):
        with criterion(3, "laplace sampler calibration: variance within 5%, KS ok"):
            t0 = time.perf_counter()
            for i, scale in enumerate((0.5, 1.0, 3.0)):
                u = np.random.Generator(np.random.PCG64(12345 + i)).random(10**6)
                draws = laplace_inverse_cdf(u, scale)
                want_var = 2.0 * scale * scale
                assert abs(draws.var() - want_var) <= 0.05 * want_var
                ks = stats.kstest(draws, "laplace", args=(0.0, scale))
                assert ks.pvalue > 0.01
            assert time.perf_counter() - t0 < 10.0


class TestPlannerErrorModel:
    """The planner's error model against the mechanism it plans for.

    With balanced clusters of n rows and every true coordinate at m, a
    noisy mean (m n + e_s) / (n + e_c) misses by about (e_s - m e_c) / n.
    The model counts only the sum noise e_s, so at rho = 0 the measured
    total over all k clusters and d coordinates is the model's times
    1 + m^2.
    """

    @pytest.mark.parametrize("m", [0.5, 0.2])
    @pytest.mark.parametrize("shape", [BLOOD_SHAPE, dict(ADULT_SHAPE, n_rows=48840)])
    def test_total_error_is_model_times_one_plus_m_squared(self, shape, m):
        inputs = PlannerInputs(epsilon_total=1.0, rho=0.0, **shape)
        eps_m = minimal_iteration_budget(inputs)
        k, d, draws = shape["k"], shape["n_dims"], 50_000
        counts = np.full(draws * k, shape["n_rows"] / k)
        sums = np.outer(counts, np.full(d, m))
        u = np.random.Generator(np.random.PCG64(20240601)).random((draws * k, d + 1))
        means = noisy_mean(counts, sums, eps_m / (d + 1), laplace_inverse_cdf(u, 1.0))
        totals = ((means - m) ** 2).reshape(draws, k * d).sum(axis=1)
        # At eps_m the model's total is the threshold itself.
        ratio = totals.mean() / inputs.mse_threshold
        stderr = totals.std() / math.sqrt(draws) / inputs.mse_threshold
        assert abs(ratio - (1.0 + m * m)) <= 4.0 * stderr


class TestCriterion4:
    def test_ledger_accounting(self, criterion, blood_like, adult_like):
        with criterion(4, "exact budget spend and k*(d+1) draws per iteration"):
            for data, k in ((blood_like, 2), (adult_like, 5)):
                draws_per_iter = k * (data.n_dims + 1)
                for eps in EPSILON_GRID:
                    inputs = PlannerInputs(
                        n_rows=data.n_rows, n_dims=data.n_dims, k=k, epsilon_total=eps
                    )
                    _, _, rep = run_edpdcs(data, k, inputs)
                    assert abs(rep.budget_spent - eps) <= 1e-12
                    charged = [
                        e for e in rep.iterations if e["budget_charged"] is not None
                    ]
                    assert len(charged) == rep.plan["iterations"]
                    assert all(e["noise_draws"] == draws_per_iter for e in charged)

                    cfg = EngineConfig(variant=Variant.RF_DPKM)
                    _, _, rep = run_baseline(data, k, eps, cfg, planner_inputs=inputs)
                    assert abs(rep.budget_spent - eps) <= 1e-12
                    lloyd = [e for e in rep.iterations if e["phase"] == "lloyd"]
                    assert all(e["noise_draws"] == draws_per_iter for e in lloyd)

                    cfg = EngineConfig(variant=Variant.RU_DPKM)
                    _, _, rep = run_baseline(data, k, eps, cfg)
                    want = sum(
                        eps / 2.0 ** (t + 1)
                        for t in range(1, rep.iterations_run + 1)
                    )
                    assert abs(rep.budget_spent - want) <= 1e-12
                    lloyd = [e for e in rep.iterations if e["phase"] == "lloyd"]
                    assert all(e["noise_draws"] == draws_per_iter for e in lloyd)


class TestCriterion5:
    def test_vanishing_noise_matches_exact_lloyd(self, criterion, blood_like):
        label = "near-zero noise run within 2% of exact lloyd from same start"
        with criterion(5, label):
            t0 = time.perf_counter()
            surrogate = 1e12
            inputs = PlannerInputs(
                n_rows=748, n_dims=4, k=2, epsilon_total=surrogate
            )
            plan = make_plan(inputs)
            assert 1.0 / plan.epsilon_dim < 1e-9  # every noise scale vanishes
            assert 1.0 / plan.epsilon_count < 1e-9
            for seed in range(10):
                cfg = EngineConfig(variant=Variant.EDPDCS, master_seed=seed)
                _, _, dp_rep = run_edpdcs(blood_like, 2, inputs, config=cfg)
                cfg = EngineConfig(variant=Variant.NONPRIVATE, master_seed=seed)
                _, _, exact_rep = run_baseline(blood_like, 2, None, cfg)
                assert dp_rep.nicv == pytest.approx(exact_rep.nicv, rel=0.02)
            assert time.perf_counter() - t0 < 30.0


class TestCriterion6:
    def test_mean_nicv_ordering(self, criterion, blood_like):
        label = "mean NICV of EDPDCS beats RF_DPKM and RU_DPKM (30 seeds)"
        with criterion(6, label):
            t0 = time.perf_counter()
            summary = compare_variants(blood_like, 2, EPSILON_GRID, 30)

            def wins(eps):
                ours = summary.cell("EDPDCS", eps).mean_nicv
                return (
                    ours < summary.cell("RF_DPKM", eps).mean_nicv
                    and ours < summary.cell("RU_DPKM", eps).mean_nicv
                )

            grid_wins = sum(wins(eps) for eps in EPSILON_GRID)
            # Primary claim is at the smallest budget; a single miss there is
            # tolerated only if the ordering holds on most of the grid.
            assert wins(0.5) or grid_wins > len(EPSILON_GRID) // 2
            assert time.perf_counter() - t0 < 120.0


def _exhaustive_two_partition_optimum(points):
    """Best NICV over every split of the rows into two non-empty groups."""
    n = points.shape[0]
    best = np.inf
    for mask_bits in range(1, 2 ** (n - 1)):  # row 0 stays in group A
        mask = np.array(
            [True] + [(mask_bits >> (i - 1)) & 1 == 0 for i in range(1, n)]
        )
        total = 0.0
        for side in (points[mask], points[~mask]):
            if side.shape[0] == 0:
                break
            centered = side - side.mean(axis=0)
            total += float((centered * centered).sum())
        else:
            best = min(best, total / n)
    return best


def _nicv_double_loop(points, centroids, labels):
    total = 0.0
    for i in range(points.shape[0]):
        for d in range(points.shape[1]):
            diff = points[i, d] - centroids[labels[i], d]
            total += diff * diff
    return total / points.shape[0]


class TestCriterion7:
    def test_exact_lloyd_bounded_by_exhaustive_optimum(self, criterion):
        label = "exact lloyd NICV >= exhaustive 2-partition optimum; oracle match"
        with criterion(7, label):
            for trial in range(5):
                rng = np.random.Generator(np.random.PCG64(100 + trial))
                n = int(rng.integers(4, 13))
                d = int(rng.integers(1, 4))
                data = Dataset(points=rng.random((n, d)), normalized=True)
                cfg = EngineConfig(variant=Variant.NONPRIVATE, master_seed=trial)
                cs, labels, rep = run_baseline(data, 2, None, cfg)
                optimum = _exhaustive_two_partition_optimum(data.points)
                assert rep.nicv >= optimum - 1e-12
                oracle = _nicv_double_loop(
                    data.points, cs.centroids, labels.labels
                )
                assert abs(nicv(data, cs, labels) - oracle) <= 1e-12


class TestCriterion8:
    def test_reports_identical_across_partition_counts(self, criterion, adult_like):
        label = "run reports identical across partition counts {1, 2, 8}"
        with criterion(8, label):
            inputs = PlannerInputs(
                n_rows=adult_like.n_rows,
                n_dims=adult_like.n_dims,
                k=5,
                epsilon_total=1.0,
            )
            blobs = []
            for parts in (1, 2, 8):
                # Every partition count reads the data: no run may be served
                # by the statistics an earlier one kept.
                core._STORES.pop(adult_like, None)
                cfg = EngineConfig(
                    variant=Variant.EDPDCS, n_partitions=parts, master_seed=0
                )
                _, _, rep = run_edpdcs(adult_like, 5, inputs, config=cfg)
                blobs.append(rep.comparable_json())
            assert blobs[0] == blobs[1] == blobs[2]
            assert '"centroids_after"' in blobs[0]

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="scaling trend needs >= 4 hardware threads",
    )
    def test_four_partitions_beat_one_on_large_data(self, adult_like):
        inputs = PlannerInputs(
            n_rows=adult_like.n_rows, n_dims=adult_like.n_dims, k=5, epsilon_total=1.0
        )

        def wall_clock(parts):
            cfg = EngineConfig(
                variant=Variant.EDPDCS,
                n_partitions=parts,
                threads=parts,
                master_seed=0,
            )
            best = np.inf
            for _ in range(3):
                # Time the threaded map, not the pass memo.
                core._STORES.pop(adult_like, None)
                t0 = time.perf_counter()
                run_edpdcs(adult_like, 5, inputs, config=cfg)
                best = min(best, time.perf_counter() - t0)
            return best

        assert wall_clock(4) < wall_clock(1)
