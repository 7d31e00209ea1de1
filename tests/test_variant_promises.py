"""What each variant promises, stated from the paper rather than from the
engine: its spend and schedule, the draws it makes, what its trace holds,
and the facts of Lloyd's iteration.  The reference run
(``test_reference_run.py``) takes its schedules from ``make_plan`` and the
engine's constants, and its streams from the engine's layout; these tests
do not.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpkmeans import engine
from dpkmeans.canopy import CanopyParams
from dpkmeans.core import CentroidSet, Dataset, assign_labels, label_points
from dpkmeans.engine import EngineConfig, Variant, run_baseline, run_edpdcs
from dpkmeans.evaluation import nicv
from dpkmeans.ingestion import synthetic_blobs
from dpkmeans.planner import PlannerInputs, make_plan, minimal_iteration_budget

PRIVATE = [Variant.EDPDCS, Variant.RF_DPKM, Variant.RU_DPKM]


def _run(data, k, variant, epsilon=1.0, **config):
    """One run of ``variant``; NONPRIVATE spends no ε."""
    cfg = EngineConfig(variant=variant, **{"master_seed": 1, **config})
    epsilon = epsilon if variant.spends_epsilon else None
    if variant is Variant.EDPDCS:
        inputs = PlannerInputs(
            n_rows=data.n_rows, n_dims=data.n_dims, k=k, epsilon_total=epsilon
        )
        return run_edpdcs(data, k, inputs, config=cfg)
    return run_baseline(data, k, epsilon, cfg)


def _lloyd(report):
    return [e for e in report.iterations if e["phase"] == "lloyd"]


def _one_exact_step(points, start):
    """Centroids after one exact Lloyd step from ``start``."""
    data = Dataset(points=np.array(points, dtype=np.float64), normalized=True)
    cfg = EngineConfig(variant=Variant.NONPRIVATE, nonprivate_max_iters=1)
    start = CentroidSet(centroids=start)
    return run_baseline(data, start.k, None, cfg, initial_centroids=start)


class TestSpend:
    @pytest.mark.parametrize("variant", [Variant.EDPDCS, Variant.RF_DPKM])
    def test_budget_exactly_spent(self, small_blobs, variant):
        _, _, report = _run(small_blobs, 3, variant)
        assert report.budget_spent == pytest.approx(1.0, abs=1e-12)
        assert report.budget_remaining == pytest.approx(0.0, abs=1e-12)
        if variant is Variant.RF_DPKM:  # a uniform split over the steps
            per_step = 1.0 / report.iterations_run
            assert [e["budget_charged"] for e in _lloyd(report)] == pytest.approx(
                [per_step] * report.iterations_run
            )

    def test_iteration_count_follows_plan(self, small_blobs):
        inputs = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        _, _, report = _run(small_blobs, 3, Variant.EDPDCS)
        assert report.iterations_run == make_plan(inputs).iterations
        assert report.plan["iterations"] == make_plan(inputs).iterations

    def test_two_iterations_at_twice_minimal_budget(self, small_blobs):
        inputs = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        eps = 2.0 * minimal_iteration_budget(inputs)
        _, _, report = _run(small_blobs, 3, Variant.RF_DPKM, eps, master_seed=0)
        assert report.iterations_run == 2
        assert [e["budget_charged"] for e in _lloyd(report)] == pytest.approx([eps / 2] * 2)

    def test_halving_schedule_charges(self, small_blobs):
        _, _, report = _run(small_blobs, 3, Variant.RU_DPKM)
        charges = [e["budget_charged"] for e in _lloyd(report)]
        halving = [1.0 / 2 ** (t + 1) for t in range(1, len(charges) + 1)]
        assert charges == pytest.approx(halving)
        assert report.budget_spent == pytest.approx(sum(halving), abs=1e-12)

    def test_residual_budget_reported_not_spent(self, small_blobs):
        _, _, report = _run(small_blobs, 3, Variant.RU_DPKM)
        assert report.budget_remaining > 0.49  # halving can never spend it all
        assert any("residual" in note for note in report.notes)
        if report.iterations_run == 10:
            assert report.budget_remaining == pytest.approx(0.50048828125, abs=1e-15)

    def test_never_runs_past_cap(self, small_blobs, monkeypatch):
        monkeypatch.setattr(engine, "RU_MAX_ITERS", 3)
        _, _, report = _run(small_blobs, 3, Variant.RU_DPKM, master_seed=4)
        assert report.iterations_run <= 3

    def test_nonprivate_converges_and_reports_zero_budget(self, small_blobs):
        _, _, report = _run(small_blobs, 3, Variant.NONPRIVATE)
        assert (report.budget_spent, report.budget_remaining, report.epsilon) == (0.0, 0.0, None)
        assert any("converged" in n for n in report.notes)
        assert report.iterations[-1]["centroid_shift"] < engine.NONPRIVATE_SHIFT_TOL

    @pytest.mark.parametrize("variant", PRIVATE)
    def test_each_charged_phase_draws_k_times_d_plus_one(self, small_blobs, variant):
        _, _, report = _run(small_blobs, 3, variant, 2.0)
        charged = [e for e in report.iterations if e["budget_charged"]]
        assert len(charged) == report.iterations_run
        assert all(e["noise_draws"] == 3 * (3 + 1) for e in charged)

    @pytest.mark.parametrize("variant", [Variant.RF_DPKM, Variant.RU_DPKM, Variant.NONPRIVATE])
    def test_init_is_free(self, small_blobs, variant):
        _, _, report = _run(small_blobs, 3, variant)
        init = report.iterations[0]
        assert (init["phase"], init["budget_charged"], init["noise_draws"]) == ("init", None, 0)


class TestReleases:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_same_seed_reproduces_bitwise(self, small_blobs, variant):
        cs_a, labels_a, rep_a = _run(small_blobs, 3, variant, master_seed=3)
        cs_b, labels_b, rep_b = _run(small_blobs, 3, variant, master_seed=3)
        assert np.array_equal(cs_a.centroids, cs_b.centroids)
        assert np.array_equal(labels_a.labels, labels_b.labels)
        assert rep_a.comparable_json() == rep_b.comparable_json()

    @pytest.mark.parametrize("variant", list(Variant))
    def test_final_centroids_are_in_the_cube_and_label_every_row(self, small_blobs, variant):
        cs, labels, report = _run(small_blobs, 3, variant, 0.5)
        assert report.epsilon == (0.5 if variant.spends_epsilon else None)
        assert np.all(cs.centroids >= 0.0) and np.all(cs.centroids <= 1.0)
        assert np.array_equal(labels.labels, label_points(small_blobs.points, cs.centroids))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_trace_structure(self, small_blobs, variant):
        _, _, report = _run(small_blobs, 3, variant)
        first = 1 if variant is Variant.EDPDCS else 0
        assert [e["iteration"] for e in report.iterations] == list(
            range(first, first + len(report.iterations))
        )
        assert report.iterations[0]["phase"] == "init"
        for entry in report.iterations[1:]:
            assert entry["phase"] == "lloyd"
            assert entry["centroid_shift"] >= 0.0 and entry["nicv_after"] > 0.0
        # Exact per-cluster counts and sums are raw data: never traced.
        for entry in report.iterations:
            assert "exact_aggregates" not in entry and "noisy_aggregates" not in entry

    # The last two runs converge before the cap.
    @pytest.mark.parametrize(
        "variant,epsilon",
        [(Variant.EDPDCS, 3.0), (Variant.RF_DPKM, 3.0), (Variant.RU_DPKM, 1.0),
         (Variant.RU_DPKM, 1e9), (Variant.NONPRIVATE, None)],
    )
    def test_nicv_after_is_nicv_of_centroids_after(self, variant, epsilon):
        data = synthetic_blobs(9000, 3, 4, seed=8)
        cs, labels, report = _run(data, 4, variant, epsilon, master_seed=2, n_partitions=2)
        if epsilon in (None, 1e9):
            assert any("converged" in n for n in report.notes)
        for it in report.iterations:
            after = CentroidSet(centroids=np.array(it["centroids_after"]))
            want = nicv(data, after, assign_labels(data, after))
            assert math.isclose(it["nicv_after"], want, rel_tol=1e-12)
        assert report.nicv == report.iterations[-1]["nicv_after"]
        assert math.isclose(report.nicv, nicv(data, cs, labels), rel_tol=1e-12)


class TestLloyd:
    def test_four_corners_single_step(self):
        corners = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        cs, labels, report = _one_exact_step(corners, np.array([[0.0, 0.5], [1.0, 0.5]]))
        assert np.array_equal(cs.centroids, [[0.0, 0.5], [1.0, 0.5]])
        assert labels.labels.tolist() == [0, 0, 1, 1]
        assert report.nicv == pytest.approx(0.25)
        assert "started from supplied centroids" in report.notes

    def test_plain_mean_without_privacy(self):
        points = [[0.25, 0.5], [0.75, 1.0], [0.5, 0.75], [0.5, 0.75], [1.0, 0.0]]
        cs, _, _ = _one_exact_step(points, np.array([[0.5, 0.7], [0.9, 0.1]]))
        assert cs.centroids[0] == pytest.approx([0.5, 0.75])
        assert cs.centroids[1] == pytest.approx([1.0, 0.0])

    def test_empty_cluster_keeps_previous_centroid(self):
        start = np.array([[0.05, 0.05], [0.3, 0.7]])
        cs, _, _ = _one_exact_step([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]], start)
        assert cs.centroids[0] == pytest.approx([1 / 30, 1 / 30])
        assert np.array_equal(cs.centroids[1], [0.3, 0.7])

    def test_nicv_never_increases_across_iterations(self, small_blobs):
        _, _, report = _run(small_blobs, 3, Variant.NONPRIVATE, master_seed=0)
        values = [e["nicv_after"] for e in _lloyd(report)]
        assert len(values) >= 1
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_matches_plain_lloyd_reference(self, small_blobs):
        # An independent dense Lloyd iteration from the run's canopy start.
        cs, _, report = _run(small_blobs, 3, Variant.NONPRIVATE, master_seed=0)
        expect = np.array(report.iterations[0]["centroids_after"])
        pts = small_blobs.points
        for _ in range(100):
            lab = ((pts[:, None, :] - expect[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
            new = np.vstack(
                [pts[lab == j].mean(axis=0) if np.any(lab == j) else expect[j] for j in range(3)]
            )
            moved = np.linalg.norm(new - expect, axis=1).max()
            expect = new
            if moved < 1e-9:
                break
        assert cs.centroids == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("variant,epsilon", [(Variant.EDPDCS, 1e12), (Variant.RF_DPKM, 1e12)])
    def test_k_one_huge_budget_recovers_dataset_mean(self, small_blobs, variant, epsilon):
        cs, _, _ = _run(small_blobs, 1, variant, epsilon)
        assert cs.centroids[0] == pytest.approx(small_blobs.points.mean(axis=0), abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(
        variant=st.sampled_from(list(Variant)),
        n_rows=st.integers(8, 600),
        n_dims=st.integers(1, 4),
        k=st.integers(1, 4),
        n_centers=st.integers(1, 4),
        epsilon=st.floats(0.05, 50.0),
        seed=st.integers(0, 2**16),
    )
    def test_run_invariants(self, variant, n_rows, n_dims, k, n_centers, epsilon, seed):
        data = synthetic_blobs(n_rows, n_dims, n_centers, seed=seed)
        cs, labels, report = _run(data, k, variant, epsilon, master_seed=2)
        assert np.all(cs.centroids >= 0.0) and np.all(cs.centroids <= 1.0)
        assert labels.n_rows == n_rows
        trace = report.iterations
        assert report.iterations_run == trace[-1]["iteration"]
        spent = sum(it["budget_charged"] or 0.0 for it in trace)
        assert report.budget_spent == spent
        if variant in (Variant.EDPDCS, Variant.RF_DPKM):
            assert spent == pytest.approx(epsilon, rel=1e-12)
        elif variant is Variant.RU_DPKM:
            halving = 0.0
            for t in range(1, report.iterations_run + 1):
                halving += epsilon / 2.0 ** (t + 1)
            assert spent == halving
        else:
            assert spent == 0.0
        draws = k * (n_dims + 1)
        for it in trace[1:]:
            assert it["noise_draws"] == (0 if it["budget_charged"] is None else draws)
        if variant is Variant.EDPDCS:
            # Canopy init draws d + 1 per canopy; a shortfall is filled with
            # noise-free random points and noted.
            assert trace[0]["noise_draws"] % (n_dims + 1) == 0
            assert trace[0]["noise_draws"] == draws or any("filled" in n for n in report.notes)


#: The stream (i, j) of the master seed each purpose of a run draws from;
#: step t draws cluster j's noise from (t, j).  Two streams are shared
#: (ROADMAP item 1): (0, 1), and (1, 0) with step 1's cluster 0.
STREAMS = {"subsample": (0, 0), "fill": (0, 1), "random rows": (0, 1), "start noise": (1, 0)}


class TestStreamPurposes:
    """A run derives the streams of its purposes and no others, in order."""

    @pytest.mark.parametrize("case", ["below subsample", "above subsample", "fill"])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_each_purpose_draws_from_its_stream(self, monkeypatch, variant, case):
        calls = []
        real = engine.derive_stream_seed

        def recorded(master_seed, iteration, cluster_index):
            calls.append((master_seed, iteration, cluster_index))
            return real(master_seed, iteration, cluster_index)

        for name, module in list(sys.modules.items()):
            if name.startswith("dpkmeans") and getattr(module, "derive_stream_seed", None) is real:
                monkeypatch.setattr(module, "derive_stream_seed", recorded)
        k, params = 3, None
        if case == "fill":
            data = Dataset(points=np.full((20, 2), 0.5), normalized=True)
        else:
            data = synthetic_blobs(300, 2, 3, seed=1)
        if case == "above subsample" and variant.has_canopy_start:
            params = CanopyParams(subsample_size=100)
        config = EngineConfig(variant=variant, master_seed=7)
        if variant is Variant.EDPDCS:
            inputs = PlannerInputs(n_rows=data.n_rows, n_dims=2, k=k, epsilon_total=3.0)
            report = run_edpdcs(data, k, inputs, params, config)[2]
        else:
            epsilon = 3.0 if variant.spends_epsilon else None
            report = run_baseline(data, k, epsilon, config, canopy_params=params)[2]

        purposes = []
        if not variant.has_canopy_start:
            purposes.append("random rows")
        else:
            if params is not None:
                purposes.append("subsample")
            if variant.spends_epsilon:
                purposes.append("start noise")
            if case == "fill":
                assert any(note.startswith("filled") for note in report.notes)
                purposes.append("fill")
        want = [STREAMS[purpose] for purpose in purposes]
        for entry in report.iterations[1:]:
            if entry["budget_charged"] is not None:
                want += [(entry["iteration"], j) for j in range(k)]
        assert calls == [(7, i, j) for i, j in want]
