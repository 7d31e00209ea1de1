import dataclasses
import json
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpkmeans import core, engine
from dpkmeans.canopy import CanopyParams, select_initial_centroids
from dpkmeans.core import (
    CentroidSet,
    Dataset,
    InvalidInputError,
    assign_labels,
    label_points,
)
from dpkmeans.engine import (
    EngineConfig,
    Variant,
    block_spans,
    run_baseline,
    run_edpdcs,
)
from dpkmeans.evaluation import compare_variants, nicv
from dpkmeans.ingestion import normalize, synthetic_blobs
from dpkmeans.mechanism import derive_stream_seed, laplace_inverse_cdf, noisy_mean
from dpkmeans.planner import PlannerInputs, make_plan, minimal_iteration_budget

CORNERS = Dataset(
    points=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
    normalized=True,
)


def _one_exact_step(points, start):
    """Centroids after one exact Lloyd step from ``start``."""
    data = Dataset(points=np.array(points, dtype=np.float64), normalized=True)
    cfg = EngineConfig(variant=Variant.NONPRIVATE, nonprivate_max_iters=1)
    start = CentroidSet(centroids=start)
    cs, _, _ = run_baseline(data, start.k, None, cfg, initial_centroids=start)
    return cs.centroids


def _one_cluster_mean(count, sums, share, seed):
    """One cluster's noisy mean, its d + 1 draws from the PCG64 stream ``seed``."""
    sums = np.array([sums], dtype=np.float64)
    u = np.random.Generator(np.random.PCG64(seed)).random((1, sums.shape[1] + 1))
    return noisy_mean(np.array([float(count)]), sums, share, laplace_inverse_cdf(u, 1.0))[0]


class TestBlockSpans:
    def test_exact_multiple(self):
        assert block_spans(8192) == [(0, 4096), (4096, 8192)]

    def test_ragged_tail(self):
        assert block_spans(5000) == [(0, 4096), (4096, 5000)]

    def test_small_input_single_block(self):
        assert block_spans(10) == [(0, 10)]

    def test_one_row_past_two_blocks(self):
        n = 2 * engine.MAP_BLOCK_ROWS + 1
        assert block_spans(n) == [(0, 4096), (4096, 8192), (8192, 8193)]


class TestMapAssign:
    def test_two_cluster_example(self):
        pts = np.array([[0.0, 0.1], [0.1, 0.0], [0.9, 1.0]])
        centroids = np.array([[0.0, 0.0], [1.0, 1.0]])
        labels, counts, sums, sq_dist = engine._block_partials(pts, centroids, 2)
        assert labels.tolist() == [0, 0, 1]
        assert counts.tolist() == [2.0, 1.0]
        assert sums[0] == pytest.approx([0.1, 0.1])
        assert sums[1] == pytest.approx([0.9, 1.0])
        assert sq_dist == pytest.approx(0.01 + 0.01 + 0.01)

    def test_empty_cluster_has_zero_count_and_sums(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0]])
        centroids = np.array([[0.0, 0.0], [1.0, 1.0]])
        _, counts, sums, _ = engine._block_partials(pts, centroids, 2)
        assert counts.tolist() == [2.0, 0.0]
        assert sums[0] == pytest.approx([0.1, 0.0])
        assert sums[1].tolist() == [0.0, 0.0]

    def test_empty_partition_yields_empty_map(self):
        labels, counts, sums, sq_dist = engine._block_partials(
            np.empty((0, 2)), np.array([[0.5, 0.5]]), 1
        )
        assert labels.shape == (0,)
        assert counts.tolist() == [0.0] and sums.tolist() == [[0.0, 0.0]]
        assert sq_dist == 0.0

    def test_counts_total_the_partition(self):
        rng = np.random.Generator(np.random.PCG64(0))
        pts = rng.random((321, 3))
        _, counts, sums, _ = engine._block_partials(pts, rng.random((4, 3)), 4)
        assert counts.sum() == 321.0
        assert sums.sum(axis=0) == pytest.approx(pts.sum(axis=0))


class TestBlockPartials:
    @pytest.mark.parametrize("d,k", [(4, 2), (6, 5), (16, 20), (1, 7)])
    def test_sums_bit_equal_to_unbuffered_add_at(self, d, k):
        rng = np.random.Generator(np.random.PCG64(d * 31 + k))
        pts = rng.random((4096, d))
        centroids = rng.random((k, d))
        centroids[-1] = 50.0  # never nearest: an empty cluster
        labels, counts, sums, sq_dist = engine._block_partials(pts, centroids, k)
        want = np.zeros((k, d))
        np.add.at(want, label_points(pts, centroids), pts)
        assert np.array_equal(sums, want)
        assert counts[-1] == 0.0 and not sums[-1].any()
        assert np.array_equal(counts, np.bincount(labels, minlength=k))
        diff = pts - centroids[labels]
        assert sq_dist == float((diff * diff).sum())

    @pytest.mark.parametrize(
        "case", ["corners", "dyadic bisectors", "rows as centroids", "near duplicates"]
    )
    def test_unit_cube_labels_are_the_exact_paths(self, case):
        # The map task bounds every row's squared norm by d, which rows at
        # the cube's far corner reach exactly.
        rng = np.random.Generator(np.random.PCG64(12))
        n, d = 3000, 5
        if case == "near duplicates":
            # Pairs of centroids 1e-15 apart: many rows are nearer one of a
            # pair than the other by less than the product's rounding error.
            pts = rng.random((n, d))
            base = rng.random((3, d))
            nudged = base + 1e-15 * rng.standard_normal((3, d))
            centroids = np.clip(np.vstack([base, nudged]), 0.0, 1.0)
        elif case == "corners":
            pts = rng.integers(0, 2, (n, d)).astype(np.float64)
            centroids = rng.integers(0, 3, (6, d)) / 2.0
        elif case == "dyadic bisectors":
            pts = rng.integers(0, 9, (n, d)) / 8.0
            centroids = rng.integers(0, 5, (6, d)) / 4.0
        else:
            pts = rng.random((n, d))
            centroids = pts[rng.choice(n, 6, replace=False)]
        labels = engine._block_partials(pts, centroids, 6)[0]
        assert np.array_equal(labels, core._label_exact(pts, centroids))


class TestReduceCluster:
    def test_plain_mean_without_privacy(self):
        points = [[0.25, 0.5], [0.75, 1.0], [0.5, 0.75], [0.5, 0.75], [1.0, 0.0]]
        c = _one_exact_step(points, np.array([[0.5, 0.7], [0.9, 0.1]]))
        assert c[0] == pytest.approx([0.5, 0.75])
        assert c[1] == pytest.approx([1.0, 0.0])

    def test_merge_is_left_fold_over_given_order(self):
        # The reduce's input is the labelling pass's merge of the block
        # partials, added in ascending block order whatever the partitions.
        rng = np.random.Generator(np.random.PCG64(4))
        data = Dataset(points=rng.random((9000, 3)), normalized=True)
        centroids = rng.random((4, 3))
        counts = np.zeros(4)
        sums = np.zeros((4, 3))
        for start, stop in block_spans(data.n_rows):
            _, c, s, _ = engine._block_partials(data.points[start:stop], centroids, 4)
            counts += c
            sums += s
        for parts in (1, 2, 3):
            agg = engine._BlockAggregator(data, parts, min(parts, 2))
            try:
                got_counts, got_sums, _, _ = agg.labelling_pass(centroids)
            finally:
                agg.close()
            assert np.array_equal(got_counts, counts)
            assert np.array_equal(got_sums, sums)

    def test_merge_from_first_block_equals_fold_from_zeros(self):
        # Three blocks: the first all -0.0 rows, which alone make up the
        # cluster at the origin, and one cluster no row is nearest to.  The
        # merge starts from block 0's partials; that must equal a left fold
        # from zeros, down to the sign of every zero.
        rng = np.random.Generator(np.random.PCG64(5))
        points = 0.6 + 0.4 * rng.random((2 * engine.MAP_BLOCK_ROWS + 300, 3))
        points[: engine.MAP_BLOCK_ROWS] = -0.0
        data = Dataset(points=points, normalized=True)
        centroids = np.vstack(
            [np.zeros((1, 3)), 0.6 + 0.4 * rng.random((2, 3)), np.full((1, 3), 50.0)]
        )
        counts, sums, sq_dist = np.zeros(4), np.zeros((4, 3)), 0.0
        labels = []
        spans = block_spans(data.n_rows)
        assert len(spans) == 3
        for start, stop in spans:
            lab, c, s, sq = engine._block_partials(data.points[start:stop], centroids, 4)
            counts += c
            sums += s
            sq_dist += sq
            labels.append(lab)
        assert counts[0] == engine.MAP_BLOCK_ROWS and counts[-1] == 0.0
        for parts in (1, 2, 3):
            agg = engine._BlockAggregator(data, parts, min(parts, 2))
            try:
                got = agg.labelling_pass(centroids)
            finally:
                agg.close()
            assert got[0].tobytes() == counts.tobytes()
            assert got[1].tobytes() == sums.tobytes()
            assert got[2] == sq_dist
            assert np.array_equal(got[3], np.concatenate(labels))

    def test_empty_cluster_keeps_previous_centroid(self):
        start = np.array([[0.05, 0.05], [0.3, 0.7]])
        c = _one_exact_step([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]], start)
        assert c[0] == pytest.approx([1 / 30, 1 / 30])
        assert np.array_equal(c[1], [0.3, 0.7])

    def test_vanishing_noise_matches_exact_mean(self):
        c = _one_cluster_mean(4, [2.0, 3.0], 1e12, seed=0)
        assert c == pytest.approx([0.5, 0.75], abs=1e-9)

    def test_noisy_centroid_reconstructed_from_stream(self):
        # Frozen seed 2: the first draw at scale 10 is -6.4774...,
        # pushing the noisy count below the floor of 1.
        share = 0.1
        sums = np.array([1.2, 0.4])
        c = _one_cluster_mean(2, sums, share, seed=2)
        replay = laplace_inverse_cdf(
            np.random.Generator(np.random.PCG64(2)).random(3), 1.0 / share
        )
        count_noise, dim_noise = replay[0], replay[1:]
        assert count_noise < -1.5
        assert 2.0 + count_noise < 1.0  # denominator hits the floor
        expected = np.clip((sums + dim_noise) / 1.0, 0.0, 1.0)
        assert np.array_equal(c, expected)

    def test_clamp_keeps_unit_cube(self):
        c = _one_cluster_mean(1, [0.9, 0.1], 0.01, seed=5)
        assert np.all(c >= 0.0) and np.all(c <= 1.0)
        # The clip is what keeps it there: the unclipped mean leaves the cube.
        replay = laplace_inverse_cdf(np.random.Generator(np.random.PCG64(5)).random(3), 100.0)
        count = 1.0 + replay[0]
        raw = (np.array([0.9, 0.1]) + replay[1:]) / max(count, 1.0)
        assert np.any((raw < 0.0) | (raw > 1.0))
        assert np.array_equal(c, np.clip(raw, 0.0, 1.0))


class TestEngineConfig:
    def test_defaults(self):
        cfg = EngineConfig(variant=Variant.EDPDCS)
        assert cfg.n_partitions == 1
        assert cfg.nonprivate_max_iters == 100
        # The reduce policy is fixed, so the config holds only run knobs.
        assert [f.name for f in dataclasses.fields(EngineConfig)] == [
            "variant",
            "n_partitions",
            "master_seed",
            "threads",
            "nonprivate_max_iters",
        ]

    def test_invalid_partitions(self):
        with pytest.raises(InvalidInputError):
            EngineConfig(variant=Variant.EDPDCS, n_partitions=0)

    def test_invalid_threads(self):
        with pytest.raises(InvalidInputError):
            EngineConfig(variant=Variant.EDPDCS, threads=0)

    def test_resolved_threads_never_exceeds_partitions(self):
        cfg = EngineConfig(variant=Variant.EDPDCS, n_partitions=2, threads=16)
        assert cfg.resolved_threads() <= 2

    def test_one_partition_is_one_thread_without_asking_the_os(self, monkeypatch, small_blobs):
        def refuse():
            raise AssertionError("os.cpu_count called")

        monkeypatch.setattr(engine.os, "cpu_count", refuse)
        assert EngineConfig(variant=Variant.EDPDCS).resolved_threads() == 1
        assert EngineConfig(variant=Variant.EDPDCS, threads=4).resolved_threads() == 1
        _, _, report = _run_variant(small_blobs, 3, Variant.RF_DPKM, 1.0)
        assert report.config["threads"] == 1


class TestRunEdpdcs:
    def test_budget_exactly_spent(self, small_blobs):
        inputs = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        _, _, report = run_edpdcs(small_blobs, 3, inputs)
        assert report.budget_spent == pytest.approx(1.0, abs=1e-12)
        assert report.budget_remaining == pytest.approx(0.0, abs=1e-12)

    def test_each_charged_phase_draws_k_times_d_plus_one(self, small_blobs):
        inputs = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=2.0)
        _, _, report = run_edpdcs(small_blobs, 3, inputs)
        charged = [it for it in report.iterations if it["budget_charged"]]
        assert len(charged) == report.iterations_run
        for it in charged:
            assert it["noise_draws"] == 3 * (3 + 1)

    def test_iteration_count_follows_plan(self, small_blobs):
        inputs = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        plan = make_plan(inputs)
        _, _, report = run_edpdcs(small_blobs, 3, inputs)
        assert report.iterations_run == plan.iterations
        assert report.plan["iterations"] == plan.iterations

    def test_same_seed_reproduces_bitwise(self, small_blobs):
        inputs = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        cfg = EngineConfig(variant=Variant.EDPDCS, master_seed=3)
        cs_a, labels_a, rep_a = run_edpdcs(small_blobs, 3, inputs, config=cfg)
        cs_b, labels_b, rep_b = run_edpdcs(small_blobs, 3, inputs, config=cfg)
        assert np.array_equal(cs_a.centroids, cs_b.centroids)
        assert np.array_equal(labels_a.labels, labels_b.labels)
        assert rep_a.comparable_json() == rep_b.comparable_json()

    def test_partition_count_does_not_change_results(self):
        data = synthetic_blobs(10_000, 3, 3, seed=2)
        inputs = PlannerInputs(n_rows=10_000, n_dims=3, k=3, epsilon_total=1.0)
        reports = {}
        for parts in (1, 3):
            engine._MAP_STATES.clear()  # every partition count reads the data
            cfg = EngineConfig(
                variant=Variant.EDPDCS, n_partitions=parts, master_seed=0, threads=2
            )
            cs, _, rep = run_edpdcs(data, 3, inputs, config=cfg)
            reports[parts] = (cs.centroids, rep.comparable_json())
        assert np.array_equal(reports[1][0], reports[3][0])
        assert reports[1][1] == reports[3][1]

    def test_final_centroids_are_noisy_and_clamped(self, small_blobs):
        inputs = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=0.5)
        cs, labels, report = run_edpdcs(small_blobs, 3, inputs)
        assert report.epsilon == 0.5
        assert np.all(cs.centroids >= 0.0) and np.all(cs.centroids <= 1.0)
        assert labels.labels.shape == (400,)

    def test_trace_structure(self, small_blobs):
        inputs = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        _, _, report = run_edpdcs(small_blobs, 3, inputs)
        assert report.iterations[0]["phase"] == "init"
        assert report.iterations[0]["iteration"] == 1
        for entry in report.iterations[1:]:
            assert entry["phase"] == "lloyd"
            assert entry["centroid_shift"] >= 0.0
            assert entry["nicv_after"] > 0.0
        # Exact per-cluster counts and sums are raw data: never traced.
        for entry in report.iterations:
            assert "exact_aggregates" not in entry
            assert "noisy_aggregates" not in entry

    def test_missing_planner_inputs_rejected(self):
        with pytest.raises(InvalidInputError, match="planner_inputs"):
            run_edpdcs(synthetic_blobs(100, 2, 2, 0), 2, None)

    def test_mismatched_planner_inputs_rejected(self, small_blobs):
        inputs = PlannerInputs(n_rows=999, n_dims=3, k=3, epsilon_total=1.0)
        with pytest.raises(InvalidInputError):
            run_edpdcs(small_blobs, 3, inputs)

    def test_wrong_variant_rejected(self, small_blobs):
        inputs = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        cfg = EngineConfig(variant=Variant.RF_DPKM)
        with pytest.raises(InvalidInputError):
            run_edpdcs(small_blobs, 3, inputs, config=cfg)

    def test_unnormalized_data_rejected(self):
        data = Dataset(points=np.array([[3.0, 4.0], [5.0, 6.0]]))
        inputs = PlannerInputs(n_rows=2, n_dims=2, k=1, epsilon_total=1.0)
        with pytest.raises(InvalidInputError):
            run_edpdcs(data, 1, inputs)

    def test_k_one_huge_budget_recovers_dataset_mean(self, small_blobs):
        inputs = PlannerInputs(n_rows=400, n_dims=3, k=1, epsilon_total=1e12)
        cs, _, _ = run_edpdcs(small_blobs, 1, inputs)
        assert cs.centroids[0] == pytest.approx(
            small_blobs.points.mean(axis=0), abs=1e-6
        )


def _run_variant(data, k, variant, epsilon, **config):
    cfg = EngineConfig(variant=variant, master_seed=2, **config)
    if variant is Variant.EDPDCS:
        inputs = PlannerInputs(
            n_rows=data.n_rows, n_dims=data.n_dims, k=k, epsilon_total=epsilon
        )
        return run_edpdcs(data, k, inputs, config=cfg)
    return run_baseline(data, k, epsilon, cfg)


#: Keys of a written report, of each trace entry, and of ``config`` by
#: variant (a NONPRIVATE run from given centroids has no canopy start).
#: A new key is a deliberate change to the report format.
REPORT_KEYS = {
    "variant", "epsilon", "master_seed", "n_rows", "n_dims", "k", "n_partitions",
    "iterations_run", "nicv", "budget_spent", "budget_remaining", "plan",
    "iterations", "config", "notes",
}
TRACE_KEYS = {
    "iteration", "phase", "budget_charged", "noise_draws", "centroid_shift",
    "centroids_after", "nicv_after",
}
CONFIG_KEYS = {"threads", "nonprivate_max_iters"}
PLANNER_INPUTS_KEYS = {
    "n_rows", "n_dims", "k", "epsilon_total", "rho", "mse_threshold", "t_cap",
    "epsilon_m_override",
}
CANOPY_KEYS = {"t1", "t2", "subsample_size"}


class TestReportSchema:
    @pytest.mark.parametrize(
        "variant, epsilon, supplied_start, extra",
        [
            (Variant.EDPDCS, 1.0, False, {"planner_inputs", "canopy"}),
            (Variant.RF_DPKM, 1.0, False, {"planner_inputs"}),
            (Variant.RU_DPKM, 1.0, False, set()),
            (Variant.NONPRIVATE, None, False, {"canopy"}),
            (Variant.NONPRIVATE, None, True, set()),
        ],
    )
    def test_exact_key_sets(self, small_blobs, variant, epsilon, supplied_start, extra):
        if supplied_start:
            start = CentroidSet(centroids=small_blobs.points[:3])
            cfg = EngineConfig(variant=variant)
            report = run_baseline(small_blobs, 3, epsilon, cfg, initial_centroids=start)[2]
        else:
            report = _run_variant(small_blobs, 3, variant, epsilon)[2]
        blob = json.loads(report.to_json())
        assert set(blob) == REPORT_KEYS
        for entry in blob["iterations"]:
            assert set(entry) == TRACE_KEYS
        assert set(blob["config"]) == CONFIG_KEYS | extra
        if "planner_inputs" in extra:
            assert set(blob["config"]["planner_inputs"]) == PLANNER_INPUTS_KEYS
        if "canopy" in extra:
            assert set(blob["config"]["canopy"]) == CANOPY_KEYS


class TestLabellingPasses:
    @pytest.mark.parametrize(
        "variant,epsilon",
        [
            (Variant.EDPDCS, 3.0),
            (Variant.RF_DPKM, 3.0),
            (Variant.RU_DPKM, 1.0),
            (Variant.RU_DPKM, 1e9),  # converges before the cap
            (Variant.NONPRIVATE, None),  # converges before the cap
        ],
    )
    def test_nicv_after_is_nicv_of_centroids_after(self, variant, epsilon):
        data = synthetic_blobs(9000, 3, 4, seed=8)
        cs, labels, report = _run_variant(data, 4, variant, epsilon, n_partitions=2)
        if epsilon in (None, 1e9):
            assert any("converged" in n for n in report.notes)
        for it in report.iterations:
            after = CentroidSet(centroids=np.array(it["centroids_after"]))
            want = nicv(data, after, assign_labels(data, after))
            assert math.isclose(it["nicv_after"], want, rel_tol=1e-12)
        assert report.nicv == report.iterations[-1]["nicv_after"]
        assert np.array_equal(labels.labels, assign_labels(data, cs).labels)

    def test_edpdcs_labels_every_row_once_per_planned_iteration(self, monkeypatch):
        data = synthetic_blobs(9000, 3, 4, seed=8)
        rows = []

        def counting(points, *args, **kwargs):
            rows.append(len(points))
            return label_points(points, *args, **kwargs)

        monkeypatch.setattr(engine, "label_points", counting)
        _, _, report = _run_variant(data, 4, Variant.EDPDCS, 3.0)
        assert sum(rows) == report.iterations_run * data.n_rows
        assert max(rows) <= engine.MAP_BLOCK_ROWS

    def test_timings_cover_the_final_pass(self, small_blobs, monkeypatch):
        def slow(*args, **kwargs):
            time.sleep(0.02)
            return label_points(*args, **kwargs)

        monkeypatch.setattr(engine, "label_points", slow)
        for variant, epsilon in [(Variant.EDPDCS, 1.0), (Variant.NONPRIVATE, None)]:
            _, _, report = _run_variant(small_blobs, 3, variant, epsilon)
            t = report.timings_ms
            assert t["final_ms"] >= 20.0
            spans = t["init_ms"] + sum(t["iterations_ms"]) + t["final_ms"]
            assert spans <= t["total_ms"]
            assert "timings_ms" not in report.comparable_json()


def _grid_jsons(data, k, n_partitions=1):
    summary = compare_variants(
        data, k, [0.5, 1.0, 3.0], n_seeds=3, base_seed=5, n_partitions=n_partitions
    )
    return [r.comparable_json() for r in summary.runs]


class TestPassMemo:
    """The per-dataset memo of labelling-pass statistics."""

    def _count_passes(self, monkeypatch):
        passes = []
        original = engine._BlockAggregator.labelling_pass

        def counting(self, centroids):
            passes.append(centroids.tobytes())
            return original(self, centroids)

        monkeypatch.setattr(engine._BlockAggregator, "labelling_pass", counting)
        return passes

    def test_warm_grid_rerun_is_byte_identical_to_cold(self, small_blobs, monkeypatch):
        passes = self._count_passes(monkeypatch)
        cold = _grid_jsons(small_blobs, 3)
        cold_passes = len(passes)
        warm = _grid_jsons(small_blobs, 3)
        assert warm == cold
        # Without the memo a run labels once per step and once at the end.
        # RF_DPKM and RU_DPKM at 3 epsilons share each of the 3 seeds' start,
        # so the cold grid saves at least 5 passes a seed; the rerun labels
        # only for its runs' final assignments.
        runs = [json.loads(r) for r in cold]
        steps = sum(it["phase"] == "lloyd" for r in runs for it in r["iterations"])
        assert cold_passes <= steps + len(runs) - 5 * 3
        assert len(passes) - cold_passes == len(runs)

    def test_hit_at_two_partitions_reuses_one_partition_entry(self, monkeypatch):
        data = synthetic_blobs(9000, 3, 4, seed=8)
        one = _grid_jsons(data, 4)
        passes = self._count_passes(monkeypatch)
        two = _grid_jsons(data, 4, n_partitions=2)
        assert two == one
        assert len(passes) == len(one)

    def test_hit_comes_after_the_step_charge(self, small_blobs, monkeypatch):
        events = []

        class Ledger(engine.BudgetLedger):
            def charge(self, phase, amount):
                events.append(("charge", phase))
                return super().charge(phase, amount)

        original = engine._PassMemo.lookup

        def lookup(self, key):
            stats = original(self, key)
            events.append(("hit" if stats is not None else "miss", None))
            return stats

        monkeypatch.setattr(engine, "BudgetLedger", Ledger)
        monkeypatch.setattr(engine._PassMemo, "lookup", lookup)
        runs = []
        for _ in range(2):
            events.clear()
            _, _, report = _run_variant(small_blobs, 3, Variant.RF_DPKM, 1.0)
            runs.append((list(events), report.comparable_json()))
        (cold, cold_json), (warm, warm_json) = runs
        assert warm_json == cold_json
        assert [e for e in cold if e[0] != "charge"] == [("miss", None)] * (len(cold) // 2)
        assert [e for e in warm if e[0] != "charge"] == [("hit", None)] * (len(warm) // 2)
        # The same charges, each just before its step's lookup.
        assert [e for e in warm if e[0] == "charge"] == [e for e in cold if e[0] == "charge"]
        assert [e[0] for e in warm] == ["charge", "hit"] * (len(warm) // 2)

    def test_entries_are_read_only_statistics_within_the_bound(self, small_blobs, monkeypatch):
        compare_variants(small_blobs, 3, [0.5, 1.0], n_seeds=2)
        state = engine._MAP_STATES[small_blobs]
        assert state.passes
        total = 0
        for key, entry in state.passes.items():
            counts, sums, sq_dist = entry
            assert key[0] == (3, small_blobs.n_dims)
            assert counts.shape == (3,) and sums.shape == key[0]
            assert not counts.flags.writeable and not sums.flags.writeable
            assert isinstance(sq_dist, float)
            total += engine._entry_bytes(key, counts, sums)
        assert state.pass_bytes == total <= engine.PASS_MEMO_BYTES

        # A budget of three entries keeps the three most recently used.
        one = engine._entry_bytes(key, counts, sums)
        monkeypatch.setattr(engine, "PASS_MEMO_BYTES", 3 * one)
        engine._MAP_STATES.clear()
        rng = np.random.Generator(np.random.PCG64(1))
        starts = [CentroidSet(centroids=rng.random((3, 3))) for _ in range(5)]
        cfg = EngineConfig(variant=Variant.NONPRIVATE, nonprivate_max_iters=1)
        for start in starts:
            run_baseline(small_blobs, 3, None, cfg, initial_centroids=start)
        state = engine._MAP_STATES[small_blobs]
        assert len(state.passes) == 3 and state.pass_bytes == 3 * one
        # The last run's start, then its one step's result, stayed.
        assert list(state.passes)[1] == engine._pass_key(starts[-1].centroids)

    def test_state_is_dropped_with_its_dataset(self):
        data = synthetic_blobs(300, 2, 2, seed=1)
        _run_variant(data, 2, Variant.RF_DPKM, 1.0)
        assert len(engine._MAP_STATES) == 1
        del data
        assert len(engine._MAP_STATES) == 0

    def test_threads_sharing_one_state(self, monkeypatch):
        # More workers than cores against one small memo: every pass must
        # match its cold value and the byte count must stay exact.
        data = synthetic_blobs(500, 2, 3, seed=2)
        rng = np.random.Generator(np.random.PCG64(3))
        centroids = [rng.random((3, 2)) for _ in range(12)]
        want = []
        for c in centroids:
            agg = engine._BlockAggregator(data, 1, 1)
            want.append(agg.labelling_pass(c)[:3])
        engine._MAP_STATES.clear()
        one = engine._entry_bytes(engine._pass_key(centroids[0]), *want[0][:2])
        monkeypatch.setattr(engine, "PASS_MEMO_BYTES", 4 * one)
        errors = []

        def worker(offset):
            agg = engine._BlockAggregator(data, 1, 1)
            try:
                for i in range(60):
                    j = (i * 5 + offset) % len(centroids)
                    got = agg.statistics(centroids[j])
                    if not (
                        np.array_equal(got[0], want[j][0])
                        and np.array_equal(got[1], want[j][1])
                        and got[2] == want[j][2]
                    ):
                        errors.append(j)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        state = engine._MAP_STATES[data]
        assert state.pass_bytes == len(state.passes) * one <= 4 * one


class TestRandomRowStart:
    def test_indices_are_the_sorted_seeded_draw(self):
        for master_seed, n, k in [(0, 748, 2), (7, 50, 5), (3, 9, 9)]:
            seed = derive_stream_seed(master_seed, 0, 1)
            want = np.random.Generator(np.random.PCG64(seed)).choice(n, k, replace=False)
            assert np.array_equal(engine._random_row_indices(n, k, master_seed), np.sort(want))

    def test_memo_is_read_only_and_start_is_a_fresh_copy(self, small_blobs):
        idx = engine._random_row_indices(small_blobs.n_rows, 3, 11)
        assert not idx.flags.writeable
        start = engine._random_row_centroids(small_blobs, 3, 11)
        assert start.shape == (3, small_blobs.n_dims) and start.flags.writeable
        assert not np.shares_memory(start, small_blobs.points)
        assert np.array_equal(start, small_blobs.points[idx])

    def test_grid_draws_once_per_master_seed(self, small_blobs):
        engine._random_row_indices.cache_clear()
        compare_variants(small_blobs, 3, [0.5, 1.0, 1.5, 2.0, 3.0], n_seeds=3)
        info = engine._random_row_indices.cache_info()
        # RF_DPKM and RU_DPKM at five epsilons share each seed's start.
        assert (info.misses, info.hits) == (3, 2 * 5 * 3 - 3)


class TestRunBaselineRf:
    def test_exact_spend_and_uniform_split(self, small_blobs):
        cfg = EngineConfig(variant=Variant.RF_DPKM, master_seed=1)
        _, _, report = run_baseline(small_blobs, 3, 1.0, cfg)
        assert report.budget_spent == pytest.approx(1.0, abs=1e-12)
        per_iter = 1.0 / report.iterations_run
        for entry in report.iterations:
            if entry["phase"] == "lloyd":
                assert entry["budget_charged"] == pytest.approx(per_iter)
                assert entry["noise_draws"] == 3 * (3 + 1)

    def test_two_iterations_at_twice_minimal_budget(self, small_blobs):
        eps_m = minimal_iteration_budget(
            PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        )
        eps = 2.0 * eps_m
        cfg = EngineConfig(variant=Variant.RF_DPKM, master_seed=0)
        _, _, report = run_baseline(small_blobs, 3, eps, cfg)
        assert report.iterations_run == 2
        lloyd = [e for e in report.iterations if e["phase"] == "lloyd"]
        assert [e["budget_charged"] for e in lloyd] == pytest.approx([eps / 2] * 2)

    def test_init_is_free(self, small_blobs):
        cfg = EngineConfig(variant=Variant.RF_DPKM, master_seed=1)
        _, _, report = run_baseline(small_blobs, 3, 1.0, cfg)
        init = report.iterations[0]
        assert init["phase"] == "init"
        assert init["budget_charged"] is None
        assert init["noise_draws"] == 0

    def test_epsilon_mismatch_with_planner_inputs_rejected(self, small_blobs):
        cfg = EngineConfig(variant=Variant.RF_DPKM)
        inputs = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=2.0)
        with pytest.raises(InvalidInputError):
            run_baseline(small_blobs, 3, 1.0, cfg, planner_inputs=inputs)

    @pytest.mark.parametrize(
        "field,value", [("n_rows", 4_000_000), ("n_dims", 4), ("k", 4)]
    )
    def test_planner_inputs_must_describe_the_data(self, small_blobs, field, value):
        # Inputs planned for another shape would silently set another T.
        shape = dict(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        inputs = PlannerInputs(**{**shape, field: value})
        cfg = EngineConfig(variant=Variant.RF_DPKM)
        with pytest.raises(InvalidInputError, match=r"\(N, d, k\)"):
            run_baseline(small_blobs, 3, 1.0, cfg, planner_inputs=inputs)


class TestRunBaselineRu:
    def test_halving_schedule_charges(self, small_blobs):
        cfg = EngineConfig(variant=Variant.RU_DPKM, master_seed=1)
        _, _, report = run_baseline(small_blobs, 3, 1.0, cfg)
        lloyd = [e for e in report.iterations if e["phase"] == "lloyd"]
        for t, entry in enumerate(lloyd, start=1):
            assert entry["budget_charged"] == pytest.approx(1.0 / 2 ** (t + 1))
        expected_spent = sum(1.0 / 2 ** (t + 1) for t in range(1, len(lloyd) + 1))
        assert report.budget_spent == pytest.approx(expected_spent, abs=1e-12)

    def test_residual_budget_reported_not_spent(self, small_blobs):
        cfg = EngineConfig(variant=Variant.RU_DPKM, master_seed=1)
        _, _, report = run_baseline(small_blobs, 3, 1.0, cfg)
        assert report.budget_remaining > 0.49  # halving can never spend it all
        assert any("residual" in note for note in report.notes)
        if report.iterations_run == 10:
            assert report.budget_remaining == pytest.approx(0.50048828125, abs=1e-15)

    def test_never_runs_past_cap(self, small_blobs, monkeypatch):
        monkeypatch.setattr(engine, "RU_MAX_ITERS", 3)
        cfg = EngineConfig(variant=Variant.RU_DPKM, master_seed=4)
        _, _, report = run_baseline(small_blobs, 3, 1.0, cfg)
        assert report.iterations_run <= 3

    @pytest.mark.parametrize(
        "variant,epsilon", [(Variant.RU_DPKM, 1.0), (Variant.NONPRIVATE, None)]
    )
    def test_planner_inputs_refused(self, small_blobs, variant, epsilon):
        # Neither variant has a plan: the inputs would only decorate the report.
        inputs = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        cfg = EngineConfig(variant=variant)
        with pytest.raises(InvalidInputError, match="takes no planner_inputs"):
            run_baseline(small_blobs, 3, epsilon, cfg, planner_inputs=inputs)

    @pytest.mark.parametrize(
        "variant, epsilon, start",
        [
            (Variant.RF_DPKM, 1.0, None),
            (Variant.RU_DPKM, 1.0, None),
            (Variant.NONPRIVATE, None, CentroidSet(centroids=np.full((3, 3), 0.5))),
        ],
        ids=["RF_DPKM", "RU_DPKM", "NONPRIVATE-supplied"],
    )
    def test_canopy_params_refused(self, small_blobs, variant, epsilon, start):
        # None of these has a canopy start: the radii would change nothing.
        # RF_DPKM and RU_DPKM start from random rows, and a supplied start
        # replaces NONPRIVATE's canopy start.
        cfg = EngineConfig(variant=variant)
        with pytest.raises(InvalidInputError, match="takes no canopy_params"):
            run_baseline(
                small_blobs,
                3,
                epsilon,
                cfg,
                canopy_params=CanopyParams(t1=0.3, t2=0.1),
                initial_centroids=start,
            )


class TestRunBaselineNonprivate:
    def test_four_corners_single_step(self):
        start = CentroidSet(centroids=np.array([[0.0, 0.5], [1.0, 0.5]]))
        cfg = EngineConfig(variant=Variant.NONPRIVATE)
        cs, labels, report = run_baseline(
            CORNERS, 2, None, cfg, initial_centroids=start
        )
        assert np.array_equal(cs.centroids, np.array([[0.0, 0.5], [1.0, 0.5]]))
        assert labels.labels.tolist() == [0, 0, 1, 1]
        assert report.nicv == pytest.approx(0.25)
        assert "started from supplied centroids" in report.notes
        assert report.epsilon is None

    def test_nicv_never_increases_across_iterations(self, small_blobs):
        cfg = EngineConfig(variant=Variant.NONPRIVATE, master_seed=0)
        _, _, report = run_baseline(small_blobs, 3, None, cfg)
        values = [
            e["nicv_after"] for e in report.iterations if e["phase"] == "lloyd"
        ]
        assert len(values) >= 1
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_converges_and_reports_zero_budget(self, small_blobs):
        cfg = EngineConfig(variant=Variant.NONPRIVATE)
        _, _, report = run_baseline(small_blobs, 3, None, cfg)
        assert report.budget_spent == 0.0
        assert report.budget_remaining == 0.0
        assert any("converged" in n for n in report.notes)
        final_shift = report.iterations[-1]["centroid_shift"]
        assert final_shift < engine.NONPRIVATE_SHIFT_TOL

    def test_matches_plain_lloyd_reference(self, small_blobs):
        # Independent dense Lloyd implementation, same canopy start.
        start, _, _ = select_initial_centroids(small_blobs, 3, CanopyParams(), 0)
        expect = np.array(start, copy=True)
        pts = small_blobs.points
        for _ in range(100):
            d2 = ((pts[:, None, :] - expect[None, :, :]) ** 2).sum(axis=2)
            lab = d2.argmin(axis=1)
            new = np.vstack(
                [
                    pts[lab == j].mean(axis=0) if np.any(lab == j) else expect[j]
                    for j in range(3)
                ]
            )
            if np.linalg.norm(new - expect, axis=1).max() < 1e-9:
                expect = new
                break
            expect = new
        cfg = EngineConfig(variant=Variant.NONPRIVATE, master_seed=0)
        cs, _, _ = run_baseline(small_blobs, 3, None, cfg)
        assert cs.centroids == pytest.approx(expect, abs=1e-12)

    def test_epsilon_rejected(self, small_blobs):
        cfg = EngineConfig(variant=Variant.NONPRIVATE)
        with pytest.raises(InvalidInputError):
            run_baseline(small_blobs, 3, 1.0, cfg)

    def test_edpdcs_variant_rejected(self, small_blobs):
        cfg = EngineConfig(variant=Variant.EDPDCS)
        with pytest.raises(InvalidInputError):
            run_baseline(small_blobs, 3, 1.0, cfg)

    def test_dp_variant_needs_epsilon(self, small_blobs):
        cfg = EngineConfig(variant=Variant.RF_DPKM)
        with pytest.raises(InvalidInputError):
            run_baseline(small_blobs, 3, None, cfg)
        with pytest.raises(InvalidInputError):
            run_baseline(small_blobs, 3, -1.0, cfg)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    @pytest.mark.parametrize("variant", [Variant.RF_DPKM, Variant.RU_DPKM])
    def test_non_finite_epsilon_rejected(self, small_blobs, variant, epsilon):
        cfg = EngineConfig(variant=variant)
        with pytest.raises(InvalidInputError, match="needs a positive finite epsilon"):
            run_baseline(small_blobs, 3, epsilon, cfg)


class TestValidation:
    def test_k_larger_than_rows_rejected(self, small_blobs):
        cfg = EngineConfig(variant=Variant.NONPRIVATE)
        with pytest.raises(InvalidInputError):
            run_baseline(small_blobs, 401, None, cfg)

    def test_partitions_larger_than_rows_rejected(self):
        data = Dataset(points=np.array([[0.1, 0.1], [0.9, 0.9]]), normalized=True)
        cfg = EngineConfig(variant=Variant.NONPRIVATE, n_partitions=5)
        with pytest.raises(InvalidInputError):
            run_baseline(data, 1, None, cfg)

    @pytest.mark.parametrize("shape", [(2, 3), (4, 3), (3, 2)])
    def test_initial_centroids_of_wrong_shape_rejected(self, small_blobs, shape):
        start = CentroidSet(centroids=np.full(shape, 0.5))
        for variant, epsilon in [
            (Variant.RF_DPKM, 1.0),
            (Variant.RU_DPKM, 1.0),
            (Variant.NONPRIVATE, None),
        ]:
            cfg = EngineConfig(variant=variant)
            with pytest.raises(InvalidInputError, match="initial centroids"):
                run_baseline(small_blobs, 3, epsilon, cfg, initial_centroids=start)

    def test_report_nicv_matches_evaluation(self, small_blobs):
        cfg = EngineConfig(variant=Variant.NONPRIVATE)
        cs, labels, report = run_baseline(small_blobs, 3, None, cfg)
        assert report.nicv == pytest.approx(
            nicv(small_blobs, cs, labels), abs=1e-15
        )


def _normalized(points):
    return normalize(Dataset(points=np.asarray(points, dtype=np.float64)))[0]


#: Inputs at the edge of what a run can do, as (data, k, epsilon, canopies
#: the canopy start finds, at most k).  Every dataset is one map block.
EDGES = {
    "k_above_distinct_rows": (
        _normalized(np.repeat([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]], 40, axis=0)),
        5,
        1.0,
        3,
    ),
    "all_columns_constant": (_normalized(np.full((60, 3), 7.0)), 3, 1.0, 1),
    "n_equals_k": (
        _normalized(np.random.Generator(np.random.PCG64(0)).random((6, 2))),
        6,
        1.0,
        6,
    ),
    "epsilon_1e308": (synthetic_blobs(300, 3, 3, seed=1), 3, 1e308, 3),
}


class TestEdgesEndWithANote:
    """Each edge input finishes, for every variant, with finite centroids in
    the unit cube, the budget the variant owes and the notes that say why."""

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_run_finishes_in_the_cube_with_its_spend_and_notes(self, edge, variant):
        data, k, epsilon, canopies = EDGES[edge]
        assert data.n_rows < engine.MAP_BLOCK_ROWS
        if variant is Variant.NONPRIVATE:
            epsilon = None
        cs, labels, report = _run_variant(data, k, variant, epsilon)
        centroids = cs.centroids
        assert centroids.shape == (k, data.n_dims)
        assert np.isfinite(centroids).all()
        assert (centroids >= 0.0).all() and (centroids <= 1.0).all()
        assert labels.n_rows == data.n_rows and math.isfinite(report.nicv)

        notes = list(report.notes)
        if variant is Variant.NONPRIVATE:
            assert (report.epsilon, report.budget_spent) == (None, 0.0)
        elif variant is Variant.RU_DPKM:
            owed = 0.0
            for t in range(1, report.iterations_run + 1):
                owed += epsilon / 2.0 ** (t + 1)
            assert report.budget_spent == owed
            assert report.budget_remaining == epsilon - owed
            assert notes.pop() == (
                f"residual budget {epsilon - owed:.6g} left by halving schedule"
            )
        else:
            assert report.budget_spent == pytest.approx(epsilon, rel=1e-12)
            assert report.budget_remaining == pytest.approx(0.0, abs=1e-9 * epsilon)
        if notes and notes[-1].startswith("converged at iteration"):
            assert variant in (Variant.RU_DPKM, Variant.NONPRIVATE)
            notes.pop()
        else:
            assert variant is not Variant.NONPRIVATE, notes
        if variant.has_canopy_start and canopies < k:
            fill = f"filled {k - canopies} centroid(s) with uniform random points"
            assert notes.pop() == fill
            assert notes.pop().endswith(f"to reach {canopies} canopies")
        if variant.has_canopy_start and notes:
            assert notes.pop().startswith("canopy radii halved ")
        assert notes == []


class TestEndToEndProperties:
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
        if variant is Variant.NONPRIVATE:
            epsilon = None
        comparable = set()
        for parts in (1, 3):
            engine._MAP_STATES.clear()  # every partition count reads the data
            cs, labels, report = _run_variant(
                data, k, variant, epsilon, n_partitions=parts, threads=2
            )
            comparable.add(report.comparable_json())
        assert len(comparable) == 1

        assert np.all(cs.centroids >= 0.0) and np.all(cs.centroids <= 1.0)
        assert labels.n_rows == n_rows

        trace = report.iterations
        first = 1 if variant is Variant.EDPDCS else 0
        assert [it["iteration"] for it in trace] == list(
            range(first, first + len(trace))
        )
        assert report.iterations_run == trace[-1]["iteration"]

        spent = 0.0
        for it in trace:
            if it["budget_charged"] is not None:
                spent += it["budget_charged"]
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
        init = trace[0]
        if variant is Variant.EDPDCS:
            # Canopy init draws d + 1 per canopy; a shortfall is filled with
            # noise-free random points and noted.
            assert init["noise_draws"] % (n_dims + 1) == 0
            assert init["noise_draws"] == draws or any(
                "filled" in note for note in report.notes
            )
        else:
            assert init["budget_charged"] is None and init["noise_draws"] == 0

    @settings(max_examples=15, deadline=None)
    @given(
        variant=st.sampled_from(list(Variant)),
        n_rows=st.integers(engine.MAP_BLOCK_ROWS + 1, 3 * engine.MAP_BLOCK_ROWS + 100),
        n_dims=st.integers(1, 3),
        k=st.integers(1, 4),
        epsilon=st.floats(0.05, 50.0),
        seed=st.integers(0, 2**16),
    )
    def test_partition_invariance_across_blocks(
        self, variant, n_rows, n_dims, k, epsilon, seed
    ):
        # Two to four map blocks, so the partitions split the block list and
        # a merge in any order but ascending block order would show.
        data = synthetic_blobs(n_rows, n_dims, k, seed=seed)
        if variant is Variant.NONPRIVATE:
            epsilon = None
        runs = []
        for p in (1, 2, 3):
            engine._MAP_STATES.clear()  # every partition count reads the data
            runs.append(_run_variant(data, k, variant, epsilon, n_partitions=p, threads=p))
        cs0, labels0, report0 = runs[0]
        for cs, labels, report in runs[1:]:
            assert report.comparable_json() == report0.comparable_json()
            assert np.array_equal(labels.labels, labels0.labels)
            assert np.array_equal(cs.centroids, cs0.centroids)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_k5_label_chunks_do_not_change_results_across_partitions(self, variant):
        # At k=5 a label chunk holds 4096 rows; three blocks and a part.
        n = 3 * engine.MAP_BLOCK_ROWS + 300
        data = synthetic_blobs(n, 6, 5, seed=4)
        epsilon = None if variant is Variant.NONPRIVATE else 1.0
        jsons = []
        for parts in (1, 2):
            engine._MAP_STATES.clear()  # every partition count reads the data
            _, _, report = _run_variant(data, 5, variant, epsilon, n_partitions=parts, threads=2)
            jsons.append(report.comparable_json())
        assert jsons[0] == jsons[1]
