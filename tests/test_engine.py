import dataclasses
import json
import math
import pathlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpkmeans import core, engine
from dpkmeans.canopy import CanopyParams
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


def _boundary(data, n_partitions=1, threads=None, master_seed=0):
    """A boundary on ``data`` for a run that spends no budget."""
    config = EngineConfig(n_partitions=n_partitions, threads=threads, master_seed=master_seed)
    return engine._Boundary(data, config, None)


def _one_block_pass(points, centroids):
    """A one-block step pass's counts, sums and squared-distance sum, and the
    labels of a final pass against the same centroids."""
    data = Dataset(points=np.asarray(points, dtype=np.float64), normalized=True)
    agg = _boundary(data)
    centroids = np.asarray(centroids, dtype=np.float64)
    counts, sums, sq_dist = agg._statistics(centroids)
    final_sq_dist, labels = agg.final_pass(centroids)
    assert final_sq_dist == sq_dist
    return counts, sums, sq_dist, labels


class TestMapAssign:
    def test_two_cluster_example(self):
        pts = np.array([[0.0, 0.1], [0.1, 0.0], [0.9, 1.0]])
        centroids = np.array([[0.0, 0.0], [1.0, 1.0]])
        counts, sums, sq_dist, labels = _one_block_pass(pts, centroids)
        assert labels.tolist() == [0, 0, 1]
        assert counts.tolist() == [2.0, 1.0]
        assert sums[0] == pytest.approx([0.1, 0.1])
        assert sums[1] == pytest.approx([0.9, 1.0])
        assert sq_dist == pytest.approx(0.01 + 0.01 + 0.01)

    def test_empty_cluster_has_zero_count_and_sums(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0]])
        centroids = np.array([[0.0, 0.0], [1.0, 1.0]])
        counts, sums, _, _ = _one_block_pass(pts, centroids)
        assert counts.tolist() == [2.0, 0.0]
        assert sums[0] == pytest.approx([0.1, 0.0])
        assert sums[1].tolist() == [0.0, 0.0]

    def test_empty_partition_yields_empty_map(self):
        pts, centroids = np.empty((0, 2)), np.array([[0.5, 0.5]])
        labels = label_points(pts, centroids, 2)
        counts, sums = engine._counts_and_sums(pts, labels, 1)
        assert labels.shape == (0,)
        assert counts.tolist() == [0.0] and sums.tolist() == [[0.0, 0.0]]
        assert float(engine._squared_differences(pts, centroids, labels).sum()) == 0.0

    def test_counts_total_the_partition(self):
        rng = np.random.Generator(np.random.PCG64(0))
        pts = rng.random((321, 3))
        counts, sums, _, _ = _one_block_pass(pts, rng.random((4, 3)))
        assert counts.sum() == 321.0
        assert sums.sum(axis=0) == pytest.approx(pts.sum(axis=0))


class TestBlockPartials:
    @pytest.mark.parametrize("d,k", [(4, 2), (6, 5), (16, 20), (1, 7)])
    def test_sums_bit_equal_to_unbuffered_add_at(self, d, k):
        rng = np.random.Generator(np.random.PCG64(d * 31 + k))
        pts = rng.random((engine.MAP_BLOCK_ROWS, d))
        centroids = rng.random((k, d))
        centroids[-1] = 50.0  # never nearest: an empty cluster
        counts, sums, sq_dist, labels = _one_block_pass(pts, centroids)
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
        labels = label_points(pts, centroids, d)
        assert np.array_equal(labels, core._label_exact(pts, centroids))


def _block_map(points, centroids):
    """One block's labels, counts, sums and squared-distance sum, from the
    kernels the map task calls."""
    labels = label_points(points, centroids, points.shape[1])
    counts, sums = engine._counts_and_sums(points, labels, len(centroids))
    sq_dist = float(engine._squared_differences(points, centroids, labels).sum())
    return labels, counts, sums, sq_dist


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
            _, c, s, _ = _block_map(data.points[start:stop], centroids)
            counts += c
            sums += s
        for parts in (1, 2, 3):
            # An empty store: each partition count's step pass reads the data.
            core._STORES.pop(data, None)
            agg = _boundary(data, parts, threads=2)
            try:
                got_counts, got_sums, _ = agg._statistics(centroids)
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
            lab, c, s, sq = _block_map(data.points[start:stop], centroids)
            counts += c
            sums += s
            sq_dist += sq
            labels.append(lab)
        assert counts[0] == engine.MAP_BLOCK_ROWS and counts[-1] == 0.0
        for parts in (1, 2, 3):
            core._STORES.pop(data, None)
            agg = _boundary(data, parts, threads=2)
            try:
                got = agg._statistics(centroids)
                final = agg.final_pass(centroids)
            finally:
                agg.close()
            assert got[0].tobytes() == counts.tobytes()
            assert got[1].tobytes() == sums.tobytes()
            assert got[2] == final[0] == sq_dist
            assert np.array_equal(final[1], np.concatenate(labels))

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

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, False, "1", None])
    def test_non_integer_master_seed_refused(self, seed):
        # The noise streams read int(master_seed): 1.5 and True used to run
        # as seed 1 and be reported as given.
        with pytest.raises(InvalidInputError, match="master_seed must be an integer"):
            EngineConfig(variant=Variant.EDPDCS, master_seed=seed)

    def test_compare_refuses_a_non_integer_base_seed(self, small_blobs):
        with pytest.raises(InvalidInputError, match="base_seed must be an integer"):
            compare_variants(small_blobs, 3, [1.0], n_seeds=1, base_seed=1.5)

    @pytest.mark.parametrize("field", ["n_partitions", "threads", "nonprivate_max_iters"])
    def test_counts_must_be_integers(self, field):
        # 2.5 partitions used to run and be reported as 2.5, and True as true.
        for value in [2.5, 2.0, True, False, "2"]:
            with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
                EngineConfig(variant=Variant.RU_DPKM, **{field: value})
        cfg = EngineConfig(variant=Variant.RU_DPKM, **{field: np.int64(2)})
        assert type(getattr(cfg, field)) is int and getattr(cfg, field) == 2

    @pytest.mark.parametrize("variant", [Variant.EDPDCS, Variant.RU_DPKM])
    def test_k_must_be_an_integer(self, small_blobs, variant):
        # k=True used to run as k=1 and be reported as true.
        for k in [2.5, 2.0, True, False, "2"]:
            with pytest.raises(InvalidInputError, match="k must be an integer"):
                _run_variant(small_blobs, k, variant, 1.0)
        want = _run_variant(small_blobs, 2, variant, 1.0)[2].to_json()
        report = _run_variant(small_blobs, np.int64(2), variant, 1.0)[2]
        assert type(report.k) is int and report.to_json() == want

    def test_numpy_integer_master_seed_runs_as_the_int(self, small_blobs):
        reports = []
        for seed in (1, np.int64(1), np.uint8(1)):
            cfg = EngineConfig(variant=Variant.RU_DPKM, master_seed=seed)
            assert type(cfg.master_seed) is int
            reports.append(run_baseline(small_blobs, 3, 1.0, cfg)[2].to_json())
        assert reports[1] == reports[0] and reports[2] == reports[0]

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
            core._STORES.pop(data, None)  # every partition count reads the data
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


def _count_rows(monkeypatch):
    """Per labelling pass, the row counts of the blocks the map task read and
    of the calls to ``label_points``, each in the order they came, and the
    indices of the blocks whose counts and sums were summed, not kept.

    Returns the step passes' list and the final passes' list.
    """
    steps, finals = [], []
    running = []  # the running pass's entry
    map_blocks = engine._Boundary._map_blocks
    map_block = engine._Boundary._map
    counts_and_sums = engine._counts_and_sums
    current = threading.local()

    def counting_pass(self, centroids, probes, final):
        passes = finals if final else steps
        passes.append(([], [], []))
        running[:] = passes[-1:]
        return map_blocks(self, centroids, probes, final)

    def counting_map(self, b, *args):
        running[0][0].append(len(self._blocks[b]))
        current.block = b
        return map_block(self, b, *args)

    def counting_sums(points, *args):
        running[0][2].append(current.block)
        return counts_and_sums(points, *args)

    def counting_labels(points, *args):
        running[0][1].append(len(points))
        return label_points(points, *args)

    monkeypatch.setattr(engine._Boundary, "_map_blocks", counting_pass)
    monkeypatch.setattr(engine._Boundary, "_map", counting_map)
    monkeypatch.setattr(engine, "_counts_and_sums", counting_sums)
    monkeypatch.setattr(engine, "label_points", counting_labels)
    return steps, finals


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

    def test_edpdcs_reads_every_row_once_per_planned_iteration(self, monkeypatch):
        data = synthetic_blobs(9000, 3, 4, seed=8)
        steps, finals = _count_rows(monkeypatch)
        _, _, report = _run_variant(data, 4, Variant.EDPDCS, 1.0)
        assert len(steps) == report.iterations_run - 1 and len(finals) == 1
        passes = steps + finals
        blocks = [stop - start for start, stop in block_spans(data.n_rows)]
        for read, labelled, _ in passes:
            assert read == blocks
            assert max(labelled, default=0) <= engine.MAP_BLOCK_ROWS
        # The first pass labels every row; each later pass is certified, and
        # labels fewer.
        assert sum(passes[0][1]) == data.n_rows
        assert all(sum(labelled) < data.n_rows for _, labelled, _ in passes[1:])
        # The final pass sums no counts and sums.
        assert finals[0][2] == []

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


def _store_lookups(monkeypatch, kind, log=None):
    """Log ("hit" or "miss", kind) for every lookup of a ``kind`` key in a
    dataset's store."""
    log = [] if log is None else log
    original = core._DatasetStore.get

    def get(self, key):
        value = original(self, key)
        if key[0] == kind:
            log.append(("miss" if value is None else "hit", kind))
        return value

    monkeypatch.setattr(core._DatasetStore, "get", get)
    return log


class TestCertificateGate:
    """The certificate changes which rows ``label_points`` sees, never a
    byte of a result."""

    RUNS = [
        (Variant.EDPDCS, 1.0),
        (Variant.NONPRIVATE, None),
        (Variant.RU_DPKM, 1.0),
        # Its first step, from the same rows as RU_DPKM's, is served from
        # the store, so its first labelling pass is its second step.
        (Variant.RF_DPKM, 1.0),
    ]

    def _runs(self, data, n_partitions, lookups):
        core._STORES.pop(data, None)
        out = []
        for variant, epsilon in self.RUNS:
            lookups.clear()
            _, labels, report = _run_variant(data, 4, variant, epsilon, n_partitions=n_partitions)
            out.append((report.comparable_json(), labels.labels.tobytes()))
        assert lookups[0] == ("hit", "pass")
        return out

    def test_gate_off_and_on_give_the_same_bytes(self, monkeypatch):
        data = synthetic_blobs(9000, 3, 4, seed=8)
        steps, finals = _count_rows(monkeypatch)
        lookups = _store_lookups(monkeypatch, "pass")
        on = {parts: self._runs(data, parts, lookups) for parts in (1, 2, 8)}
        # Every run reads every row in each pass; with the gate on, whole
        # passes go by with a few hundred rows labelled.
        assert all(sum(read) == data.n_rows for read, _, _ in steps + finals)
        assert sum(sum(labelled) < data.n_rows / 8 for _, labelled, _ in steps + finals) >= 10
        # ... and still blocks keep their counts and sums.
        assert sum(len(summed) for _, _, summed in steps) < sum(len(r) for r, _, _ in steps)
        assert all(summed == [] for _, _, summed in finals)
        steps.clear()
        finals.clear()
        monkeypatch.setattr(engine, "CERTIFY_SHARE", math.inf)
        off = {parts: self._runs(data, parts, lookups) for parts in (1, 2, 8)}
        assert all(sum(labelled) == data.n_rows for _, labelled, _ in steps + finals)
        assert all(len(summed) == len(read) for read, _, summed in steps)
        assert all(summed == [] for _, _, summed in finals)
        assert off == on

    def test_stale_candidates_after_a_stored_pass(self, monkeypatch):
        # The run's candidates come from its latest labelling pass, not from
        # a pass the store served since.
        data = synthetic_blobs(9000, 3, 4, seed=8)
        _, _, report = _run_variant(data, 4, Variant.EDPDCS, 1.0)
        c1, c2, c3, c4 = (np.array(it["centroids_after"]) for it in report.iterations[:4])

        def passes():
            core._STORES.pop(data, None)
            _boundary(data)._statistics(c3)
            agg = _boundary(data, 2, 2)
            try:
                got = [agg._statistics(c1), agg._statistics(c2), agg._statistics(c3)]
                return got + [agg._statistics(c4), agg.final_pass(c4)]
            finally:
                agg.close()

        steps, _ = _count_rows(monkeypatch)
        on = passes()
        # The c4 pass certifies from the c2 pass's labels, and relabels the
        # rows whose label moved since.
        *_, (_, labelled, _) = steps
        assert 0 < sum(labelled) < data.n_rows / 8
        assert not np.array_equal(label_points(data.points, c2), on[4][1])
        monkeypatch.setattr(engine, "CERTIFY_SHARE", math.inf)
        off = passes()
        for got, want in zip(on, off):
            assert [np.asarray(v).tobytes() for v in got] == [
                np.asarray(v).tobytes() for v in want
            ]


class TestKeptPartials:
    """A block that tries the certificate and where no row's label moved
    keeps the counts and sums of its candidates instead of summing them."""

    def test_later_passes_sum_only_blocks_with_a_moved_label(self, monkeypatch):
        data = synthetic_blobs(9000, 3, 4, seed=8)
        spans = block_spans(data.n_rows)
        passes, _ = _count_rows(monkeypatch)
        seen = []
        counted_pass = engine._Boundary._map_blocks

        def map_blocks(self, centroids, probes, final):
            if not final:
                tries = [b in self._kept for b in range(len(spans))]
                seen.append((tries, label_points(data.points, centroids)))
            return counted_pass(self, centroids, probes, final)

        monkeypatch.setattr(engine._Boundary, "_map_blocks", map_blocks)
        _run_variant(data, 4, Variant.EDPDCS, 1.0)
        kept = 0
        for (_, _, summed), (tries, labels), (_, before) in zip(passes[1:], seen[1:], seen):
            if not all(tries):
                assert summed == list(range(len(spans)))
                continue
            moved = [b for b, (s, e) in enumerate(spans) if (labels[s:e] != before[s:e]).any()]
            assert summed == moved
            kept += len(spans) - len(moved)
        assert kept > 0

    def _two_blocks(self, monkeypatch):
        # Blocks of 16 and 12 rows near two centroids on the line y = 1/2.
        # Row 15 is unsure against them but keeps its label; row 21 lies
        # near their bisector.
        monkeypatch.setattr(engine, "MAP_BLOCK_ROWS", 16)
        rng = np.random.Generator(np.random.PCG64(4))
        points = np.where(np.arange(28)[:, None] % 2, [0.75, 0.5], [0.25, 0.5])
        points = points + rng.uniform(-0.02, 0.02, (28, 2))
        points[15] = [0.3, 0.95]
        points[21] = [0.48, 0.5]
        return Dataset(points=points, normalized=True)

    def test_unsure_rows_that_keep_their_labels_keep_the_partials(self, monkeypatch):
        data = self._two_blocks(monkeypatch)
        start = np.array([[0.25, 0.5], [0.75, 0.5]])
        # Every label stays; then row 21 moves to the nearer second centroid.
        nudged = np.array([[0.25, 0.5], [0.75, 0.5 + 2.0**-10]])
        pulled = np.array([[0.25, 0.5], [0.70, 0.5]])

        def passes():
            core._STORES.pop(data, None)
            agg = _boundary(data)
            got = [agg._statistics(c) for c in (start, nudged, pulled)]
            return agg, got + [agg.final_pass(pulled)]

        steps, finals = _count_rows(monkeypatch)
        agg, on = passes()
        assert [(labelled, summed) for _, labelled, summed in steps] == [
            ([16, 12], [0, 1]),  # both blocks probe and pass
            ([1], []),  # row 15 is relabelled, and stays
            ([1, 1], [1]),  # row 15 stays; row 21 moves
        ]
        assert finals == [([16, 12], [1], [])]  # row 15 is still unsure, and stays
        assert label_points(data.points, nudged)[21] == 0 and on[3][1][21] == 1
        # The kept partials are read-only and never the pass's sums.
        assert sorted(agg._kept) == [0, 1]
        for counts, sums in agg._kept.values():
            assert not counts.flags.writeable and not sums.flags.writeable
            with pytest.raises(ValueError):
                counts += 1.0
            assert not np.shares_memory(counts, on[2][0])
            assert not np.shares_memory(sums, on[2][1])
        monkeypatch.setattr(engine, "CERTIFY_SHARE", math.inf)
        off = passes()[1]
        for got, want in zip(on, off):
            assert [np.asarray(v).tobytes() for v in got] == [
                np.asarray(v).tobytes() for v in want
            ]

    def test_a_failed_try_labels_only_its_unsure_rows_and_stops(self, monkeypatch):
        data = self._two_blocks(monkeypatch)
        start = np.array([[0.25, 0.5], [0.75, 0.5]])
        # The second centroid pulled towards the first: in each block the
        # rows near x = 3/4, half of them, are unsure.  Row 21 moves.
        pulled = np.array([[0.25, 0.5], [0.40, 0.5]])
        # A store that keeps nothing: the third pass, against the first's
        # centroids, reads the data.
        monkeypatch.setattr(core, "STORE_BYTES", 0)

        def passes():
            agg = _boundary(data)
            got, kept = [], []
            for c in (start, pulled, start):
                got.append(agg._statistics(c))
                kept.append([b in agg._kept for b in range(2)])
            return got, kept

        steps, _ = _count_rows(monkeypatch)
        on, kept = passes()
        assert [(labelled, summed) for _, labelled, summed in steps] == [
            ([16, 12], [0, 1]),  # both blocks probe and pass
            ([8, 6], [1]),  # both tries fail, having labelled their unsure rows
            ([16, 12], [0, 1]),  # a probe would pass again, but none runs
        ]
        assert kept == [[True, True], [False, False], [False, False]]
        assert [label_points(data.points, c)[21] for c in (start, pulled)] == [0, 1]
        monkeypatch.setattr(engine, "CERTIFY_SHARE", math.inf)
        off, _ = passes()
        for got, want in zip(on, off):
            assert [np.asarray(v).tobytes() for v in got] == [
                np.asarray(v).tobytes() for v in want
            ]

    def test_threads_keep_what_one_thread_keeps(self, monkeypatch):
        # More workers than cores update one map of kept blocks: every pass
        # must leave the same blocks keeping, and give the same bytes, as a
        # serial pass.
        monkeypatch.setattr(engine, "MAP_BLOCK_ROWS", 64)
        data = synthetic_blobs(64 * 40 + 9, 2, 3, seed=7)
        _, _, report = _run_variant(data, 3, Variant.EDPDCS, 30.0)
        centroids = [np.array(it["centroids_after"]) for it in report.iterations]

        def passes(n_partitions, workers):
            core._STORES.pop(data, None)
            agg = _boundary(data, n_partitions, workers)
            try:
                got = []
                for c in centroids:
                    got.append([v.tobytes() for v in agg._statistics(c)[:2]])
                    got.append(sorted(agg._kept))
                sq_dist, labels = agg.final_pass(centroids[-1])
                return got + [sq_dist, labels.tobytes(), sorted(agg._kept)]
            finally:
                agg.close()

        serial = passes(1, 1)
        assert any(serial[1:-3:2])  # some blocks keep
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert passes(8, 6) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_one_block_never_keeps_partials(self, blood_like, monkeypatch):
        # The shape of the benchmark's paper grid: one block of 748 rows.
        steps, finals = _count_rows(monkeypatch)
        aggregators = []
        counted_close = engine._Boundary.close

        def close(self):
            aggregators.append(self)
            return counted_close(self)

        monkeypatch.setattr(engine._Boundary, "close", close)
        reports = [
            _run_variant(blood_like, 2, variant, epsilon)[2]
            for variant, epsilon in TestCertificateGate.RUNS
        ]
        assert len(aggregators) == 4 and steps
        assert all(agg._kept == {} for agg in aggregators)
        # Each step pass that reads the data sums its one block once; the
        # final passes sum nothing.
        assert all(p == ([748], [748], [0]) for p in steps)
        assert finals == [([748], [748], [])] * 4
        # The store holds the step passes' entries only: a run's last
        # centroids are labelled by its final pass alone.
        step_keys = {
            engine._pass_key(np.array(it["centroids_after"]))
            for report in reports
            for it in report.iterations[:-1]
        }
        stored = {key for key in core._STORES[blood_like].entries if key[0] == "pass"}
        assert stored == step_keys


class TestFinalPass:
    """A run's final pass gives the labels and the squared-distance sum, and
    nothing else."""

    @pytest.mark.parametrize("n_partitions", [1, 2])
    def test_final_pass_neither_probes_nor_stores(self, n_partitions, monkeypatch):
        data = synthetic_blobs(9000, 3, 4, seed=8)
        events = []
        final_pass = engine._Boundary.final_pass
        bounds = engine.certificate_bounds
        put = core._DatasetStore.put

        def final(self, centroids):
            events.append(("final", len(self._kept)))
            try:
                return final_pass(self, centroids)
            finally:
                events.append(("end", len(self._kept)))

        def counting_bounds(*args):
            events.append(("bounds",))
            return bounds(*args)

        def counting_put(self, key, value):
            events.append(("put", key[0]))
            return put(self, key, value)

        monkeypatch.setattr(engine._Boundary, "final_pass", final)
        monkeypatch.setattr(engine, "certificate_bounds", counting_bounds)
        monkeypatch.setattr(core._DatasetStore, "put", counting_put)
        runs = []
        # The second run's steps are all served from the store, so its final
        # pass is its first read of the data, where a step pass would probe.
        for _ in range(2):
            events.clear()
            cs, labels, report = _run_variant(
                data, 4, Variant.EDPDCS, 1.0, n_partitions=n_partitions
            )
            (start,) = [i for i, event in enumerate(events) if event[0] == "final"]
            runs.append((report.comparable_json(), labels.labels.tobytes(), events[start:]))
            want = label_points(data.points, cs.centroids)
            assert np.array_equal(labels.labels, want)
            sq_dist = 0.0
            for s, e in block_spans(data.n_rows):
                diff = engine._squared_differences(data.points[s:e], cs.centroids, want[s:e])
                sq_dist += float(diff.sum())
            assert report.nicv == sq_dist / data.n_rows
        (cold_json, cold_labels, cold), (warm_json, warm_labels, warm) = runs
        assert (warm_json, warm_labels) == (cold_json, cold_labels)
        # Cold, blocks keep counts and sums from the step passes, so the
        # final pass needs bounds for their tries; it puts nothing.
        assert cold[0][1] > 0 and cold[1:] == [("bounds",), cold[-1]]
        # Warm, no block keeps anything and none probes: no bounds, no put.
        assert warm == [("final", 0), ("end", 0)]


class TestPassMemo:
    """The labelling-pass statistics kept in a dataset's store."""

    def _count_passes(self, monkeypatch):
        """The centroids' bytes of every pass that reads the data, step or
        final."""
        passes = []
        map_blocks = engine._Boundary._map_blocks

        def counted(self, centroids, probes, final):
            passes.append(centroids.tobytes())
            return map_blocks(self, centroids, probes, final)

        monkeypatch.setattr(engine._Boundary, "_map_blocks", counted)
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

    def test_readme_quotes_the_grids_store_hits(self, blood_like, monkeypatch):
        # The 451-run grid of ``compare --seeds 30`` over the blood layout.
        lookups = _store_lookups(monkeypatch, "pass")
        summary = compare_variants(blood_like, 2, [0.5, 1.0, 1.5, 2.0, 3.0], n_seeds=30)
        assert len(summary.runs) == 451
        quote = (
            f"{lookups.count(('hit', 'pass')):,} of {len(lookups):,} step passes"
            " are served from the store, and the 451 final passes read the data"
        )
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        assert quote in " ".join(readme.split())

    @pytest.mark.parametrize("n_partitions", [1, 2])
    @pytest.mark.parametrize("variant,epsilon", TestCertificateGate.RUNS)
    def test_every_read_comes_after_its_charge(self, variant, epsilon, n_partitions, monkeypatch):
        # A charge comes before what it pays for: EDPDCS's "init" before the
        # canopy start's lookup in the store and, cold, its read of the rows,
        # and each noisy step's charge before its lookup and, cold, its step
        # pass.
        data = synthetic_blobs(9000, 3, 4, seed=8)
        events = []

        class Ledger(engine.BudgetLedger):
            def charge(self, phase, amount):
                events.append(("charge", phase))
                return super().charge(phase, amount)

        map_blocks = engine._Boundary._map_blocks
        select_initial_centroids = engine.select_initial_centroids

        def reading_pass(self, centroids, probes, final):
            events.append(("read", "final" if final else "pass"))
            return map_blocks(self, centroids, probes, final)

        def reading_canopy(*args):
            events.append(("read", "canopy"))
            return select_initial_centroids(*args)

        monkeypatch.setattr(engine, "BudgetLedger", Ledger)
        monkeypatch.setattr(engine._Boundary, "_map_blocks", reading_pass)
        monkeypatch.setattr(engine, "select_initial_centroids", reading_canopy)
        for kind in ("pass", "canopy", "rows"):
            _store_lookups(monkeypatch, kind, events)

        def expected(report, cold):
            def lookup(kind):
                return [("miss", kind), ("read", kind)] if cold else [("hit", kind)]

            want = []
            if not variant.has_canopy_start:
                want.append(("miss" if cold else "hit", "rows"))
            elif epsilon is not None:
                want += [("charge", "init")] + lookup("canopy")
            else:
                want += lookup("canopy")
            for it in report.iterations[1:]:
                if epsilon is not None:
                    want.append(("charge", f"iteration-{it['iteration']}"))
                want += lookup("pass")
            return want + [("read", "final")]

        runs = []
        for cold in (True, False):
            events.clear()
            _, _, report = _run_variant(data, 4, variant, epsilon, n_partitions=n_partitions)
            assert events == expected(report, cold)
            runs.append(report.comparable_json())
        assert runs[0] == runs[1]

    def test_entries_are_read_only_statistics_within_the_bound(self, small_blobs, monkeypatch):
        compare_variants(small_blobs, 3, [0.5, 1.0], n_seeds=2)
        store = core._STORES[small_blobs]
        passes = [(key, entry) for key, entry in store.entries.items() if key[0] == "pass"]
        assert passes
        for key, ((counts, sums, sq_dist), one) in passes:
            assert key[1] == (3, small_blobs.n_dims)
            assert counts.shape == (3,) and sums.shape == key[1]
            assert not counts.flags.writeable and not sums.flags.writeable
            assert isinstance(sq_dist, float)
            assert one == len(key[2]) + counts.nbytes + sums.nbytes + core._ENTRY_OVERHEAD
        sizes = [size for _, size in store.entries.values()]
        assert store.nbytes == sum(sizes) <= core.STORE_BYTES

        # A bound of three pass entries keeps the three most recently used.
        monkeypatch.setattr(core, "STORE_BYTES", 3 * one)
        core._STORES.pop(small_blobs)
        rng = np.random.Generator(np.random.PCG64(1))
        starts = [CentroidSet(centroids=rng.random((3, 3))) for _ in range(5)]
        cfg = EngineConfig(variant=Variant.NONPRIVATE, nonprivate_max_iters=1)
        for start in starts:
            run_baseline(small_blobs, 3, None, cfg, initial_centroids=start)
        store = core._STORES[small_blobs]
        assert len(store.entries) == 3 and store.nbytes == 3 * one
        # Each run's one step pass, against its start, put the only entry;
        # the last three runs' stayed.
        assert list(store.entries) == [engine._pass_key(s.centroids) for s in starts[2:]]

    def test_threads_sharing_one_state(self, monkeypatch):
        # More workers than cores against one small memo: every pass must
        # match its cold value and the byte count must stay exact.
        data = synthetic_blobs(500, 2, 3, seed=2)
        rng = np.random.Generator(np.random.PCG64(3))
        centroids = [rng.random((3, 2)) for _ in range(12)]
        want = []
        for c in centroids:
            want.append(_boundary(data)._statistics(c))
        _, one = core._STORES.pop(data).entries[engine._pass_key(centroids[0])]
        monkeypatch.setattr(core, "STORE_BYTES", 4 * one)
        errors = []

        def worker(offset):
            agg = _boundary(data)
            try:
                for i in range(60):
                    j = (i * 5 + offset) % len(centroids)
                    got = agg._statistics(centroids[j])
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
        store = core._STORES[data]
        assert store.nbytes == len(store.entries) * one <= 4 * one


class TestRandomRowStart:
    def test_indices_are_the_sorted_seeded_draw(self):
        for master_seed, n, k in [(0, 748, 2), (7, 50, 5), (3, 9, 9)]:
            data = synthetic_blobs(n, 2, 1, seed=master_seed)
            seed = derive_stream_seed(master_seed, 0, 1)
            want = np.random.Generator(np.random.PCG64(seed)).choice(n, k, replace=False)
            start = _boundary(data, master_seed=master_seed).random_rows(k)
            assert np.array_equal(start, data.points[np.sort(want)])
            (idx,) = core._STORES[data].get(("rows", k, master_seed))
            assert np.array_equal(idx, np.sort(want))

    def test_memo_is_read_only_and_start_is_a_fresh_copy(self, small_blobs):
        start = _boundary(small_blobs, master_seed=11).random_rows(3)
        (idx,) = core._STORES[small_blobs].get(("rows", 3, 11))
        assert not idx.flags.writeable
        assert start.shape == (3, small_blobs.n_dims) and start.flags.writeable
        assert not np.shares_memory(start, small_blobs.points)
        assert np.array_equal(start, small_blobs.points[idx])

    def test_grid_draws_once_per_master_seed(self, small_blobs, monkeypatch):
        lookups = _store_lookups(monkeypatch, "rows")
        compare_variants(small_blobs, 3, [0.5, 1.0, 1.5, 2.0, 3.0], n_seeds=3)
        # RF_DPKM and RU_DPKM at five epsilons share each seed's start.
        assert lookups.count(("miss", "rows")) == 3
        assert lookups.count(("hit", "rows")) == 2 * 5 * 3 - 3


#: The stream (i, j) of the master seed each purpose of a run draws from;
#: step t draws cluster j's noise from (t, j).  Two streams are shared
#: (ROADMAP item 1): (0, 1), and (1, 0) with step 1's cluster 0.
STREAMS = {"subsample": (0, 0), "fill": (0, 1), "random rows": (0, 1), "start noise": (1, 0)}


class TestStreamPurposes:
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
        start, _, _ = _boundary(small_blobs).canopy_start(3, CanopyParams(), None)
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

    @pytest.mark.parametrize(
        "variant, epsilon",
        [(Variant.RF_DPKM, 1.0), (Variant.RU_DPKM, 1.0), (Variant.NONPRIVATE, None)],
    )
    def test_initial_centroids_outside_the_cube_rejected(self, variant, epsilon):
        # Far outside, the init entry's nicv_after (and RF_DPKM's first
        # centroid_shift) overflowed to inf, which to_json wrote as Infinity.
        data = synthetic_blobs(50, 2, 2, 0)
        cfg = EngineConfig(variant=variant)
        just_above, just_below = np.nextafter(1.0, 2.0), -np.nextafter(0.0, 1.0)
        for outside in ([[1e200, 1e200], [-1e200, 2.0]], [[0.5, just_above], [0.5, 0.5]],
                        [[0.5, 0.5], [just_below, 0.5]]):
            start = CentroidSet(centroids=outside)
            with pytest.raises(InvalidInputError, match="unit cube"):
                run_baseline(data, 2, epsilon, cfg, initial_centroids=start)

        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")

        start = CentroidSet(centroids=[[0.0, 0.0], [1.0, 1.0]])
        report = run_baseline(data, 2, epsilon, cfg, initial_centroids=start)[2]
        json.loads(report.to_json(), parse_constant=refuse)

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

    @pytest.mark.parametrize("variant", [v for v in Variant if v.spends_epsilon])
    @pytest.mark.parametrize("epsilon", [1e-6, 1e-300])
    def test_noise_swamps_every_count_at_a_tiny_epsilon(self, epsilon, variant):
        # The noise dwarfs every count and sum, so it sets each centroid
        # through the count floor of 1 and the clip to the cube.  Such a run
        # adds no note of its own: only RU_DPKM's residual note appears.
        data = synthetic_blobs(300, 3, 3, seed=1)
        k, d = 3, data.n_dims
        cs, _, report = _run_variant(data, k, variant, epsilon)
        assert np.isfinite(cs.centroids).all()
        assert (cs.centroids >= 0.0).all() and (cs.centroids <= 1.0).all()
        if variant.takes_planner_inputs:
            assert report.plan["iterations"] == 2 == report.iterations_run
        for it in report.iterations:
            charged = it["budget_charged"] is not None
            assert it["noise_draws"] == (k * (d + 1) if charged else 0), it
        if variant is Variant.RU_DPKM:
            residual = report.budget_remaining
            assert residual > 0.0
            assert report.notes == [f"residual budget {residual:.6g} left by halving schedule"]
        else:
            assert report.budget_spent == pytest.approx(epsilon, rel=1e-12)
            assert report.budget_remaining == pytest.approx(0.0, abs=1e-9 * epsilon)
            assert report.notes == []


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
            core._STORES.pop(data, None)  # every partition count reads the data
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
            core._STORES.pop(data, None)  # every partition count reads the data
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
            core._STORES.pop(data, None)  # every partition count reads the data
            _, _, report = _run_variant(data, 5, variant, epsilon, n_partitions=parts, threads=2)
            jsons.append(report.comparable_json())
        assert jsons[0] == jsons[1]
