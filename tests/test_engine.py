import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpkmeans import engine
from dpkmeans.canopy import CanopyParams, select_initial_centroids
from dpkmeans.core import (
    CentroidSet,
    ClusterAggregate,
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
from dpkmeans.evaluation import nicv
from dpkmeans.ingestion import synthetic_blobs
from dpkmeans.mechanism import LaplaceSampler
from dpkmeans.planner import PlannerInputs, make_plan, minimal_iteration_budget

CORNERS = Dataset(
    points=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
    normalized=True,
)


_reduce = engine._reduce_cluster_full


def _agg(j, count, sums):
    return ClusterAggregate(
        cluster_index=j, count=float(count), sums=np.asarray(sums, dtype=np.float64)
    )


class TestBlockSpans:
    def test_exact_multiple(self):
        assert block_spans(8192) == [(0, 4096), (4096, 8192)]

    def test_ragged_tail(self):
        assert block_spans(5000) == [(0, 4096), (4096, 5000)]

    def test_small_input_single_block(self):
        assert block_spans(10) == [(0, 10)]

    def test_custom_block_rows(self):
        assert block_spans(7, block_rows=3) == [(0, 3), (3, 6), (6, 7)]


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


class TestReduceCluster:
    def test_plain_mean_without_privacy(self):
        c, noisy = _reduce(_agg(0, 4, [2.0, 3.0]), None, prev_centroid=np.zeros(2))
        assert c == pytest.approx([0.5, 0.75])
        assert noisy is None

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
            agg = engine._BlockAggregator(
                data, EngineConfig(n_partitions=parts, threads=2)
            )
            try:
                got_counts, got_sums, _, _ = agg.labelling_pass(centroids, 4)
            finally:
                agg.close()
            assert np.array_equal(got_counts, counts)
            assert np.array_equal(got_sums, sums)

    def test_empty_cluster_keeps_previous_centroid(self):
        prev = np.array([0.3, 0.7])
        c, _ = _reduce(_agg(0, 0, [0.0, 0.0]), None, prev_centroid=prev)
        assert np.array_equal(c, prev)
        c[0] = -1.0  # must be a copy
        assert prev[0] == 0.3

    def test_vanishing_noise_matches_exact_mean(self):
        sampler = LaplaceSampler(rng_seed=0)
        c, _ = _reduce(
            _agg(0, 4, [2.0, 3.0]), (1e12, sampler), prev_centroid=np.zeros(2)
        )
        assert c == pytest.approx([0.5, 0.75], abs=1e-9)

    def test_noisy_centroid_reconstructed_from_stream(self):
        # Frozen seed 2: the first draw at scale 10 is -6.4774...,
        # pushing the noisy count below the floor.  Count and sums share
        # one epsilon; perturb_aggregate's own tests cover distinct ones.
        share = 0.1
        sums = np.array([1.2, 0.4])
        c, noisy = _reduce(
            _agg(0, 2, sums),
            (share, LaplaceSampler(rng_seed=2)),
            prev_centroid=np.zeros(2),
        )
        replay = LaplaceSampler(rng_seed=2)
        count_noise = replay.draw_many(1, 1.0 / share)[0]
        dim_noise = replay.draw_many(2, 1.0 / share)
        assert count_noise < -1.5
        assert 2.0 + count_noise < 1.0  # denominator hits the min_count floor
        expected = np.clip((sums + dim_noise) / 1.0, 0.0, 1.0)
        assert np.array_equal(c, expected)
        assert noisy.count == 2.0 + count_noise
        assert np.array_equal(noisy.sums, sums + dim_noise)

    def test_clamp_keeps_unit_cube(self):
        c, _ = _reduce(
            _agg(0, 1, [0.9, 0.1]),
            (0.01, LaplaceSampler(rng_seed=5)),
            prev_centroid=np.zeros(2),
        )
        assert np.all(c >= 0.0) and np.all(c <= 1.0)

    def test_clamp_can_be_disabled(self):
        kwargs = dict(prev_centroid=np.zeros(2), min_count=1.0)
        clamped, _ = _reduce(
            _agg(0, 1, [0.9, 0.1]),
            (0.01, LaplaceSampler(rng_seed=5)),
            clamp=True,
            **kwargs,
        )
        raw, _ = _reduce(
            _agg(0, 1, [0.9, 0.1]),
            (0.01, LaplaceSampler(rng_seed=5)),
            clamp=False,
            **kwargs,
        )
        assert np.any(raw != clamped)
        assert np.array_equal(np.clip(raw, 0.0, 1.0), clamped)


class TestEngineConfig:
    def test_defaults(self):
        cfg = EngineConfig(variant=Variant.EDPDCS)
        assert cfg.n_partitions == 1
        assert cfg.clamp_centroids
        assert cfg.min_count == 1.0

    def test_invalid_partitions(self):
        with pytest.raises(InvalidInputError):
            EngineConfig(variant=Variant.EDPDCS, n_partitions=0)

    def test_invalid_threads(self):
        with pytest.raises(InvalidInputError):
            EngineConfig(variant=Variant.EDPDCS, threads=0)

    def test_resolved_threads_never_exceeds_partitions(self):
        cfg = EngineConfig(variant=Variant.EDPDCS, n_partitions=2, threads=16)
        assert cfg.resolved_threads() <= 2


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
            cfg = EngineConfig(
                variant=Variant.EDPDCS, n_partitions=parts, master_seed=0, threads=2
            )
            cs, _, rep = run_edpdcs(data, 3, inputs, config=cfg)
            reports[parts] = (cs.centroids, rep.comparable_json())
        assert np.array_equal(reports[1][0], reports[3][0])
        assert reports[1][1] == reports[3][1]

    def test_final_centroids_are_noisy_and_clamped(self, small_blobs):
        inputs = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=0.5)
        cs, labels, _ = run_edpdcs(small_blobs, 3, inputs)
        assert cs.noisy
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

    def test_diagnostics_records_aggregates(self, small_blobs):
        inputs = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        cfg = EngineConfig(variant=Variant.EDPDCS, diagnostics=True)
        _, _, report = run_edpdcs(small_blobs, 3, inputs, config=cfg)
        lloyd = [it for it in report.iterations if it["phase"] == "lloyd"]
        assert lloyd
        for entry in lloyd:
            exact = entry["exact_aggregates"]
            assert len(exact) == 3
            assert sum(a["count"] for a in exact) == 400.0
            assert len(entry["noisy_aggregates"]) == 3

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

        def counting(points, centroids):
            rows.append(len(points))
            return label_points(points, centroids)

        monkeypatch.setattr(engine, "label_points", counting)
        _, _, report = _run_variant(data, 4, Variant.EDPDCS, 3.0)
        assert sum(rows) == report.iterations_run * data.n_rows
        assert max(rows) <= engine.MAP_BLOCK_ROWS

    def test_timings_cover_the_final_pass(self, small_blobs, monkeypatch):
        def slow(points, centroids):
            time.sleep(0.02)
            return label_points(points, centroids)

        monkeypatch.setattr(engine, "label_points", slow)
        for variant, epsilon in [(Variant.EDPDCS, 1.0), (Variant.NONPRIVATE, None)]:
            _, _, report = _run_variant(small_blobs, 3, variant, epsilon)
            t = report.timings_ms
            assert t["final_ms"] >= 20.0
            spans = t["init_ms"] + sum(t["iterations_ms"]) + t["final_ms"]
            assert spans <= t["total_ms"]
            assert "timings_ms" not in report.comparable_json()


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

    def test_never_runs_past_cap(self, small_blobs):
        cfg = EngineConfig(variant=Variant.RU_DPKM, master_seed=4, ru_max_iters=3)
        _, _, report = run_baseline(small_blobs, 3, 1.0, cfg)
        assert report.iterations_run <= 3


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
        assert not cs.noisy

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
        assert final_shift < cfg.nonprivate_shift_tol

    def test_matches_plain_lloyd_reference(self, small_blobs):
        # Independent dense Lloyd implementation, same canopy start.
        init = select_initial_centroids(
            small_blobs,
            3,
            CanopyParams(seed=_canopy_seed(0)),
            None,
            None,
            dp_enabled=False,
            fill_seed=_fill_seed(0),
        )
        expect = np.array(init.centroids.centroids, copy=True)
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


def _canopy_seed(master):
    from dpkmeans.mechanism import derive_stream_seed

    return derive_stream_seed(master, 0, 0)


def _fill_seed(master):
    from dpkmeans.mechanism import derive_stream_seed

    return derive_stream_seed(master, 0, 1)


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
        runs = [
            _run_variant(data, k, variant, epsilon, n_partitions=p, threads=p)
            for p in (1, 2, 3)
        ]
        cs0, labels0, report0 = runs[0]
        for cs, labels, report in runs[1:]:
            assert report.comparable_json() == report0.comparable_json()
            assert np.array_equal(labels.labels, labels0.labels)
            assert np.array_equal(cs.centroids, cs0.centroids)
