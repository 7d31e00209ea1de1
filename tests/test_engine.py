import dataclasses
import json
import math
import pathlib
import time
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dpkmeans import core, engine
from dpkmeans.canopy import CanopyParams
from dpkmeans.core import CentroidSet, Dataset, InvalidInputError, assign_labels, label_points
from dpkmeans.engine import EngineConfig, Variant, block_spans, run_baseline, run_edpdcs
from dpkmeans.evaluation import compare_variants, nicv
from dpkmeans.ingestion import normalize, synthetic_blobs
from dpkmeans.mechanism import laplace_inverse_cdf, noisy_mean
from dpkmeans.planner import PlannerInputs


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


class TestBlockPartials:
    def test_partials_are_read_only(self):
        # A block that keeps its counts and sums keeps these arrays: a pass's
        # merge adds them into fresh arrays, and can never write to them.
        pts = np.random.Generator(np.random.PCG64(6)).random((50, 2))
        for partial in engine._counts_and_sums(pts, label_points(pts, pts[:3]), 3):
            assert not partial.flags.writeable
            with pytest.raises(ValueError):
                partial += 1.0

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


class TestReduceCluster:
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


def _run_variant(data, k, variant, epsilon, **config):
    cfg = EngineConfig(variant=variant, master_seed=2, **config)
    if variant is Variant.EDPDCS:
        inputs = PlannerInputs(
            n_rows=data.n_rows, n_dims=data.n_dims, k=k, epsilon_total=epsilon
        )
        return run_edpdcs(data, k, inputs, config=cfg)
    return run_baseline(data, k, epsilon, cfg)


def _reads(work):
    """The entries of a work record whose pass read the data."""
    return [entry for entry in work if not entry.from_store]


class TestWorkRecord:
    """``RunReport.work``: one entry per labelling pass, in run order."""

    def test_passes_follow_the_plan_and_count_the_rows_labelled(self, monkeypatch):
        data = synthetic_blobs(9000, 3, 4, seed=8)
        calls = []

        def counting(points, *args):
            calls.append(len(points))
            return label_points(points, *args)

        monkeypatch.setattr(engine, "label_points", counting)
        _, _, report = _run_variant(data, 4, Variant.EDPDCS, 1.0)
        work = report.work
        assert [w.kind for w in work] == ["step"] * (report.iterations_run - 1) + ["final"]
        assert _reads(work) == work and all(w.rows_read == data.n_rows for w in work)
        assert max(calls) <= engine.MAP_BLOCK_ROWS
        assert sum(calls) == sum(w.rows_labelled for w in work)
        # The first pass labels every row; each later pass is certified, and
        # labels fewer.  The final pass sums no counts and sums.
        assert work[0].rows_labelled == data.n_rows
        assert all(w.rows_labelled < data.n_rows for w in work[1:])
        assert work[-1].blocks_summed == 0

    def test_rows_read_by_the_passes_that_read(self):
        data = synthetic_blobs(9000, 3, 4, seed=8)
        for variant, epsilon in TestCertificateGate.RUNS:
            work = _run_variant(data, 4, variant, epsilon)[2].work
            assert sum(w.rows_read for w in work) == data.n_rows * len(_reads(work))
            # RF_DPKM's first step is RU_DPKM's: the store serves it.
            assert work[0].from_store == (variant is Variant.RF_DPKM)
            served = [w for w in work if w.from_store]
            assert served == [engine.PassWork("step", True, 0, 0, 0)] * len(served)


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


def _passes(data, centroids, n_partitions=1, threads=None, final=True):
    """A step pass against each of ``centroids`` on one new boundary and, if
    ``final``, a final pass against the last: the bytes of what each pass
    gave, and the boundary's work record."""
    agg = _boundary(data, n_partitions, threads)
    try:
        got = [agg.step(t, None, c)[::2] for t, c in enumerate(centroids, 1)]
        if final:
            got.append(agg.final_pass(centroids[-1]))
        return [[np.asarray(v).tobytes() for v in values] for values in got], agg.work
    finally:
        agg.close()


class TestLabellingPasses:
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


class TestCertificateGate:
    """The certificate changes which rows ``label_points`` sees; the
    reference run (``test_reference_run.py``) pins every byte of a result."""

    # RF_DPKM's first step, from the same rows as RU_DPKM's, is served from
    # the store, so its first labelling pass is its second step.
    RUNS = [(Variant.EDPDCS, 1.0), (Variant.NONPRIVATE, None), (Variant.RU_DPKM, 1.0),
            (Variant.RF_DPKM, 1.0)]

    def _read_passes(self, data):
        """The work entries of the runs' passes that read the data, which 1,
        2 and 8 partitions must share."""
        by_parts = []
        for parts in (1, 2, 8):
            fresh = Dataset(points=data.points, normalized=True)  # an empty store
            runs = [_run_variant(fresh, 4, v, e, n_partitions=parts)[2] for v, e in self.RUNS]
            by_parts.append([w for report in runs for w in _reads(report.work)])
        assert by_parts[1] == by_parts[0] and by_parts[2] == by_parts[0]
        return by_parts[0]

    def test_gate_on_labels_fewer_rows_and_sums_fewer_blocks(self, monkeypatch):
        data = synthetic_blobs(9000, 3, 4, seed=8)
        n_blocks = len(block_spans(data.n_rows))
        reads = self._read_passes(data)
        # With the gate on, whole passes go by with a few hundred rows
        # labelled, and still blocks keep their counts and sums.
        assert sum(w.rows_labelled < data.n_rows / 8 for w in reads) >= 4
        steps = [w.blocks_summed for w in reads if w.kind == "step"]
        assert sum(steps) < n_blocks * len(steps)
        assert all(w.blocks_summed == 0 for w in reads if w.kind == "final")
        monkeypatch.setattr(engine, "CERTIFY_SHARE", math.inf)
        reads = self._read_passes(data)
        assert all(w.rows_labelled == data.n_rows for w in reads)
        assert all(w.blocks_summed == n_blocks * (w.kind == "step") for w in reads)

    def test_stale_candidates_after_a_stored_pass(self, monkeypatch):
        # The run's candidates come from its latest labelling pass, not from
        # a pass the store served since.
        data = synthetic_blobs(9000, 3, 4, seed=8)
        _, _, report = _run_variant(data, 4, Variant.EDPDCS, 1.0)
        c1, c2, c3, c4 = (np.array(it["centroids_after"]) for it in report.iterations[:4])

        def passes():
            fresh = Dataset(points=data.points, normalized=True)  # an empty store
            _boundary(fresh).step(3, None, c3)
            return _passes(fresh, [c1, c2, c3, c4], 2, 2)

        on, work = passes()
        assert [w.from_store for w in work] == [False, False, True, False, False]
        # The c4 pass certifies from the c2 pass's labels, and relabels the
        # rows whose label moved since, and a few more.
        moved = label_points(data.points, c2) != label_points(data.points, c4)
        assert data.n_rows / 8 > work[3].rows_labelled >= np.count_nonzero(moved) > 0
        monkeypatch.setattr(engine, "CERTIFY_SHARE", math.inf)
        assert passes()[0] == on


class TestKeptPartials:
    """A block that tries the certificate and where no row's label moved
    keeps the counts and sums of its candidates instead of summing them."""

    def test_later_passes_sum_only_blocks_with_a_moved_label(self):
        data = synthetic_blobs(9000, 3, 4, seed=8)
        spans = block_spans(data.n_rows)
        _, _, report = _run_variant(data, 4, Variant.EDPDCS, 1.0)
        labels = [label_points(data.points, np.array(it["centroids_after"]))
                  for it in report.iterations]
        # Every block probes and passes in the first pass, and keeps to the
        # end: a later pass sums exactly the blocks where a label moved.
        moved = [
            sum((before[s:e] != after[s:e]).any() for s, e in spans)
            for before, after in zip(labels, labels[1:-1])
        ]
        assert [w.blocks_summed for w in report.work[:-1]] == [len(spans)] + moved
        assert sum(moved) < len(spans) * len(moved)

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

    def _gate_on_and_off(self, monkeypatch, data, centroids, final):
        """Each pass's rows labelled and blocks summed with the gate on, and
        the same bytes as with it off."""
        on, work = _passes(data, centroids, final=final)
        monkeypatch.setattr(engine, "CERTIFY_SHARE", math.inf)
        assert _passes(data, centroids, final=final)[0] == on
        return [(w.rows_labelled, w.blocks_summed) for w in work]

    def test_unsure_rows_that_keep_their_labels_keep_the_partials(self, monkeypatch):
        data = self._two_blocks(monkeypatch)
        start = np.array([[0.25, 0.5], [0.75, 0.5]])
        # Every label stays; then row 21 moves to the nearer second centroid.
        nudged = np.array([[0.25, 0.5], [0.75, 0.5 + 2.0**-10]])
        pulled = np.array([[0.25, 0.5], [0.70, 0.5]])
        assert [label_points(data.points, c)[21] for c in (nudged, pulled)] == [0, 1]
        assert self._gate_on_and_off(monkeypatch, data, [start, nudged, pulled], True) == [
            (28, 2),  # both blocks probe and pass
            (1, 0),  # row 15 is relabelled, and stays
            (2, 1),  # row 15 stays; row 21 moves
            (1, 0),  # final: row 15 is still unsure, and stays
        ]

    def test_a_failed_try_labels_only_its_unsure_rows_and_stops(self, monkeypatch):
        data = self._two_blocks(monkeypatch)
        start = np.array([[0.25, 0.5], [0.75, 0.5]])
        # The second centroid pulled towards the first: in each block the
        # rows near x = 3/4, half of them, are unsure.  Row 21 moves.
        pulled = np.array([[0.25, 0.5], [0.40, 0.5]])
        assert [label_points(data.points, c)[21] for c in (start, pulled)] == [0, 1]
        # A store that keeps nothing: later passes against the first's
        # centroids read the data.
        monkeypatch.setattr(core, "STORE_BYTES", 0)
        centroids = [start, pulled, start, start]
        assert self._gate_on_and_off(monkeypatch, data, centroids, False) == [
            (28, 2),  # both blocks probe and pass
            (14, 1),  # both tries fail, having labelled their unsure rows
            (28, 2),  # a probe would pass again, but none runs,
            (28, 2),  # so no block keeps
        ]

    def test_threads_keep_what_one_thread_keeps(self, monkeypatch, busy_switches):
        # More workers than cores update one map of kept blocks: every pass
        # must label and sum what a serial pass does, and give its bytes.
        monkeypatch.setattr(engine, "MAP_BLOCK_ROWS", 64)
        data = synthetic_blobs(64 * 40 + 9, 2, 3, seed=7)
        _, _, report = _run_variant(data, 3, Variant.EDPDCS, 30.0)
        centroids = [np.array(it["centroids_after"]) for it in report.iterations]

        def passes(n_partitions, workers):
            fresh = Dataset(points=data.points, normalized=True)  # an empty store
            return _passes(fresh, centroids, n_partitions, workers)

        serial = passes(1, 1)
        assert any(w.rows_labelled < data.n_rows for w in serial[1])  # some blocks keep
        for _ in range(3):
            assert passes(8, 6) == serial

    def test_one_block_never_keeps_partials(self, blood_like):
        # The shape of the benchmark's paper grid: one block of 748 rows.
        reads = [
            w
            for variant, epsilon in TestCertificateGate.RUNS
            for w in _reads(_run_variant(blood_like, 2, variant, epsilon)[2].work)
        ]
        # Each pass that reads the data labels every row; each step pass sums
        # its one block once, and the final passes sum nothing.
        assert [w.kind for w in reads].count("final") == 4
        assert all(w.rows_labelled == 748 for w in reads)
        assert all(w.blocks_summed == (w.kind == "step") for w in reads)


class TestFinalPass:
    """A run's final pass gives the labels and the squared-distance sum, and
    nothing else."""

    @pytest.mark.parametrize("parts", [1, 2])
    def test_final_pass_neither_probes_nor_stores(self, parts, monkeypatch):
        data = synthetic_blobs(9000, 3, 4, seed=8)
        bounds, real = [], engine.certificate_bounds
        monkeypatch.setattr(engine, "certificate_bounds", lambda *a: bounds.append(a) or real(*a))

        def run():
            bounds.clear()
            _, labels, report = _run_variant(data, 4, Variant.EDPDCS, 1.0, n_partitions=parts)
            return report.comparable_json(), labels.labels.tobytes(), report.work

        # The second run's steps are all served from the store, so its final
        # pass is its first read of the data, where a step pass would probe.
        (cold_json, cold_labels, cold), (warm_json, warm_labels, warm) = run(), run()
        assert (warm_json, warm_labels) == (cold_json, cold_labels)
        assert [w.from_store for w in warm] == [True] * (len(warm) - 1) + [False]
        # Cold, blocks keep counts and sums from the step passes and try the
        # certificate in the final pass.  Warm, no block keeps, and the final
        # pass neither probes nor needs bounds: it labels every row.
        assert cold[-1].rows_labelled < data.n_rows == warm[-1].rows_labelled
        assert cold[-1].blocks_summed == warm[-1].blocks_summed == 0
        assert bounds == []
        # The store holds the step passes' entries only: a run's last
        # centroids are labelled by its final pass alone.
        stored = {key for key in core.dataset_store(data).entries if key[0] == "pass"}
        steps = json.loads(cold_json)["iterations"][:-1]
        assert stored == {engine._pass_key(np.array(it["centroids_after"])) for it in steps}


def _grid(data, k, n_partitions=1):
    """A small grid's runs, and the kind of each of their passes that read."""
    summary = compare_variants(
        data, k, [0.5, 1.0, 3.0], n_seeds=3, base_seed=5, n_partitions=n_partitions
    )
    reads = [w.kind for r in summary.runs for w in _reads(r.work)]
    return [r.comparable_json() for r in summary.runs], reads


class TestPassMemo:
    """The labelling-pass statistics kept in a dataset's store."""

    def test_warm_grid_rerun_is_byte_identical_to_cold(self, small_blobs):
        cold, cold_reads = _grid(small_blobs, 3)
        warm, warm_reads = _grid(small_blobs, 3)
        assert warm == cold
        # Without the store a run reads once per step and once at the end.
        # RF_DPKM and RU_DPKM at 3 epsilons share each of the 3 seeds' start,
        # so the cold grid saves at least 5 passes a seed; the rerun reads
        # only for its runs' final passes.
        steps = sum(it["phase"] == "lloyd" for r in cold for it in json.loads(r)["iterations"])
        assert len(cold_reads) <= steps + len(cold) - 5 * 3
        assert warm_reads == ["final"] * len(warm)

    def test_hit_at_two_partitions_reuses_one_partition_entry(self):
        data = synthetic_blobs(9000, 3, 4, seed=8)
        one, _ = _grid(data, 4)
        two, two_reads = _grid(data, 4, n_partitions=2)
        assert two == one
        assert two_reads == ["final"] * len(two)

    def test_readme_quotes_the_grids_store_hits(self, blood_like):
        # The 451-run grid of ``compare --seeds 30`` over the blood layout.
        summary = compare_variants(blood_like, 2, [0.5, 1.0, 1.5, 2.0, 3.0], n_seeds=30)
        work = [w for r in summary.runs for w in r.work]
        steps = [w.from_store for w in work if w.kind == "step"]
        finals = [w.from_store for w in work if w.kind == "final"]
        assert len(summary.runs) == len(finals) == 451 and not any(finals)
        quote = (
            f"{sum(steps):,} of {len(steps):,} step passes"
            " are served from the store, and the 451 final passes read the data"
        )
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        assert quote in " ".join(readme.split())

    @pytest.mark.parametrize("n_partitions", [1, 2])
    @pytest.mark.parametrize("variant,epsilon", TestCertificateGate.RUNS)
    def test_every_read_comes_after_its_charge(self, variant, epsilon, n_partitions, monkeypatch):
        # A charge comes before what it pays for: EDPDCS's "init" before the
        # canopy start's lookup in the store and, cold, its read of the rows;
        # each noisy step's charge before its lookup and, cold, its step
        # pass, which the store's put ends.  A pass reads the rows it gives
        # ``label_points``, on threads in any order: calls in a row add up.
        data = synthetic_blobs(9000, 3, 4, seed=8)
        events = []

        def logged(event, call):
            return lambda *args: events.append(event(*args)) or call(*args)

        def store(data):
            real = core.dataset_store(data)
            return types.SimpleNamespace(
                get=logged(lambda key: ("get", key[0]), real.get),
                put=logged(lambda key, _: ("put", key[0]), real.put),
            )

        charge = logged(lambda _, phase, __: ("charge", phase), engine.BudgetLedger.charge)
        monkeypatch.setattr(engine.BudgetLedger, "charge", charge)
        monkeypatch.setattr(engine, "dataset_store", store)
        labelled = logged(lambda points, *_: ("labelled", len(points)), label_points)
        monkeypatch.setattr(engine, "label_points", labelled)
        canopy = logged(lambda *_: ("read", "canopy"), engine.select_initial_centroids)
        monkeypatch.setattr(engine, "select_initial_centroids", canopy)

        def expected(report, cold):
            def lookup(kind, *reads):
                return [("get", kind), *reads, ("put", kind)] if cold else [("get", kind)]

            def read(w):
                return [("labelled", w.rows_labelled)] * (w.rows_labelled > 0)

            want = [("charge", "init")] * (variant is Variant.EDPDCS)
            if variant.has_canopy_start:
                want += lookup("canopy", ("read", "canopy"))
            else:
                want += lookup("rows")
            for it, w in zip(report.iterations[1:], report.work):
                want += [("charge", f"iteration-{it['iteration']}")] * (epsilon is not None)
                want += lookup("pass", *read(w))
            return want + read(report.work[-1])

        runs = []
        for cold in (True, False):
            events.clear()
            _, _, report = _run_variant(data, 4, variant, epsilon, n_partitions=n_partitions)
            assert [w.from_store for w in report.work[:-1]] == [not cold] * (len(report.work) - 1)
            got = []
            for event in events:
                if got and event[0] == got[-1][0] == "labelled":
                    event = ("labelled", got.pop()[1] + event[1])
                got.append(event)
            assert got == expected(report, cold)
            runs.append(report.comparable_json())
        assert runs[0] == runs[1]

    def test_entries_are_read_only_statistics_within_the_bound(self, small_blobs, monkeypatch):
        compare_variants(small_blobs, 3, [0.5, 1.0], n_seeds=2)
        store = core.dataset_store(small_blobs)
        passes = [(key, entry) for key, entry in store.entries.items() if key[0] == "pass"]
        assert passes
        for key, ((counts, sums, sq_dist), one) in passes:
            assert key[1] == (3, small_blobs.n_dims)
            assert counts.shape == (3,) and sums.shape == key[1]
            assert not counts.flags.writeable and not sums.flags.writeable
            assert isinstance(sq_dist, float)
            assert one == len(key[2]) + counts.nbytes + sums.nbytes + core._ENTRY_OVERHEAD
        assert store.nbytes == sum(size for _, size in store.entries.values()) <= core.STORE_BYTES

        # A bound of three pass entries keeps the three most recently used.
        monkeypatch.setattr(core, "STORE_BYTES", 3 * one)
        data = Dataset(points=small_blobs.points, normalized=True)  # an empty store
        rng = np.random.Generator(np.random.PCG64(1))
        starts = [CentroidSet(centroids=rng.random((3, 3))) for _ in range(5)]
        cfg = EngineConfig(variant=Variant.NONPRIVATE, nonprivate_max_iters=1)
        for start in starts:
            run_baseline(data, 3, None, cfg, initial_centroids=start)
        store = core.dataset_store(data)
        assert len(store.entries) == 3 and store.nbytes == 3 * one
        # Each run's one step pass, against its start, put the only entry;
        # the last three runs' stayed.
        assert list(store.entries) == [engine._pass_key(s.centroids) for s in starts[2:]]

    def test_threads_sharing_one_state(self, monkeypatch, busy_switches):
        # More workers than cores against one small store: every pass must
        # match its cold value and the byte count must stay exact.
        data = synthetic_blobs(500, 2, 3, seed=2)
        rng = np.random.Generator(np.random.PCG64(3))
        centroids = [rng.random((3, 2)) for _ in range(12)]
        want = _passes(data, centroids, final=False)[0]
        _, one = core.dataset_store(data).entries[engine._pass_key(centroids[0])]
        monkeypatch.setattr(core, "STORE_BYTES", 4 * one)
        data = Dataset(points=data.points, normalized=True)  # an empty store
        orders = [[(i * 5 + offset) % len(centroids) for i in range(60)] for offset in range(6)]

        def worker(order):
            return _passes(data, [centroids[j] for j in order], final=False)[0]

        pool = ThreadPoolExecutor(max_workers=6)
        try:
            got = list(pool.map(worker, orders, timeout=60))
        finally:
            pool.shutdown(wait=False)
        assert got == [[want[j] for j in order] for order in orders]
        store = core.dataset_store(data)
        assert store.nbytes == len(store.entries) * one <= 4 * one


class TestRandomRowStart:
    def test_memo_is_read_only_and_start_is_a_fresh_copy(self, small_blobs):
        start = _boundary(small_blobs, master_seed=11).random_rows(3)
        (idx,) = core.dataset_store(small_blobs).get(("rows", 3, 11))
        assert not idx.flags.writeable
        assert start.shape == (3, small_blobs.n_dims) and start.flags.writeable
        assert not np.shares_memory(start, small_blobs.points)
        assert np.array_equal(start, small_blobs.points[idx])

    def test_grid_draws_once_per_master_seed(self, small_blobs, monkeypatch):
        draws = []
        real = engine.derive_stream_seed

        def recorded(master_seed, iteration, cluster_index):
            if (iteration, cluster_index) == (0, 1):
                draws.append(master_seed)
            return real(master_seed, iteration, cluster_index)

        monkeypatch.setattr(engine, "derive_stream_seed", recorded)
        summary = compare_variants(small_blobs, 3, [0.5, 1.0, 1.5, 2.0, 3.0], n_seeds=3)
        # No canopy start fills, so each draw from stream (0, 1) is a
        # random-row start: RF_DPKM and RU_DPKM at five epsilons share each
        # seed's.
        assert not any("filled" in note for r in summary.runs for note in r.notes)
        assert sum(r.variant in ("RF_DPKM", "RU_DPKM") for r in summary.runs) == 2 * 5 * 3
        assert draws == [0, 1, 2]


class TestRunBaselineRf:
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
        # The evaluator labels the rows itself, and gets the run's labels.
        assert np.array_equal(assign_labels(small_blobs, cs).labels, labels.labels)
        assert report.nicv == pytest.approx(nicv(small_blobs, cs, labels), abs=1e-15)


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
    # No pairwise distance: the canopy start's radii are those of rows that
    # coincide.
    "one_row": (_normalized([[3.0, 4.0]]), 1, 1.0, 1),
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

