import csv
import dataclasses
import json

import numpy as np
import pytest

from dpkmeans import core
from dpkmeans.core import Assignment, CentroidSet, Dataset, InvalidInputError
from dpkmeans.engine import EngineConfig, Variant, run_baseline, run_edpdcs
from dpkmeans.evaluation import (
    ComparisonSummary,
    compare_variants,
    nicv,
    write_comparison_csv,
)
from dpkmeans.planner import PlannerInputs

CORNERS = Dataset(
    points=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
    normalized=True,
)


def _nicv_oracle(points, centroids, labels):
    """Double-loop reference: mean squared distance to the assigned centroid."""
    total = 0.0
    for i in range(points.shape[0]):
        c = centroids[labels[i]]
        for d in range(points.shape[1]):
            diff = points[i, d] - c[d]
            total += diff * diff
    return total / points.shape[0]


class TestNicv:
    def test_zero_when_points_sit_on_centroids(self):
        data = Dataset(points=np.array([[0.2, 0.2], [0.8, 0.8]]), normalized=True)
        cs = CentroidSet(centroids=np.array([[0.2, 0.2], [0.8, 0.8]]))
        labels = Assignment(labels=np.array([0, 1]))
        assert nicv(data, cs, labels) == 0.0

    def test_four_corners_two_centroids(self):
        cs = CentroidSet(centroids=np.array([[0.0, 0.5], [1.0, 0.5]]))
        labels = Assignment(labels=np.array([0, 0, 1, 1]))
        assert nicv(CORNERS, cs, labels) == pytest.approx(0.25)

    def test_single_cluster_equals_total_variance(self):
        rng = np.random.Generator(np.random.PCG64(0))
        pts = rng.random((100, 3))
        data = Dataset(points=pts, normalized=True)
        cs = CentroidSet(centroids=pts.mean(axis=0, keepdims=True))
        labels = Assignment(labels=np.zeros(100, dtype=np.int64))
        assert nicv(data, cs, labels) == pytest.approx(
            pts.var(axis=0).sum(), rel=1e-12
        )

    def test_matches_double_loop_oracle(self):
        rng = np.random.Generator(np.random.PCG64(1))
        pts = rng.random((60, 4))
        cents = rng.random((3, 4))
        d2 = ((pts[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        lab = d2.argmin(axis=1)
        got = nicv(
            Dataset(points=pts, normalized=True),
            CentroidSet(centroids=cents),
            Assignment(labels=lab),
        )
        assert got == pytest.approx(_nicv_oracle(pts, cents, lab), abs=1e-12)

    def test_label_out_of_range_rejected(self):
        cs = CentroidSet(centroids=np.array([[0.5, 0.5]]))
        labels = Assignment(labels=np.array([0, 1, 0, 0]))
        with pytest.raises(InvalidInputError):
            nicv(CORNERS, cs, labels)

    def test_length_mismatch_rejected(self):
        cs = CentroidSet(centroids=np.array([[0.5, 0.5]]))
        labels = Assignment(labels=np.zeros(3, dtype=np.int64))
        with pytest.raises(InvalidInputError):
            nicv(CORNERS, cs, labels)


class TestRunReport:
    def test_round_trips_through_json(self, small_blobs):
        cfg = EngineConfig(variant=Variant.NONPRIVATE)
        _, _, report = run_baseline(small_blobs, 3, None, cfg)
        blob = json.loads(report.to_json())
        assert blob["variant"] == "NONPRIVATE"
        assert blob["n_rows"] == 400
        assert blob["nicv"] == pytest.approx(report.nicv)

    def test_timings_can_be_excluded(self, small_blobs):
        cfg = EngineConfig(variant=Variant.NONPRIVATE)
        _, _, report = run_baseline(small_blobs, 3, None, cfg)
        assert "timings_ms" in report.to_dict()
        assert "timings_ms" not in report.to_dict(include_timings=False)
        # A written report never carries wall clock.
        assert "timings_ms" not in json.loads(report.to_json())

    def test_comparable_json_ignores_partitioning_and_timing(self, small_blobs):
        inputs = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        reports = []
        for parts in (1, 4):
            core._STORES.pop(small_blobs, None)  # every partition count reads the data
            cfg = EngineConfig(
                variant=Variant.EDPDCS, n_partitions=parts, master_seed=5
            )
            _, _, rep = run_edpdcs(small_blobs, 3, inputs, config=cfg)
            reports.append(rep)
        assert reports[0].comparable_json() == reports[1].comparable_json()
        # but the raw dicts do differ
        assert reports[0].to_dict()["n_partitions"] != reports[1].to_dict()["n_partitions"]

    def test_different_seeds_are_not_comparable_equal(self, small_blobs):
        inputs = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
        a = run_edpdcs(
            small_blobs, 3, inputs, config=EngineConfig(variant=Variant.EDPDCS, master_seed=0)
        )[2]
        b = run_edpdcs(
            small_blobs, 3, inputs, config=EngineConfig(variant=Variant.EDPDCS, master_seed=1)
        )[2]
        assert a.comparable_json() != b.comparable_json()

    @pytest.mark.parametrize("variant", list(Variant))
    def test_json_equals_that_of_deep_copied_fields(self, small_blobs, variant):
        cfg = EngineConfig(variant=variant, n_partitions=2, master_seed=4)
        if variant is Variant.EDPDCS:
            inputs = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=1.0)
            report = run_edpdcs(small_blobs, 3, inputs, config=cfg)[2]
        else:
            eps = None if variant is Variant.NONPRIVATE else 1.0
            report = run_baseline(small_blobs, 3, eps, cfg)[2]
        deep = dataclasses.asdict(report)
        comparable = {
            k: v for k, v in deep.items() if k not in ("timings_ms", "n_partitions")
        }
        comparable["config"] = {
            k: v for k, v in deep["config"].items() if k != "threads"
        }
        assert report.comparable_json() == json.dumps(
            comparable, indent=2, sort_keys=True
        )
        # Serializing left the report's own fields as they were.
        written = {k: v for k, v in deep.items() if k != "timings_ms"}
        assert report.to_json() == json.dumps(written, indent=2, sort_keys=True)


class TestCompareVariants:
    @pytest.mark.parametrize("field", ["n_seeds", "base_seed"])
    def test_seed_counts_must_be_integers(self, small_blobs, field):
        # n_seeds=2.5 used to raise TypeError, and base_seed=True ran as 1.
        kwargs = dict(n_seeds=1, base_seed=1)
        for value in [2.5, 2.0, True, False, "2"]:
            with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
                compare_variants(small_blobs, 3, [1.0], **{**kwargs, field: value})
        want = compare_variants(small_blobs, 3, [1.0], **kwargs).to_json()
        got = compare_variants(small_blobs, 3, [1.0], **{**kwargs, field: np.int64(1)})
        assert got.to_json() == want

    def test_full_grid_shapes(self, small_blobs):
        summary = compare_variants(small_blobs, 3, [0.5, 1.0], 2)
        dp_cells = [c for c in summary.cells if c.variant != "NONPRIVATE"]
        np_cells = [c for c in summary.cells if c.variant == "NONPRIVATE"]
        assert len(dp_cells) == 3 * 2  # three DP variants x two epsilons
        assert len(np_cells) == 1
        assert np_cells[0].epsilon is None
        assert np_cells[0].n_seeds == 1
        for cell in dp_cells:
            assert cell.n_seeds == 2
            assert cell.mean_nicv > 0.0

    def test_cell_lookup(self, small_blobs):
        summary = compare_variants(small_blobs, 3, [1.0], 1)
        cell = summary.cell("EDPDCS", 1.0)
        assert cell.variant == "EDPDCS"
        with pytest.raises(KeyError):
            summary.cell("EDPDCS", 9.9)

    def test_mean_matches_individual_runs(self, small_blobs):
        summary = compare_variants(small_blobs, 3, [1.0], 3)
        runs = [
            r for r in summary.runs if r.variant == "EDPDCS" and r.epsilon == 1.0
        ]
        assert len(runs) == 3
        cell = summary.cell("EDPDCS", 1.0)
        assert cell.mean_nicv == pytest.approx(
            sum(r.nicv for r in runs) / 3, rel=1e-12
        )

    def test_dp_runs_never_beat_exact_floor(self, small_blobs):
        summary = compare_variants(small_blobs, 3, [1.0], 2)
        floor = summary.cell("NONPRIVATE", None).mean_nicv
        for run in summary.runs:
            if run.variant != "NONPRIVATE":
                assert run.nicv >= floor - 1e-9

    def test_failed_run_raises(self, small_blobs, monkeypatch):
        import dpkmeans.evaluation as evaluation_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(evaluation_mod, "run_baseline", boom)
        with pytest.raises(RuntimeError, match="synthetic failure"):
            compare_variants(small_blobs, 3, [1.0], 1)

    def test_validation(self, small_blobs):
        with pytest.raises(InvalidInputError):
            compare_variants(small_blobs, 3, [], 1)
        with pytest.raises(InvalidInputError):
            compare_variants(small_blobs, 3, [1.0], 0)
        # Two cells would share the key summary.cell() looks them up by.
        with pytest.raises(InvalidInputError, match="must not repeat"):
            compare_variants(small_blobs, 3, [1.0, 2.0, 1], 1)
        template = PlannerInputs(n_rows=400, n_dims=3, k=3, epsilon_total=2.0)
        with pytest.raises(InvalidInputError, match="first epsilon"):
            compare_variants(small_blobs, 3, [0.5, 2.0], 1, planner_inputs=template)

    def test_planner_template_runs_at_each_epsilon(self, small_blobs):
        template = PlannerInputs(
            n_rows=400, n_dims=3, k=3, epsilon_total=0.5, rho=0.4, t_cap=3
        )
        summary = compare_variants(
            small_blobs, 3, [0.5, 2.0], 1, planner_inputs=template
        )
        planned = [r for r in summary.runs if r.variant in ("EDPDCS", "RF_DPKM")]
        assert len(planned) == 4
        for run in planned:
            assert run.config["planner_inputs"] == dataclasses.asdict(
                dataclasses.replace(template, epsilon_total=run.epsilon)
            )
        for run in summary.runs:
            if run.variant not in ("EDPDCS", "RF_DPKM"):
                assert "planner_inputs" not in run.config
        assert (summary.config["rho"], summary.config["t_cap"]) == (0.4, 3)
        assert "epsilon_total" not in summary.config

    def test_summary_json(self, small_blobs):
        summary = compare_variants(small_blobs, 3, [1.0], 1)
        blob = json.loads(summary.to_json())
        assert len(blob["cells"]) == 4 and blob["notes"] == []
        assert len(blob["runs"]) == len(summary.runs) == 4
        for run in blob["runs"]:
            assert "timings_ms" not in run


class TestComparisonCsv:
    def test_round_trip(self, small_blobs, tmp_path):
        summary = compare_variants(small_blobs, 3, [0.5], 2)
        path = tmp_path / "cells.csv"
        write_comparison_csv(summary, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(summary.cells)
        by_variant = {r["variant"]: r for r in rows}
        cell = summary.cell("EDPDCS", 0.5)
        assert float(by_variant["EDPDCS"]["mean_nicv"]) == cell.mean_nicv
        assert by_variant["NONPRIVATE"]["epsilon"] == ""


def _indented_form(summary):
    """``comparison.json`` as format version 1 wrote it: all indented."""
    out = {
        "config": summary.config,
        "cells": [dataclasses.asdict(c) for c in summary.cells],
        "notes": summary.notes,
        "runs": [r.to_dict(include_timings=False) for r in summary.runs],
    }
    return json.dumps(out, indent=2, sort_keys=True)


class TestComparisonJson:
    @pytest.fixture(scope="class")
    def summary(self, small_blobs):
        return compare_variants(small_blobs, 3, [0.5, 1.0], 2)

    def test_same_content_as_indented_form(self, summary):
        assert {r.variant for r in summary.runs} == {v.value for v in Variant}
        blob = json.loads(summary.to_json())
        assert list(blob) == ["cells", "config", "format_version", "notes", "runs"]
        assert blob.pop("format_version") == 2
        assert blob == json.loads(_indented_form(summary))

    def test_each_run_on_one_line(self, summary):
        lines = summary.to_json().splitlines()
        first = lines.index('  "runs": [') + 1
        assert lines[first + len(summary.runs) :] == ["  ]", "}"]
        for line, run in zip(lines[first:], summary.runs):
            want = json.dumps(run.to_dict(include_timings=False), sort_keys=True)
            assert line.strip().rstrip(",") == want

    def test_no_runs(self):
        blob = json.loads(ComparisonSummary(cells=[]).to_json())
        assert blob == {
            "cells": [], "config": {}, "format_version": 2, "notes": [], "runs": []
        }

    def test_runs_skip_the_pure_python_encoder(self, small_blobs, monkeypatch):
        # json falls back to _make_iterencode, its pure-Python encoder, for
        # every indented dumps; the runs must not, however many there are.
        calls = []
        real = json.encoder._make_iterencode

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(json.encoder, "_make_iterencode", counting)
        for n_seeds in (1, 3):
            summary = compare_variants(small_blobs, 3, [0.5, 1.0], n_seeds)
            calls.clear()
            summary.to_json()
            assert len(calls) <= 1
