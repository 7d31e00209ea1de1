"""Tests of the benchmark's own checks, generators and span reduction.

Run from the repository root:

    python3 -m pytest -q benchmark
"""

from __future__ import annotations

import copy
import csv
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import generators  # noqa: E402
import oracles  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from dpkmeans import engine  # noqa: E402
from dpkmeans.engine import EngineConfig, Variant  # noqa: E402
from dpkmeans.evaluation import compare_variants, write_comparison_csv  # noqa: E402
from dpkmeans.ingestion import (  # noqa: E402
    ADULT_COLUMNS,
    BLOOD_COLUMNS,
    load_csv,
    normalize,
    synthetic_blobs,
)
from dpkmeans.planner import PlannerInputs  # noqa: E402


# ---------------------------------------------------------------------------
# Hand-worked inputs
# ---------------------------------------------------------------------------


def test_nicv_oracle_hand_worked():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    centroids = np.array([[0.0, 0.0], [1.0, 1.0]])
    # Nearest squared distances: 0, min(1, 1) = 1, min(4, 2) = 2.
    assert oracles.nicv_oracle(points, centroids) == 1.0


def test_planned_iterations_hand_worked():
    # N=748, d=4, k=2: eps_m = sqrt(200 * 8 * 4 * 25 * 1.050625) / 748 = 410 / 748.
    assert [oracles.planned_iterations(748, 4, 2, e) for e in (0.5, 1, 1.5, 2, 3)] == [
        2, 2, 2, 3, 5,
    ]
    # N=48842, d=6, k=5: eps_m ~ 0.057, so eps=1 hits the cap of 7.
    assert oracles.planned_iterations(48842, 6, 5, 1.0) == 7


def _report(**overrides) -> dict:
    """An EDPDCS-shaped report on 2 rows, d=1, k=1, eps=1, T=2, worked by hand."""
    report = {
        "variant": "EDPDCS", "epsilon": 1.0, "n_rows": 2, "n_dims": 1, "k": 1,
        "iterations_run": 2, "budget_spent": 1.0, "nicv": 0.0625,
        "plan": {"iterations": 2},
        "iterations": [
            {"iteration": 1, "budget_charged": 0.5, "noise_draws": 2, "centroids_after": [[0.4]]},
            {"iteration": 2, "budget_charged": 0.5, "noise_draws": 2, "centroids_after": [[0.75]]},
        ],
    }
    report.update(overrides)
    return report


def test_hand_worked_report_passes_and_perturbations_fail():
    points = np.array([[0.5], [1.0]])  # distances to 0.75: 0.0625 each
    value, problems = oracles.check_run(points, _report())
    assert value == 0.0625 and problems == []
    assert oracles.check_nicv(points, np.array([[0.75]]), _report(nicv=0.0626))[1]
    assert oracles.check_ledger(_report(budget_spent=1.0 + 1e-9))
    bad = _report()
    bad["iterations"][1]["noise_draws"] = 1
    assert oracles.check_draws(bad)
    assert oracles.check_unit_cube(_report(), np.array([[1.0 + 1e-12]]))


def test_ru_ledger_is_the_halving_sum():
    iterations = [
        {"iteration": t, "budget_charged": 2.0 / 2 ** (t + 1), "noise_draws": 2,
         "centroids_after": [[0.5]]}
        for t in (1, 2, 3)
    ]
    ru = _report(variant="RU_DPKM", epsilon=2.0, iterations_run=3,
                 budget_spent=0.5 + 0.25 + 0.125, iterations=iterations)
    assert oracles.check_ledger(ru) == []
    assert oracles.check_plan(ru) == []
    assert oracles.check_ledger(dict(ru, budget_spent=1.0))
    assert oracles.check_plan(dict(ru, iterations_run=2))


def test_nonprivate_ledger_is_zero():
    plain = _report(variant="NONPRIVATE", epsilon=None, budget_spent=0.0)
    for it in plain["iterations"]:
        it["budget_charged"], it["noise_draws"] = None, 0
    assert oracles.check_ledger(plain) == [] and oracles.check_draws(plain) == []
    assert oracles.check_ledger(dict(plain, budget_spent=1e-300))


def test_plan_check_rejects_a_wrong_t():
    report = _report(n_rows=748, n_dims=4, k=2, epsilon=3.0, iterations_run=5,
                     plan={"iterations": 5},
                     iterations=[{"iteration": t, "budget_charged": 0.6, "noise_draws": 10}
                                 for t in range(1, 6)])
    assert oracles.check_plan(report) == []
    assert oracles.check_plan(dict(report, plan={"iterations": 4}))
    short = copy.deepcopy(report)
    short["iterations"].pop()
    assert oracles.check_plan(short)


def test_monotone_check_rejects_a_rising_trace():
    points = np.array([[0.0], [1.0]])
    falling = _report(variant="NONPRIVATE", iterations=[
        {"centroids_after": [[0.0]]}, {"centroids_after": [[0.5]]},
    ])
    assert oracles.check_monotone(points, falling) == []
    rising = copy.deepcopy(falling)
    rising["iterations"].reverse()
    assert oracles.check_monotone(points, rising)


# ---------------------------------------------------------------------------
# Real reports from the program, then perturbed
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def blobs():
    return synthetic_blobs(300, 2, 2, seed=3)


def _run(data, variant: Variant):
    inputs = PlannerInputs(n_rows=data.n_rows, n_dims=data.n_dims, k=2, epsilon_total=1.0)
    config = EngineConfig(variant=variant, master_seed=4)
    if variant is Variant.EDPDCS:
        return engine.run_edpdcs(data, 2, inputs, None, config)
    eps = None if variant is Variant.NONPRIVATE else 1.0
    return engine.run_baseline(
        data, 2, eps, config, planner_inputs=inputs if variant is Variant.RF_DPKM else None
    )


@pytest.mark.parametrize("variant", list(Variant))
def test_program_reports_pass(blobs, variant):
    centroids, _, report = _run(blobs, variant)
    value, problems = oracles.check_run(blobs.points, report.to_dict(), centroids.centroids)
    assert problems == []
    assert value == pytest.approx(report.nicv, rel=1e-12)


@pytest.mark.parametrize("variant", [Variant.EDPDCS, Variant.RF_DPKM, Variant.RU_DPKM])
def test_perturbed_program_reports_fail(blobs, variant):
    centroids, _, report = _run(blobs, variant)
    good = report.to_dict()
    c = np.asarray(centroids.centroids)

    def fails(mutate) -> bool:
        bad = copy.deepcopy(good)
        mutate(bad)
        return bool(oracles.check_run(blobs.points, bad, c)[1])

    assert fails(lambda r: r.update(nicv=r["nicv"] * (1 + 1e-6)))
    assert fails(lambda r: r.update(budget_spent=r["budget_spent"] + 1e-9))
    assert fails(lambda r: r["iterations"][-1].update(noise_draws=r["iterations"][-1]["noise_draws"] + 1))
    assert fails(lambda r: r.update(iterations_run=r["iterations_run"] + 1))
    assert oracles.check_unit_cube(good, c + 1.0)


def test_grid_check(tmp_path, blobs):
    summary = compare_variants(blobs, 2, [1.0], 2, base_seed=5)
    path = tmp_path / "grid.csv"
    write_comparison_csv(summary, str(path))
    as_json = json.loads(summary.to_json())
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert oracles.check_grid(as_json, rows, [1.0], 2) == (0, [])

    bad_rows = copy.deepcopy(rows)
    bad_rows[0]["mean_nicv"] = repr(float(bad_rows[0]["mean_nicv"]) * (1 + 1e-12))
    assert oracles.check_grid(as_json, bad_rows, [1.0], 2)[1]

    dropped = copy.deepcopy(as_json)
    dropped["runs"].pop(0)
    missing, problems = oracles.check_grid(dropped, rows, [1.0], 2)
    assert missing == 1 and problems  # the CSV still counts the dropped run


# ---------------------------------------------------------------------------
# Generators round-trip through the program's ingestion
# ---------------------------------------------------------------------------


def test_blood_csv_round_trips(tmp_path):
    gen = generators.write_blood_csv(str(tmp_path / "blood.csv"), seed=7)
    loaded = load_csv(gen.path, BLOOD_COLUMNS, has_header=True)
    data, _ = normalize(loaded.data, loaded.columns)
    assert loaded.rows_dropped == generators.BLOOD_MISSING_FEATURE_ROWS == gen.rows_dropped
    assert data.n_rows == generators.BLOOD_USABLE_ROWS
    args = (gen.features, gen.rows_dropped, loaded.data.points, loaded.rows_dropped, data.points)
    assert oracles.check_ingestion(*args) == []
    assert oracles.check_ingestion(gen.features, gen.rows_dropped + 1, *args[2:])
    assert oracles.check_ingestion(gen.features[1:], *args[1:])


def test_adult_csv_round_trips(tmp_path):
    gen = generators.write_adult_csv(str(tmp_path / "adult.csv"), seed=7)
    loaded = load_csv(gen.path, ADULT_COLUMNS)
    data, _ = normalize(loaded.data, loaded.columns)
    assert loaded.rows_read == generators.ADULT_ROWS and gen.rows_dropped > 0
    assert loaded.rows_dropped == gen.rows_dropped
    assert oracles.check_ingestion(
        gen.features, gen.rows_dropped, loaded.data.points, loaded.rows_dropped, data.points
    ) == []
    with open(gen.path) as fh:
        lines = fh.read().splitlines()
    assert all(len(line.split(", ")) == 15 for line in lines)
    assert any("?" in line.split(", ")[1] for line in lines)  # ignored column


def test_generate_in_child_matches_writer(tmp_path):
    direct = generators.write_blood_csv(str(tmp_path / "direct.csv"), seed=5)
    child = generators.generate("blood", str(tmp_path / "child.csv"), seed=5)
    assert open(child.path).read() == open(direct.path).read()
    assert np.array_equal(child.features, direct.features)
    assert child.rows_dropped == direct.rows_dropped == generators.BLOOD_MISSING_FEATURE_ROWS


def test_same_seed_same_file(tmp_path):
    a = generators.write_blood_csv(str(tmp_path / "a.csv"), seed=3)
    b = generators.write_blood_csv(str(tmp_path / "b.csv"), seed=3)
    c = generators.write_blood_csv(str(tmp_path / "c.csv"), seed=4)
    read = [open(g.path).read() for g in (a, b, c)]
    assert read[0] == read[1] != read[2]


# ---------------------------------------------------------------------------
# Failed runs are reported, not only counted
# ---------------------------------------------------------------------------


def test_raised_run_is_a_problem(blobs, tmp_path):
    import workloads

    adult = workloads.AdultVariants(seed=1, workdir=str(tmp_path))
    out = adult.check(None, {Variant.EDPDCS: ValueError("boom")})
    assert (out.runs, out.failed) == (1, 1)
    assert out.problems == ["EDPDCS raised ValueError('boom')"]

    wide = workloads.WideThreaded(seed=1, workdir=str(tmp_path))
    out = wide.check(blobs, RuntimeError("worker died"))
    assert (out.runs, out.failed) == (1, 1) and out.problems


# ---------------------------------------------------------------------------
# Rescaling by the reference computation
# ---------------------------------------------------------------------------


def test_reference_scale_hand_worked():
    ref = reference.Reference()
    ref.times_ms = [30.0, 40.0, 70.0]
    # Nominal over the mean of the samples on either side of the span.
    assert ref.scale(0) == reference.NOMINAL_MS / 35.0 == 1.0
    assert ref.scale(1) == reference.NOMINAL_MS / 55.0
    assert ref.run() == 3 and ref.times_ms[3] > 0


# ---------------------------------------------------------------------------
# Span reduction
# ---------------------------------------------------------------------------


def test_traced_run_counts_data_passes(blobs):
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.unit = "op0"
        _, _, report = _run(blobs, Variant.EDPDCS)
        tracer.unit = None
    finally:
        tracer.uninstall()
    assert engine.run_edpdcs.__name__ == "run_edpdcs" and not hasattr(engine.run_edpdcs, "__wrapped__")
    metrics = spans.layer_metrics(tracer.spans, ["op0"])
    assert set(metrics) == set(spans.LAYER_METRICS)
    t = report.plan["iterations"]
    # One block of 300 rows: T-1 map passes, T trace NICVs, 1 final assignment.
    assert metrics["engine.data_passes"] == 2 * t
    assert metrics["core.rows_labelled"] == 2 * t * 300
    assert metrics["core.label_temp_mb"] == 300 * 2 * 2 * 8 / 2**20
    assert 0 < metrics["engine.self_ms"] and 0 < metrics["engine.timings_coverage"] < 1
