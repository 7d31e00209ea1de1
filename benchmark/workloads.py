"""The three benchmark workloads and the checks made after each operation.

Each workload turns ``--seed`` into its inputs, sets up through the
program's ``ingestion`` module, and defines one operation.  Every operation
of a run is the same call on the same input, so its outputs must repeat
exactly; each one is checked by :mod:`oracles` after it is timed.

``attempted`` and ``failed`` count clustering runs: 451 per ``paper_grid``
operation, 4 per ``adult_variants`` operation (and 24 more EDPDCS runs in
its warm-up) and 1 per ``wide_threaded`` operation.  A run fails when it
raises, is missing from the grid, or fails a check; each failure is also
recorded as a problem, which makes the result incorrect and is printed on
stderr.

``setup_batch`` is how many set-ups one ``setup_s`` sample times in a row,
chosen so that a sample covers at least about 100 ms of work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import generators
import oracles
from dpkmeans import cli, engine, ingestion
from dpkmeans.engine import EngineConfig, Variant
from dpkmeans.planner import PlannerInputs


@dataclass
class Outcome:
    """What the checks made of one operation."""

    runs: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    edpdcs_nicv: list[float] = field(default_factory=list)


class _CsvWorkload:
    """A workload whose input is a generated CSV read through ``ingestion``."""

    input: generators.GeneratedCsv

    def check_setup(self, state) -> list[str]:
        loaded, data = state
        return oracles.check_ingestion(
            self.input.features, self.input.rows_dropped,
            loaded.data.points, loaded.rows_dropped, data.points,
        )

    def warm_up(self, state) -> Outcome:
        return self.check(state, self.operation(state))


class PaperGrid(_CsvWorkload):
    """``dpkmeans compare`` on a blood-layout CSV: the paper's experiment.

    ε ∈ {0.5, 1, 1.5, 2, 3} x 30 seeds x {EDPDCS, RF_DPKM, RU_DPKM} plus the
    NONPRIVATE floor, 451 runs per operation on 748 rows, k=2.  The data is
    smaller than one 4096-row map block, so per-run fixed costs (canopy,
    noise streams, reports, JSON) dominate and the map kernel barely shows.
    """

    name = "paper_grid"
    setup_batch = 100
    epsilons = [0.5, 1.0, 1.5, 2.0, 3.0]
    n_seeds = 30
    runs_per_op = 3 * 5 * 30 + 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.input = generators.generate("blood", os.path.join(workdir, "blood.csv"), seed)
        self.points = oracles.min_max_normalise(self.input.features)
        self.out_csv = os.path.join(workdir, "comparison.csv")
        self.out_json = os.path.join(workdir, "comparison.json")
        self._first_json: str | None = None

    def setup(self):
        loaded = ingestion.load_csv(self.input.path, ingestion.BLOOD_COLUMNS, has_header=True)
        data, _ = ingestion.normalize(loaded.data, loaded.columns)
        return loaded, data

    def operation(self, state) -> int:
        argv = [
            "compare", "--dataset", self.input.path, "--preset", "blood", "--k", "2",
            "--eps", ",".join(repr(e) for e in self.epsilons),
            "--seeds", str(self.n_seeds), "--seed", str(self.seed * self.n_seeds),
            "--out-csv", self.out_csv, "--out-json", self.out_json,
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, state, exit_code: int) -> Outcome:
        out = Outcome(runs=self.runs_per_op)
        if exit_code != 0:
            out.failed = out.runs
            out.problems.append(f"dpkmeans compare exited with status {exit_code}")
            return out
        with open(self.out_json) as fh:
            text = fh.read()
        with open(self.out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads(text)
        out.failed, grid_problems = oracles.check_grid(summary, rows, self.epsilons, self.n_seeds)
        if out.failed:
            out.problems.append(
                f"{out.failed} runs missing from comparison.json; notes: {summary['notes']}"
            )
        if summary["config"]["n_rows"] != self.points.shape[0]:
            grid_problems.append(f"compare saw {summary['config']['n_rows']} rows")
        if self._first_json is None:
            self._first_json = text
        elif text != self._first_json:
            grid_problems.append("comparison.json differs from the first operation's")
        for report in summary["runs"]:
            value, problems = oracles.check_run(self.points, report)
            out.failed += bool(problems)
            out.problems += problems
            if report["variant"] == "EDPDCS":
                out.edpdcs_nicv.append(value)
        if grid_problems:
            out.problems += grid_problems
            out.failed = out.runs
        return out


class AdultVariants(_CsvWorkload):
    """All four variants once, serially, on an Adult-layout CSV (k=5, ε=1).

    12 map blocks and T=7: full-data passes (map passes plus the per-iteration
    trace NICV and the final assignment) dominate.  NONPRIVATE is exact Lloyd
    capped at :attr:`nonprivate_iters` iterations: run to convergence it took
    13 to 59 iterations depending on the seed, which would make the
    operation's work, not the program's speed, set ``op_ms``.
    """

    name = "adult_variants"
    setup_batch = 1
    k = 5
    epsilon = 1.0
    nonprivate_iters = 10
    nicv_seeds = 24

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.input = generators.generate("adult", os.path.join(workdir, "adult.csv"), seed)
        self.points = oracles.min_max_normalise(self.input.features)
        self._first: list[str] | None = None

    def setup(self):
        loaded = ingestion.load_csv(self.input.path, ingestion.ADULT_COLUMNS)
        data, _ = ingestion.normalize(loaded.data, loaded.columns)
        return loaded, data

    def _runs(self, data, master_seed: int, variants) -> dict:
        """Run ``variants`` serially at ``master_seed``; an exception stands for a result."""
        inputs = PlannerInputs(
            n_rows=data.n_rows, n_dims=data.n_dims, k=self.k, epsilon_total=self.epsilon
        )

        def config(variant: Variant) -> EngineConfig:
            return EngineConfig(
                variant=variant, master_seed=master_seed,
                nonprivate_max_iters=self.nonprivate_iters,
            )

        calls = {
            Variant.EDPDCS: lambda: engine.run_edpdcs(
                data, self.k, inputs, None, config(Variant.EDPDCS)
            ),
            Variant.RF_DPKM: lambda: engine.run_baseline(
                data, self.k, self.epsilon, config(Variant.RF_DPKM), planner_inputs=inputs
            ),
            Variant.RU_DPKM: lambda: engine.run_baseline(
                data, self.k, self.epsilon, config(Variant.RU_DPKM)
            ),
            Variant.NONPRIVATE: lambda: engine.run_baseline(
                data, self.k, None, config(Variant.NONPRIVATE)
            ),
        }
        results = {}
        for variant in variants:
            try:
                results[variant] = calls[variant]()
            except Exception as exc:  # counted as a failed run by check()
                results[variant] = exc
        return results

    def operation(self, state) -> dict:
        return self._runs(state[1], self.seed, list(Variant))

    def warm_up(self, state) -> Outcome:
        """The operation, then EDPDCS at :attr:`nicv_seeds` more master seeds.

        One EDPDCS run's NICV ranged from 0.035 to 0.048 over master seeds,
        so the workload's ``nicv`` is the mean over these runs instead.  The
        master seeds ``seed * nicv_seeds + i`` are disjoint between seeds.
        """
        out = self.check(state, self.operation(state))
        out.edpdcs_nicv = []
        for i in range(self.nicv_seeds):
            result = self._runs(state[1], self.seed * self.nicv_seeds + i, [Variant.EDPDCS])
            run, _ = self._check_runs(result)
            out.runs += run.runs
            out.failed += run.failed
            out.problems += run.problems
            out.edpdcs_nicv += run.edpdcs_nicv
        return out

    def _check_runs(self, results: dict) -> tuple[Outcome, list[str]]:
        """Per-run checks; returns the outcome and each report's ``comparable_json()``."""
        out = Outcome(runs=len(results))
        comparable = []
        for variant, result in results.items():
            if isinstance(result, Exception):
                out.failed += 1
                out.problems.append(f"{variant.value} raised {result!r}")
                continue
            problems, value, report = _check_result(self.points, result)
            out.failed += bool(problems)
            out.problems += problems
            comparable.append(report.comparable_json())
            if report.variant == "EDPDCS":
                out.edpdcs_nicv.append(value)
        return out, comparable

    def check(self, state, results: dict) -> Outcome:
        out, comparable = self._check_runs(results)
        if self._first is None:
            self._first = comparable
        elif comparable != self._first:
            out.problems.append("reports differ from the first operation's")
        return out


class WideThreaded:
    """One EDPDCS run on 200k x 16 blobs, k=20, ε=3 (T=6), on two threads.

    The only workload that uses the thread pool.  At this k·d the (n, k, d)
    temporary of ``core.label_points`` dominates time and peak memory.  The
    warm-up is the same run with ``n_partitions=1``; every timed run must
    give the same ``comparable_json()`` (partition invariance).
    """

    name = "wide_threaded"
    setup_batch = 2
    shape = (200_000, 16, 20)
    k = 20
    epsilon = 3.0
    partitions = 2
    runs_per_op = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self._reference: str | None = None

    def setup(self):
        return ingestion.synthetic_blobs(*self.shape, seed=self.seed)

    def check_setup(self, data) -> list[str]:
        n, d, _ = self.shape
        if data.points.shape != (n, d) or data.points.min() < 0 or data.points.max() > 1:
            return [f"synthetic_blobs gave {data.points.shape} rows outside the unit cube"]
        return []

    def _run(self, data, partitions: int):
        inputs = PlannerInputs(
            n_rows=data.n_rows, n_dims=data.n_dims, k=self.k, epsilon_total=self.epsilon
        )
        config = EngineConfig(
            variant=Variant.EDPDCS, master_seed=self.seed,
            n_partitions=partitions, threads=partitions,
        )
        try:
            return engine.run_edpdcs(data, self.k, inputs, None, config)
        except Exception as exc:  # counted as a failed run by check()
            return exc

    def operation(self, data):
        return self._run(data, self.partitions)

    def warm_up(self, data) -> Outcome:
        return self.check(data, self._run(data, 1))

    def check(self, data, result) -> Outcome:
        out = Outcome(runs=self.runs_per_op)
        if isinstance(result, Exception):
            out.failed = 1
            out.problems.append(f"EDPDCS raised {result!r}")
            return out
        out.problems, value, report = _check_result(np.asarray(data.points), result)
        out.edpdcs_nicv.append(value)
        comparable = report.comparable_json()
        if self._reference is None:
            self._reference = comparable
        elif comparable != self._reference:
            out.problems.append("report differs from the n_partitions=1 run")
        out.failed = int(bool(out.problems))
        return out


def _check_result(points: np.ndarray, result) -> tuple[list[str], float, object]:
    """Per-run checks on a (centroids, assignment, report) triple.

    Returns (problems, recomputed NICV, report).
    """
    centroids, assignment, report = result
    as_dict = report.to_dict(include_timings=False)
    value, problems = oracles.check_run(points, as_dict, np.asarray(centroids.centroids))
    if not np.array_equal(centroids.centroids, oracles.final_centroids(as_dict)):
        problems.append(f"{report.variant} returned centroids differ from the report's last")
    if assignment.labels.shape != (points.shape[0],):
        problems.append(f"{report.variant} assignment covers {assignment.labels.shape} rows")
    return problems, value, report


WORKLOADS = {w.name: w for w in (PaperGrid, AdultVariants, WideThreaded)}
