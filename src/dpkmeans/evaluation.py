"""Clustering quality (NICV) and multi-variant comparisons.

NICV -- normalized intra-cluster variance -- is the mean squared distance
of every point to its assigned centroid.  Lower is better; it is the one
number used throughout to compare private runs against each other and
against the exact baseline.

:func:`compare_variants` runs the engine over an epsilon grid and
summarizes each run's :class:`~dpkmeans.engine.RunReport`.  The engine
builds the reports, and ``evaluation.RunReport`` is the same class imported
from it: this module depends on the engine, never the other way round.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

from dpkmeans.canopy import CanopyParams
from dpkmeans.core import Assignment, CentroidSet, Dataset, InvalidInputError, as_int
from dpkmeans.engine import EngineConfig, RunReport, Variant, run_baseline, run_edpdcs
from dpkmeans.planner import PlannerInputs

#: Layout of ``comparison.json``.  Version 2 writes each run on one line;
#: version 1 indented the whole file.  Every run's content is the same.
COMPARISON_FORMAT_VERSION = 2


def nicv(data: Dataset, centroid_set: CentroidSet, assignment: Assignment) -> float:
    """Normalized intra-cluster variance of an assignment.

    Mean, over all N rows, of the squared Euclidean distance from each row
    to the centroid its label points at.
    """
    if assignment.n_rows != data.n_rows:
        raise InvalidInputError(
            f"assignment covers {assignment.n_rows} rows, data has {data.n_rows}"
        )
    labels = assignment.labels
    if labels.size and labels.max() >= centroid_set.k:
        raise InvalidInputError(
            f"label {labels.max()} out of range for k={centroid_set.k}"
        )
    diffs = data.points - centroid_set.centroids[labels]
    return float((diffs * diffs).sum() / data.n_rows)


@dataclass(frozen=True)
class ComparisonCell:
    """Mean and spread of NICV for one (variant, epsilon) pair."""

    variant: str
    epsilon: float | None
    n_seeds: int
    mean_nicv: float
    sd_nicv: float
    mean_iterations: float


@dataclass
class ComparisonSummary:
    """Grid of comparison cells plus the per-run reports behind them."""

    cells: list[ComparisonCell]
    runs: list[RunReport] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def cell(self, variant: str, epsilon: float | None) -> ComparisonCell:
        for cell in self.cells:
            if cell.variant == variant and cell.epsilon == epsilon:
                return cell
        raise KeyError(f"no cell for variant={variant!r} epsilon={epsilon!r}")

    def to_json(self) -> str:
        """The grid, its config and every run, without timings.

        One JSON object with sorted keys.  ``cells``, ``config`` and
        ``notes`` are indented; each run is one compact, key-sorted line.
        ``indent`` would send every run through ``json``'s pure-Python
        encoder, which costs more than the runs of a small grid themselves.
        """
        head = json.dumps(
            {
                "cells": [asdict(c) for c in self.cells],
                "config": self.config,
                "format_version": COMPARISON_FORMAT_VERSION,
                "notes": self.notes,
            },
            indent=2,
            sort_keys=True,
        )
        runs = ",\n    ".join(
            json.dumps(r.to_dict(include_timings=False), sort_keys=True) for r in self.runs
        )
        # "runs" sorts after every head key: reopen the head's closing brace.
        return head[:-2] + ',\n  "runs": ' + (f"[\n    {runs}\n  ]" if runs else "[]") + "\n}"


def write_comparison_csv(summary: ComparisonSummary, path: str) -> None:
    """One CSV row per comparison cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["variant", "epsilon", "n_seeds", "mean_nicv", "sd_nicv", "mean_iterations"]
        )
        for cell in summary.cells:
            writer.writerow(
                [
                    cell.variant,
                    "" if cell.epsilon is None else repr(cell.epsilon),
                    cell.n_seeds,
                    repr(cell.mean_nicv),
                    repr(cell.sd_nicv),
                    repr(cell.mean_iterations),
                ]
            )


def _summarize(variant: str, epsilon: float | None, reports: list[RunReport]) -> ComparisonCell:
    values = [r.nicv for r in reports]
    return ComparisonCell(
        variant=variant,
        epsilon=epsilon,
        n_seeds=len(values),
        mean_nicv=statistics.fmean(values),
        sd_nicv=statistics.pstdev(values) if len(values) > 1 else 0.0,
        mean_iterations=statistics.fmean(r.iterations_run for r in reports),
    )


def compare_variants(
    data: Dataset,
    k: int,
    epsilons: Sequence[float],
    n_seeds: int,
    *,
    base_seed: int = 0,
    planner_inputs: PlannerInputs | None = None,
    canopy_params: CanopyParams | None = None,
    n_partitions: int = 1,
    threads: int | None = None,
) -> ComparisonSummary:
    """Run every variant over an epsilon grid with paired seeds.

    Each (variant, epsilon) cell aggregates ``n_seeds`` runs at master
    seeds ``base_seed .. base_seed + n_seeds - 1``; the same seed list is
    used for every cell so the comparison is paired.  A variant that spends
    no epsilon (NONPRIVATE) has one cell, with no epsilon, of one run at
    ``base_seed``: the exact floor reference.

    Each run reads only the inputs its variant takes, as :class:`Variant`'s
    predicates say, and gets them as ``dpkmeans run`` would.
    ``planner_inputs`` holds the grid's planner settings, with the first
    epsilon as ``epsilon_total``, and each cell runs a copy at its own
    epsilon; by default the planner's defaults at the data's shape.  The
    epsilons must not repeat, and each must be positive and finite: a bad
    one is refused before any run.  The first run that raises stops the
    sweep with its error.
    """
    n_seeds, base_seed = as_int(n_seeds, "n_seeds"), as_int(base_seed, "base_seed")
    if n_seeds < 1:
        raise InvalidInputError(f"n_seeds must be >= 1, got {n_seeds}")
    if not epsilons:
        raise InvalidInputError("need at least one epsilon")
    if len(set(epsilons)) != len(epsilons):
        raise InvalidInputError(f"epsilons must not repeat, got {list(epsilons)}")
    template = planner_inputs or PlannerInputs(
        n_rows=data.n_rows, n_dims=data.n_dims, k=k, epsilon_total=epsilons[0]
    )
    if template.epsilon_total != epsilons[0]:
        raise InvalidInputError(
            "planner_inputs.epsilon_total must be the grid's first epsilon"
        )
    # Built before any run, so a bad epsilon is refused before the sweep.
    cell_inputs = {eps: replace(template, epsilon_total=eps) for eps in epsilons}

    seeds = [base_seed + i for i in range(n_seeds)]
    cells: list[ComparisonCell] = []
    all_runs: list[RunReport] = []
    for variant in Variant:
        private = variant.spends_epsilon
        for eps in epsilons if private else [None]:
            inputs = cell_inputs[eps] if variant.takes_planner_inputs else None
            canopy = canopy_params if variant.has_canopy_start else None
            reports = []
            for seed in seeds if private else seeds[:1]:
                config = EngineConfig(
                    variant=variant,
                    n_partitions=n_partitions,
                    master_seed=seed,
                    threads=threads,
                )
                if variant is Variant.EDPDCS:
                    _, _, report = run_edpdcs(data, k, inputs, canopy, config)
                else:
                    _, _, report = run_baseline(
                        data, k, eps, config, planner_inputs=inputs, canopy_params=canopy
                    )
                reports.append(report)
            all_runs.extend(reports)
            cells.append(_summarize(variant.value, eps, reports))

    config = asdict(template)
    del config["epsilon_total"]
    config.update(
        epsilons=list(epsilons), seeds=seeds, source_label=data.source_label
    )
    return ComparisonSummary(cells=cells, runs=all_runs, notes=[], config=config)
