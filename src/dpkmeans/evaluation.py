"""Run reports, clustering quality (NICV), and multi-variant comparisons.

NICV -- normalized intra-cluster variance -- is the mean squared distance
of every point to its assigned centroid.  Lower is better; it is the one
number used throughout to compare private runs against each other and
against the exact baseline.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

from dpkmeans.core import Assignment, CentroidSet, Dataset, InvalidInputError


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


@dataclass
class RunReport:
    """Everything needed to understand and replay one clustering run.

    ``timings_ms`` holds wall-clock measurements only; it is excluded from
    :meth:`to_json` and :meth:`comparable_json` because timing is the one
    part of a run that is not reproducible.  ``n_partitions`` and the
    resolved thread count are excluded from :meth:`comparable_json` too:
    they affect scheduling, never results.
    """

    variant: str
    epsilon: float | None
    master_seed: int
    n_rows: int
    n_dims: int
    k: int
    n_partitions: int
    iterations_run: int
    nicv: float
    budget_spent: float
    budget_remaining: float
    plan: dict | None
    iterations: list[dict]
    config: dict
    notes: list[str]
    timings_ms: dict

    def to_dict(self, include_timings: bool = True) -> dict:
        """The report's fields by name.

        The dict is new but shares the report's lists and dicts, which hold
        only JSON values, so callers copy what they mean to change.
        """
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if not include_timings:
            out.pop("timings_ms", None)
        return out

    def to_json(self) -> str:
        """The report as written to a file: every field but the timings."""
        return json.dumps(
            self.to_dict(include_timings=False), indent=2, sort_keys=True
        )

    def comparable_json(self) -> str:
        """Canonical JSON of the result-bearing fields only.

        Two runs that differ only in partitioning or wall clock serialize to
        byte-identical strings here.
        """
        out = self.to_dict(include_timings=False)
        out.pop("n_partitions")
        config = dict(self.config)
        config.pop("threads")
        out["config"] = config
        return json.dumps(out, indent=2, sort_keys=True)


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
        """The grid, its config and every run, without timings."""
        out = {
            "config": self.config,
            "cells": [asdict(c) for c in self.cells],
            "notes": self.notes,
            "runs": [r.to_dict(include_timings=False) for r in self.runs],
        }
        return json.dumps(out, indent=2, sort_keys=True)


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
    rho: float | None = None,
    mse_threshold: float | None = None,
    t_cap: int | None = None,
    epsilon_m_override: float | None = None,
    canopy_params=None,
    n_partitions: int = 1,
    threads: int | None = None,
    variants: Sequence[str] | None = None,
) -> ComparisonSummary:
    """Run every variant over an epsilon grid with paired seeds.

    Each (variant, epsilon) cell aggregates ``n_seeds`` runs at master
    seeds ``base_seed .. base_seed + n_seeds - 1``; the same seed list is
    used for every cell so the comparison is paired.  NONPRIVATE ignores
    epsilon and runs once (at ``base_seed``) as the exact floor reference.
    The first run that raises stops the sweep with its error.
    """
    from dpkmeans.canopy import CanopyParams
    from dpkmeans.engine import EngineConfig, Variant, run_baseline, run_edpdcs
    from dpkmeans.planner import (
        DEFAULT_MSE_THRESHOLD,
        DEFAULT_RHO,
        DEFAULT_T_CAP,
        PlannerInputs,
    )

    if n_seeds < 1:
        raise InvalidInputError(f"n_seeds must be >= 1, got {n_seeds}")
    if not epsilons:
        raise InvalidInputError("need at least one epsilon")
    rho = DEFAULT_RHO if rho is None else rho
    mse_threshold = DEFAULT_MSE_THRESHOLD if mse_threshold is None else mse_threshold
    t_cap = DEFAULT_T_CAP if t_cap is None else t_cap
    canopy_params = canopy_params or CanopyParams()
    wanted = [Variant(v) for v in variants] if variants else list(Variant)

    seeds = [base_seed + i for i in range(n_seeds)]
    cells: list[ComparisonCell] = []
    all_runs: list[RunReport] = []

    def config_for(variant: Variant, seed: int) -> EngineConfig:
        return EngineConfig(
            variant=variant,
            n_partitions=n_partitions,
            master_seed=seed,
            threads=threads,
        )

    for variant in (v for v in wanted if v is not Variant.NONPRIVATE):
        for eps in epsilons:
            inputs = PlannerInputs(
                n_rows=data.n_rows,
                n_dims=data.n_dims,
                k=k,
                epsilon_total=eps,
                rho=rho,
                mse_threshold=mse_threshold,
                t_cap=t_cap,
                epsilon_m_override=epsilon_m_override,
            )
            reports = []
            for seed in seeds:
                if variant is Variant.EDPDCS:
                    _, _, report = run_edpdcs(
                        data, k, inputs, canopy_params, config_for(variant, seed)
                    )
                else:
                    _, _, report = run_baseline(
                        data,
                        k,
                        eps,
                        config_for(variant, seed),
                        planner_inputs=inputs if variant is Variant.RF_DPKM else None,
                    )
                reports.append(report)
            all_runs.extend(reports)
            cells.append(_summarize(variant.value, eps, reports))

    if Variant.NONPRIVATE in wanted:
        _, _, report = run_baseline(
            data,
            k,
            None,
            config_for(Variant.NONPRIVATE, base_seed),
            canopy_params=canopy_params,
        )
        all_runs.append(report)
        cells.append(_summarize(Variant.NONPRIVATE.value, None, [report]))

    return ComparisonSummary(
        cells=cells,
        runs=all_runs,
        notes=[],
        config={
            "k": k,
            "epsilons": list(epsilons),
            "seeds": seeds,
            "rho": rho,
            "mse_threshold": mse_threshold,
            "t_cap": t_cap,
            "epsilon_m_override": epsilon_m_override,
            "n_rows": data.n_rows,
            "n_dims": data.n_dims,
            "source_label": data.source_label,
        },
    )
