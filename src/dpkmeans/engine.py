"""Partitioned Lloyd iterations with noise injected at the reduce step.

The dataset is decomposed into fixed-size row blocks; map tasks compute
per-block cluster statistics (counts and coordinate sums) and the reduce
step merges them in ascending block order before adding noise.  Each
iteration is one labelling pass over the data: the same pass also sums
every row's squared distance to its nearest centroid, which is the NICV of
the centroids it labels against (the previous iteration's result), and a
final pass gives the assignment and the report's NICV.  Because the
block boundaries and the merge order never depend on how many workers are
used, results are bit-for-bit identical across partition counts -- the
partition count only controls how blocks are grouped onto threads.

One Lloyd loop runs all four variants.  A variant is an initialization,
a list of (iteration, epsilon or None) steps and an optional stop rule:

- ``EDPDCS``: canopy initialization (charged as the first iteration) plus
  planner-scheduled noisy Lloyd steps at a uniform per-iteration budget.
- ``RF_DPKM``: random-row initialization, planner-scheduled noisy steps.
- ``RU_DPKM``: random-row initialization, budget-halving schedule with a
  convergence stop and a reported residual.
- ``NONPRIVATE``: exact Lloyd steps (epsilon None) with a convergence stop
  from noise-free canopy initialization.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from dpkmeans.canopy import CanopyParams, select_initial_centroids, with_resolved_seed
from dpkmeans.core import (
    Assignment,
    CentroidSet,
    ClusterAggregate,
    Dataset,
    InvalidInputError,
    label_points,
)
from dpkmeans.evaluation import RunReport
from dpkmeans.mechanism import (
    BudgetLedger,
    LaplaceSampler,
    derive_stream_seed,
    perturb_aggregate,
)
from dpkmeans.planner import BudgetPlan, PlannerInputs, make_plan

logger = logging.getLogger(__name__)

#: Rows per map block.  Fixed so the floating-point merge tree of the
#: reduce step is independent of the partition count.
MAP_BLOCK_ROWS = 4096


class Variant(str, Enum):
    """Selectable clustering strategies."""

    EDPDCS = "EDPDCS"
    RF_DPKM = "RF_DPKM"
    RU_DPKM = "RU_DPKM"
    NONPRIVATE = "NONPRIVATE"


@dataclass(frozen=True)
class EngineConfig:
    """Execution knobs shared by all variants.

    Attributes:
        variant: Which strategy to run.
        n_partitions: How many groups of map blocks run concurrently.
            Affects scheduling and wall clock only, never results.
        master_seed: Root of every random stream in the run.
        threads: Worker threads; defaults to
            ``min(n_partitions, os.cpu_count())``.
        clamp_centroids: Clip noisy centroids back into the unit cube.
        min_count: Floor applied to noisy counts before dividing, so a
            cluster emptied by noise cannot blow up the mean.
        ru_shift_tol: RU_DPKM stops once the largest centroid movement
            drops below this.
        ru_max_iters: RU_DPKM iteration cap.
        nonprivate_shift_tol: Convergence threshold for exact Lloyd.
        nonprivate_max_iters: Iteration cap for exact Lloyd.
        diagnostics: Retain per-iteration exact and noisy aggregates in the
            run report (bulky; off by default).
    """

    variant: Variant = Variant.EDPDCS
    n_partitions: int = 1
    master_seed: int = 0
    threads: int | None = None
    clamp_centroids: bool = True
    min_count: float = 1.0
    ru_shift_tol: float = 1e-4
    ru_max_iters: int = 10
    nonprivate_shift_tol: float = 1e-9
    nonprivate_max_iters: int = 100
    diagnostics: bool = False

    def __post_init__(self) -> None:
        if self.n_partitions < 1:
            raise InvalidInputError(
                f"n_partitions must be >= 1, got {self.n_partitions}"
            )
        if self.master_seed < 0:
            raise InvalidInputError("master_seed must be >= 0")
        if self.threads is not None and self.threads < 1:
            raise InvalidInputError(f"threads must be >= 1, got {self.threads}")
        if self.min_count <= 0.0:
            raise InvalidInputError(f"min_count must be positive, got {self.min_count}")
        if self.ru_max_iters < 1 or self.nonprivate_max_iters < 1:
            raise InvalidInputError("iteration caps must be >= 1")

    def resolved_threads(self) -> int:
        if self.threads is not None:
            return max(1, min(self.threads, self.n_partitions))
        return max(1, min(self.n_partitions, os.cpu_count() or 1))


def block_spans(n_rows: int, block_rows: int = MAP_BLOCK_ROWS) -> list[tuple[int, int]]:
    """Fixed [start, stop) row spans covering the dataset."""
    return [(s, min(s + block_rows, n_rows)) for s in range(0, n_rows, block_rows)]


_Partials = tuple[np.ndarray, np.ndarray, np.ndarray, float]


def _block_partials(points: np.ndarray, centroids: np.ndarray, k: int) -> _Partials:
    """Map task for one block: labels, counts, sums and the sum of every
    row's squared distance to its nearest centroid."""
    labels = label_points(points, centroids)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    d = points.shape[1]
    # One bincount over the (label, dimension) bins of the row-major points:
    # each row is added exactly once, in dataset order within the block, as
    # an unbuffered np.add.at would, so the sums are bit-identical to it.
    bins = (labels[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(bins, weights=points.ravel(), minlength=k * d).reshape(k, d)
    diff = np.take(centroids, labels, axis=0)
    np.subtract(points, diff, out=diff)
    np.multiply(diff, diff, out=diff)
    return labels, counts, sums, float(diff.sum())


def _reduce_cluster_full(
    exact: ClusterAggregate,
    noise: tuple[float, LaplaceSampler] | None,
    *,
    prev_centroid: np.ndarray,
    min_count: float = 1.0,
    clamp: bool = True,
) -> tuple[np.ndarray, ClusterAggregate | None]:
    """Reduce step for one cluster: perturb its exact aggregate, recompute
    the mean; returns (centroid, noisy aggregate or None).

    ``exact`` is the cluster's count and sums over the whole dataset, as
    the labelling pass merged them in ascending block order.  ``noise`` is
    None for an exact step; otherwise it is the budget share of each of the
    cluster's d + 1 statistics and the cluster's noise stream.  The count
    and sums then receive Laplace noise before the division, the
    denominator is floored at ``min_count``, and the centroid is clamped
    back into the unit cube when ``clamp`` is set.  Without noise an empty
    cluster keeps its previous centroid.
    """
    if noise is not None:
        share, sampler = noise
        noisy = perturb_aggregate(exact, share, share, sampler)
        centroid = noisy.sums / max(noisy.count, min_count)
        if clamp:
            centroid = np.clip(centroid, 0.0, 1.0)
        return centroid, noisy
    if exact.count == 0.0:
        return np.array(prev_centroid, dtype=np.float64, copy=True), None
    return exact.sums / exact.count, None


class _BlockAggregator:
    """Runs the map phase over fixed blocks, optionally on a thread pool."""

    def __init__(self, data: Dataset, config: EngineConfig):
        self._points = data.points
        self._spans = block_spans(data.n_rows)
        self._executor: ThreadPoolExecutor | None = None
        self._groups: list[np.ndarray] = []
        workers = config.resolved_threads()
        if workers > 1 and config.n_partitions > 1 and len(self._spans) > 1:
            self._groups = [
                g
                for g in np.array_split(
                    np.arange(len(self._spans)), config.n_partitions
                )
                if g.size
            ]
            self._executor = ThreadPoolExecutor(max_workers=workers)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def labelling_pass(
        self, centroids: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
        """One pass over every block against ``centroids``.

        Returns the exact per-cluster counts and sums, the sum over all rows
        of the squared distance to the nearest centroid, and the labels.
        Block partials merge in ascending block order, so every result is
        independent of the partition count.
        """

        def work(blocks) -> list[_Partials]:
            return [
                _block_partials(self._points[s:e], centroids, k)
                for s, e in (self._spans[b] for b in blocks)
            ]

        if self._executor is None:
            per_block = work(range(len(self._spans)))
        else:
            # Groups are consecutive block ranges and map() keeps their
            # order, so the partials arrive in ascending block order.
            per_block = [
                partial
                for group in self._executor.map(work, self._groups)
                for partial in group
            ]

        counts = np.zeros(k, dtype=np.float64)
        sums = np.zeros((k, centroids.shape[1]), dtype=np.float64)
        sq_dist = 0.0
        for _, block_counts, block_sums, block_sq_dist in per_block:
            counts += block_counts
            sums += block_sums
            sq_dist += block_sq_dist
        labels = np.concatenate([p[0] for p in per_block])
        return counts, sums, sq_dist, labels


def _max_shift(old: np.ndarray, new: np.ndarray) -> float:
    """Largest Euclidean movement of any single centroid."""
    return float(np.sqrt(((new - old) ** 2).sum(axis=1)).max())


def _random_row_centroids(data: Dataset, k: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.choice(data.n_rows, size=k, replace=False)
    return data.points[np.sort(idx)].copy()


def _aggregates(aggs: list[ClusterAggregate]) -> list[dict]:
    return [
        {"cluster_index": a.cluster_index, "count": a.count, "sums": a.sums.tolist()}
        for a in aggs
    ]


def _run_lloyd(
    data: Dataset,
    k: int,
    config: EngineConfig,
    start: np.ndarray,
    steps: list[tuple[int, float | None]],
    stop: tuple[float, str] | None,
    *,
    t_start: float,
    ledger: BudgetLedger | None = None,
    plan: BudgetPlan | None = None,
    init_budget: float | None = None,
    init_draws: int = 0,
    notes: list[str],
    replay: dict,
) -> tuple[CentroidSet, Assignment, RunReport]:
    """The Lloyd loop every variant runs, from ``start`` through ``steps``.

    Each step is an (iteration, epsilon) pair.  A step with an epsilon is
    charged to ``ledger`` before its labelling pass reads any data, and each
    cluster's count and d sums each get epsilon / (d + 1) of it; a step
    with ``None`` is exact.  ``stop``, when given, is a shift tolerance and
    the note (formatted with ``t`` and ``shift``) written when a step moves
    no centroid further than it.  The initialization is traced as the
    iteration before the first step.  Every trace entry's ``nicv_after`` is
    filled in by the next labelling pass, which labels every row against
    that entry's centroids; the last is the final pass, which gives the
    assignment and the report's NICV.
    """
    trace = [
        {
            "iteration": steps[0][0] - 1,
            "phase": "init",
            "budget_charged": init_budget,
            "noise_draws": init_draws,
            "centroid_shift": None,
            "centroids_before": None,
            "centroids_after": start.tolist(),
            "exact_aggregates": None,
            "noisy_aggregates": None,
        }
    ]
    init_ms = 1e3 * (time.perf_counter() - t_start)
    iter_ms: list[float] = []
    centroids = start
    aggregator = _BlockAggregator(data, config)
    try:
        for t, epsilon in steps:
            t0 = time.perf_counter()
            share = None
            if epsilon is not None:
                ledger.charge(f"iteration-{t}", epsilon)
                share = epsilon / (data.n_dims + 1)
            counts, sums, sq_dist, _ = aggregator.labelling_pass(centroids, k)
            trace[-1]["nicv_after"] = sq_dist / data.n_rows
            new = np.empty_like(centroids)
            draws = 0
            exact_aggs: list[ClusterAggregate] = []
            noisy_aggs: list[ClusterAggregate] = []
            for j in range(k):
                exact = ClusterAggregate(
                    cluster_index=j, count=float(counts[j]), sums=sums[j]
                )
                noise = None
                if share is not None:
                    seed = derive_stream_seed(config.master_seed, t, j)
                    noise = (share, LaplaceSampler(seed))
                new[j], noisy = _reduce_cluster_full(
                    exact,
                    noise,
                    prev_centroid=centroids[j],
                    min_count=config.min_count,
                    clamp=config.clamp_centroids,
                )
                exact_aggs.append(exact)
                if noisy is not None:
                    noisy_aggs.append(noisy)
                    draws += noise[1].draw_count
            shift = _max_shift(centroids, new)
            iter_ms.append(1e3 * (time.perf_counter() - t0))
            exact_trace = noisy_trace = None
            if config.diagnostics:
                exact_trace = _aggregates(exact_aggs)
                noisy_trace = None if share is None else _aggregates(noisy_aggs)
            trace.append(
                {
                    "iteration": t,
                    "phase": "lloyd",
                    "budget_charged": epsilon,
                    "noise_draws": draws,
                    "centroid_shift": shift,
                    "centroids_before": centroids.tolist(),
                    "centroids_after": new.tolist(),
                    "exact_aggregates": exact_trace,
                    "noisy_aggregates": noisy_trace,
                }
            )
            centroids = new
            if stop is not None and shift < stop[0]:
                notes.append(stop[1].format(t=t, shift=shift))
                break
        t0 = time.perf_counter()
        _, _, sq_dist, labels = aggregator.labelling_pass(centroids, k)
        trace[-1]["nicv_after"] = sq_dist / data.n_rows
        final_ms = 1e3 * (time.perf_counter() - t0)
    finally:
        aggregator.close()

    if config.variant is Variant.RU_DPKM:
        notes.append(f"residual budget {ledger.remaining:.6g} left by halving schedule")
    elif ledger is not None:
        ledger.assert_fully_spent()
    report = RunReport(
        variant=config.variant.value,
        epsilon=None if ledger is None else ledger.total,
        master_seed=config.master_seed,
        n_rows=data.n_rows,
        n_dims=data.n_dims,
        k=k,
        n_partitions=config.n_partitions,
        iterations_run=trace[-1]["iteration"],
        nicv=trace[-1]["nicv_after"],
        budget_spent=0.0 if ledger is None else ledger.spent,
        budget_remaining=0.0 if ledger is None else ledger.remaining,
        plan=None if plan is None else plan.to_dict(),
        iterations=trace,
        config=replay,
        notes=notes,
        timings_ms={
            "note": "wall clock; excluded from reproducibility comparisons",
            "init_ms": init_ms,
            "iterations_ms": iter_ms,
            "final_ms": final_ms,
            "total_ms": 1e3 * (time.perf_counter() - t_start),
        },
    )
    final = CentroidSet(centroids=centroids, noisy=ledger is not None)
    return final, Assignment(labels=labels), report


def _validate_run(
    data: Dataset,
    k: int,
    config: EngineConfig,
    planner_inputs: PlannerInputs | None = None,
    initial_centroids: CentroidSet | None = None,
) -> None:
    if not data.normalized:
        raise InvalidInputError("engine requires min-max normalized data")
    if k < 1 or k > data.n_rows:
        raise InvalidInputError(f"k={k} out of range for {data.n_rows} rows")
    if config.n_partitions > data.n_rows:
        raise InvalidInputError(
            f"n_partitions={config.n_partitions} exceeds {data.n_rows} rows"
        )
    if planner_inputs is not None:
        inputs = planner_inputs
        if (inputs.n_rows, inputs.n_dims, inputs.k) != (data.n_rows, data.n_dims, k):
            raise InvalidInputError(
                "planner inputs (N, d, k) do not match the dataset and k supplied"
            )
    if initial_centroids is not None:
        shape = initial_centroids.centroids.shape
        if shape != (k, data.n_dims):
            raise InvalidInputError(
                f"initial centroids have shape {shape}, expected ({k}, {data.n_dims})"
            )


def run_edpdcs(
    data: Dataset,
    k: int,
    planner_inputs: PlannerInputs,
    canopy_params: CanopyParams | None = None,
    config: EngineConfig | None = None,
) -> tuple[CentroidSet, Assignment, RunReport]:
    """Full budget-planned private run: plan, canopy init, noisy Lloyd steps.

    The initialization pass is charged as the first of the plan's T
    iterations; the remaining T - 1 are noisy Lloyd steps, each charged
    epsilon / T.  The ledger must be exactly exhausted at the end.

    Returns the final (noisy) centroids, the assignment of every row to its
    nearest final centroid, and a replayable run report.
    """
    config = config or EngineConfig(variant=Variant.EDPDCS)
    if config.variant is not Variant.EDPDCS:
        raise InvalidInputError(f"run_edpdcs cannot run variant {config.variant}")
    _validate_run(data, k, config, planner_inputs)
    canopy_params = with_resolved_seed(
        canopy_params or CanopyParams(),
        derive_stream_seed(config.master_seed, 0, 0),
    )

    t_start = time.perf_counter()
    plan = make_plan(planner_inputs)
    ledger = BudgetLedger(total=plan.epsilon_total)
    init = select_initial_centroids(
        data,
        k,
        canopy_params,
        plan,
        LaplaceSampler(derive_stream_seed(config.master_seed, 1, 0)),
        fill_seed=derive_stream_seed(config.master_seed, 0, 1),
    )
    ledger.charge("init", plan.epsilon_per_iter)
    return _run_lloyd(
        data,
        k,
        config,
        init.centroids.centroids,
        [(t, plan.epsilon_per_iter) for t in range(2, plan.iterations + 1)],
        None,
        t_start=t_start,
        ledger=ledger,
        plan=plan,
        init_budget=plan.epsilon_per_iter,
        init_draws=init.noise_draws,
        notes=list(init.notes),
        replay=_replay_config(config, planner_inputs, canopy_params),
    )


def run_baseline(
    data: Dataset,
    k: int,
    epsilon: float | None,
    config: EngineConfig,
    *,
    planner_inputs: PlannerInputs | None = None,
    canopy_params: CanopyParams | None = None,
    initial_centroids: CentroidSet | None = None,
) -> tuple[CentroidSet, Assignment, RunReport]:
    """Run one of the reference variants (RF_DPKM, RU_DPKM, NONPRIVATE).

    RF_DPKM starts from random data rows and runs the planner's iteration
    count at a uniform budget split.  RU_DPKM starts the same way but
    charges iteration t (1-based) epsilon / 2^(t+1) and stops early once
    the largest centroid movement drops below ``ru_shift_tol``; whatever
    the halving schedule leaves unspent is reported as residual.
    NONPRIVATE runs exact Lloyd to convergence from noise-free canopy
    initialization and takes no epsilon.

    ``initial_centroids`` overrides the variant's own initialization, which
    is how like-for-like comparisons pin both runs to the same start.
    """
    variant = config.variant
    if variant is Variant.EDPDCS:
        raise InvalidInputError("use run_edpdcs for the EDPDCS variant")
    _validate_run(data, k, config, planner_inputs, initial_centroids)
    if variant is Variant.NONPRIVATE:
        if epsilon is not None:
            raise InvalidInputError("NONPRIVATE spends no budget; pass epsilon=None")
    else:
        if epsilon is None or epsilon <= 0.0:
            raise InvalidInputError(f"variant {variant.value} needs a positive epsilon")
        if planner_inputs is not None and planner_inputs.epsilon_total != epsilon:
            raise InvalidInputError(
                "planner_inputs.epsilon_total disagrees with the epsilon argument"
            )

    t_start = time.perf_counter()
    notes: list[str] = []
    plan: BudgetPlan | None = None
    canopy_resolved: CanopyParams | None = None
    if variant is Variant.RF_DPKM:
        planner_inputs = planner_inputs or PlannerInputs(
            n_rows=data.n_rows, n_dims=data.n_dims, k=k, epsilon_total=epsilon
        )
        plan = make_plan(planner_inputs)
        steps = [(t, plan.epsilon_per_iter) for t in range(1, plan.iterations + 1)]
        stop = None
    elif variant is Variant.RU_DPKM:
        steps = [
            (t, epsilon / 2.0 ** (t + 1)) for t in range(1, config.ru_max_iters + 1)
        ]
        stop = (config.ru_shift_tol, "converged at iteration {t} (shift {shift:.3g})")
    else:
        steps = [(t, None) for t in range(1, config.nonprivate_max_iters + 1)]
        stop = (config.nonprivate_shift_tol, "converged at iteration {t}")

    if initial_centroids is not None:
        start = initial_centroids.centroids
        notes.append("started from supplied centroids")
    elif variant is Variant.NONPRIVATE:
        canopy_resolved = with_resolved_seed(
            canopy_params or CanopyParams(),
            derive_stream_seed(config.master_seed, 0, 0),
        )
        init = select_initial_centroids(
            data,
            k,
            canopy_resolved,
            None,
            None,
            dp_enabled=False,
            fill_seed=derive_stream_seed(config.master_seed, 0, 1),
        )
        start = init.centroids.centroids
        notes.extend(init.notes)
    else:
        start = _random_row_centroids(
            data, k, derive_stream_seed(config.master_seed, 0, 1)
        )

    return _run_lloyd(
        data,
        k,
        config,
        start,
        steps,
        stop,
        t_start=t_start,
        ledger=None if epsilon is None else BudgetLedger(total=epsilon),
        plan=plan,
        notes=notes,
        replay=_replay_config(config, planner_inputs, canopy_resolved),
    )


def _replay_config(
    config: EngineConfig,
    planner_inputs: PlannerInputs | None,
    canopy_params: CanopyParams | None,
) -> dict:
    out = {
        "variant": config.variant.value,
        "master_seed": config.master_seed,
        "n_partitions": config.n_partitions,
        "threads": config.resolved_threads(),
        "clamp_centroids": config.clamp_centroids,
        "min_count": config.min_count,
        "ru_shift_tol": config.ru_shift_tol,
        "ru_max_iters": config.ru_max_iters,
        "nonprivate_shift_tol": config.nonprivate_shift_tol,
        "nonprivate_max_iters": config.nonprivate_max_iters,
        "map_block_rows": MAP_BLOCK_ROWS,
    }
    if planner_inputs is not None:
        out["planner_inputs"] = {
            "n_rows": planner_inputs.n_rows,
            "n_dims": planner_inputs.n_dims,
            "k": planner_inputs.k,
            "epsilon_total": planner_inputs.epsilon_total,
            "rho": planner_inputs.rho,
            "mse_threshold": planner_inputs.mse_threshold,
            "t_cap": planner_inputs.t_cap,
            "epsilon_m_override": planner_inputs.epsilon_m_override,
        }
    if canopy_params is not None:
        out["canopy"] = {
            "t1": canopy_params.t1,
            "t2": canopy_params.t2,
            "subsample_size": canopy_params.subsample_size,
            "seed": canopy_params.seed,
        }
    return out

