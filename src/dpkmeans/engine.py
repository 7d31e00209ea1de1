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

After set-up, every read of the raw rows goes through the run's
:class:`_Boundary`, which holds the run's budget ledger, draws every one of
its random streams and keeps the dataset's store
(:func:`~dpkmeans.core.dataset_store`).

One function, ``_run_lloyd``, runs all four variants: it checks which
inputs the variant takes, sets the run up and runs the one Lloyd loop.
``run_edpdcs`` and ``run_baseline`` each make one call into it.  Which
inputs a variant reads -- an epsilon, planner inputs, canopy params -- is
said once, by :class:`Variant`'s predicates, and every caller asks them.  A
variant is an initialization, a list of (iteration, epsilon or None) steps
and an optional stop rule:

- ``EDPDCS``: canopy initialization (the plan's first iteration) plus
  planner-scheduled noisy Lloyd steps at a uniform per-iteration budget.
- ``RF_DPKM``: random-row initialization, planner-scheduled noisy steps.
- ``RU_DPKM``: random-row initialization, budget-halving schedule with a
  convergence stop and a reported residual.
- ``NONPRIVATE``: exact Lloyd steps (epsilon None) with a convergence stop
  from noise-free canopy initialization.

Each run returns a :class:`RunReport`, built here.  It traces the
initialization and every step once: its iteration, phase, budget charge,
noise draws, centroid shift, the centroids after it and their NICV.  The
centroids a step starts from are the previous entry's.  The report also
says which of its fields are scheduling-only -- the partition and thread
counts -- and leaves them and the wall-clock timings out of
:meth:`RunReport.comparable_json`.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import mmap
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from dpkmeans.canopy import CanopyParams, select_initial_centroids
from dpkmeans.core import (
    Assignment,
    CentroidSet,
    Dataset,
    InvalidInputError,
    as_int,
    certificate_bounds,
    dataset_store,
    label_points,
)
from dpkmeans.mechanism import (
    BudgetLedger,
    derive_stream_seed,
    noisy_mean,
    stream_unit_noise,
)
from dpkmeans.planner import BudgetPlan, PlannerInputs, make_plan

#: Rows per map block.  Fixed so the floating-point merge tree of the
#: reduce step is independent of the partition count.
MAP_BLOCK_ROWS = 4096

#: RU_DPKM's iteration cap, and the largest centroid shift that stops it.
RU_MAX_ITERS = 10
RU_SHIFT_TOL = 1e-4
#: Exact Lloyd stops once no centroid moves further than this.
NONPRIVATE_SHIFT_TOL = 1e-9

logger = logging.getLogger(__name__)


class Variant(str, Enum):
    """Selectable clustering strategies, and which inputs each one reads."""

    EDPDCS = "EDPDCS"
    RF_DPKM = "RF_DPKM"
    RU_DPKM = "RU_DPKM"
    NONPRIVATE = "NONPRIVATE"

    @property
    def spends_epsilon(self) -> bool:
        """Takes a privacy budget; NONPRIVATE alone runs without one."""
        return self is not Variant.NONPRIVATE

    @property
    def takes_planner_inputs(self) -> bool:
        """Runs the budget planner's schedule, so reads ``PlannerInputs``."""
        return self in (Variant.EDPDCS, Variant.RF_DPKM)

    @property
    def has_canopy_start(self) -> bool:
        """Starts from canopy centroids, so reads ``CanopyParams``."""
        return self in (Variant.EDPDCS, Variant.NONPRIVATE)


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
        nonprivate_max_iters: Iteration cap for exact Lloyd.
    """

    variant: Variant = Variant.EDPDCS
    n_partitions: int = 1
    master_seed: int = 0
    threads: int | None = None
    nonprivate_max_iters: int = 100

    def __post_init__(self) -> None:
        for name in ("n_partitions", "master_seed", "nonprivate_max_iters"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.threads is not None:
            object.__setattr__(self, "threads", as_int(self.threads, "threads"))
        if self.n_partitions < 1:
            raise InvalidInputError(
                f"n_partitions must be >= 1, got {self.n_partitions}"
            )
        if self.master_seed < 0:
            raise InvalidInputError("master_seed must be >= 0")
        if self.threads is not None and self.threads < 1:
            raise InvalidInputError(f"threads must be >= 1, got {self.threads}")
        if self.nonprivate_max_iters < 1:
            raise InvalidInputError("nonprivate_max_iters must be >= 1")

    def resolved_threads(self) -> int:
        if self.n_partitions == 1:
            return 1
        if self.threads is not None:
            return max(1, min(self.threads, self.n_partitions))
        return max(1, min(self.n_partitions, os.cpu_count() or 1))


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


def block_spans(n_rows: int) -> list[tuple[int, int]]:
    """Fixed [start, stop) row spans covering the dataset."""
    return [
        (s, min(s + MAP_BLOCK_ROWS, n_rows)) for s in range(0, n_rows, MAP_BLOCK_ROWS)
    ]


#: A map task's labels, (counts, sums) or None, and squared-distance sum of
#: one block.
_Partials = tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None, float]


@functools.lru_cache(maxsize=4)
def _bin_offsets(n: int, d: int) -> np.ndarray:
    """Read-only 0 .. d-1, n times: the dimension of each row-major entry.

    A run's blocks have at most two row counts, the full block and the last.
    Broadcasting the bins instead was slower per block: 156 -> 186 us at
    4096 x 16 and 63 -> 99 us at 4096 x 6.
    """
    out = np.tile(np.arange(d), n)
    out.setflags(write=False)
    return out


def _squared_differences(
    points: np.ndarray, centroids: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """(x - c)^2 per row x and dimension, c the row's labelled centroid: the
    map task sums it for NICV, and a row's sum is its certificate's distance
    (:func:`~dpkmeans.core.certificate_bounds`)."""
    diff = np.take(centroids, labels, axis=0)
    np.subtract(points, diff, out=diff)
    np.multiply(diff, diff, out=diff)
    return diff


def _counts_and_sums(
    points: np.ndarray, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """A block's read-only per-cluster counts and coordinate sums under
    ``labels``."""
    d = points.shape[1]
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    # One bincount over the (label, dimension) bins of the row-major points:
    # each row is added exactly once, in dataset order within the block, as
    # an unbuffered np.add.at would, so the sums are bit-identical to it.
    bins = np.repeat(labels * d, d)
    bins += _bin_offsets(points.shape[0], d)
    sums = np.bincount(bins, weights=points.ravel(), minlength=k * d).reshape(k, d)
    counts.setflags(write=False)
    sums.setflags(write=False)
    return counts, sums


#: The certificate's gate (see :class:`_Boundary`).  A block that
#: keeps nothing probes in each of the run's first ``PROBE_PASSES``
#: labelling passes: once at least ``CERTIFY_SHARE`` of one row in
#: ``PROBE_STRIDE`` would have been certified, it keeps its counts and sums
#: and tries the certificate from its next pass on.  A try that certifies
#: less than ``CERTIFY_SHARE`` of the block's rows drops what it keeps.
CERTIFY_SHARE = 7 / 8
PROBE_PASSES = 2
PROBE_STRIDE = 16


def _certified_sq_dist(
    points: np.ndarray, centroids: np.ndarray, labels: np.ndarray, bounds: np.ndarray
) -> tuple[float, bool, bool]:
    """Certify ``labels``, a block's candidates, and relabel in place the
    rows left unsure; returns the block's squared-distance sum, whether any
    row's label moved, and whether at least ``CERTIFY_SHARE`` of the rows
    were certified.

    An unsure row may keep its label.  Only a moved label changes the
    block's counts and sums, so a block where none moved keeps them.
    """
    diff = _squared_differences(points, centroids, labels)
    unsure = np.flatnonzero(~(np.einsum("ij->i", diff) < bounds[labels]))
    rows = unsure
    if unsure.size:
        fresh = label_points(points[unsure], centroids, points.shape[1])
        moved = fresh != labels[unsure]
        rows = unsure[moved]
        if rows.size:
            labels[rows] = fresh[moved]
            diff[rows] = _squared_differences(points[rows], centroids, fresh[moved])
    certified = unsure.size <= (1.0 - CERTIFY_SHARE) * len(points)
    return float(diff.sum()), rows.size > 0, certified


def _pass_key(centroids: np.ndarray) -> tuple:
    """A pass's key in the dataset's store: its statistics depend only on the
    data and the centroids' bytes, never on the partition count."""
    return "pass", centroids.shape, centroids.tobytes()


class _Boundary:
    """A run's one reader of raw rows after set-up, with its budget ledger,
    its master seed and its dataset's store.  Each public method says
    whether what it returns is released, into the report or the centroids,
    or evaluator-only; one that spends budget charges the ledger before it
    reads the rows or the store's exact statistics of them.

    It is also the one place that keys on the master seed.  Each purpose
    draws from its stream (i, j), seeded by
    :func:`~dpkmeans.mechanism.derive_stream_seed`:

    - (0, 0): the canopy start's subsample, when smaller than the data;
    - (0, 1): the canopy start's random fill, and the random-row start;
    - (1, 0): the EDPDCS start's noise;
    - (t, j): step t's noise for cluster j.

    Two streams serve two purposes each, a known flaw (ROADMAP item 1):
    (0, 1), and (1, 0), which is also step 1's cluster 0 of RF_DPKM and
    RU_DPKM.

    The block views, the thread pool if any and the rows' candidate labels
    are the run's own.  Each pass computes only what its caller reads: a
    step pass (:meth:`_statistics`) the counts, sums and squared-distance
    sum of a Lloyd step, which the dataset's store keeps; the final pass
    (:meth:`final_pass`) the labels and the squared-distance sum.

    A row's candidate is its label from the run's latest labelling pass,
    stale when a pass since was served from the store.  A block that keeps
    the counts and sums of its candidates tries the certificate: it computes
    its rows' squared differences to their candidates first, which the
    squared-distance sum needs anyway, and relabels through
    :func:`~dpkmeans.core.label_points` only the rows that
    :func:`~dpkmeans.core.certificate_bounds` leaves unsure; a certified
    row's candidate is its label, so every result is bit-identical.  Counts
    and sums depend only on the block's rows and their labels, so a still
    block, one where no row's label moved, returns its kept ones without
    summing again.  What a block keeps is its only state: it starts keeping
    after a passing probe, and stops after a try that certifies too few
    rows, or one in the final pass that moves a label.  Data of one block
    never probes: there the extra numpy calls cost more than the labelling
    they save.
    """

    def __init__(self, data: Dataset, config: EngineConfig, epsilon: float | None):
        self.ledger = None if epsilon is None else BudgetLedger(total=epsilon)
        self._data = data
        self._seed = config.master_seed
        self._store = dataset_store(data)
        spans = block_spans(data.n_rows)
        self._blocks = [data.points[s:e] for s, e in spans]
        n_blocks = len(self._blocks)
        self._passes = 0
        # Block -> the read-only counts and sums of its candidates, for the
        # blocks that keep them: a pass needs bounds only while one does.
        self._kept: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._candidates: list[np.ndarray] = []
        if n_blocks > 1:
            # Outside the malloc heap, whose freed pages glibc may keep
            # resident after the run; untouched pages cost nothing.
            labels = np.frombuffer(mmap.mmap(-1, 8 * data.n_rows), dtype=np.int64)
            self._candidates = [labels[s:e] for s, e in spans]
        self._executor: ThreadPoolExecutor | None = None
        workers = config.resolved_threads()
        if workers > 1 and n_blocks > 1:
            groups = np.array_split(np.arange(n_blocks), config.n_partitions)
            self._groups = [g for g in groups if g.size]
            self._executor = ThreadPoolExecutor(max_workers=workers)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def canopy_start(
        self, k: int, params: CanopyParams, epsilon: float | None
    ) -> tuple[np.ndarray, int, list[str]]:
        """Released: the canopy start's (k, d) centroids, noise draws and
        notes.  Given an ``epsilon``, it charges ``"init"`` before it reads
        the rows, and releases the :func:`~dpkmeans.mechanism.noisy_mean` of
        the top canopies' tight members at epsilon / (d + 1) per statistic,
        d + 1 draws per canopy in rank order; without one, their exact means.
        :func:`~dpkmeans.canopy.select_initial_centroids` summarizes a
        uniform subsample, in dataset order, when it is smaller than the
        data, and all rows otherwise; the store keeps the summary under what
        it depends on.  Missing canopies are uniform points in the cube."""
        share = None
        if epsilon is not None:
            self.ledger.charge("init", epsilon)
            share = epsilon / (self._data.n_dims + 1)
        n = self._data.n_rows
        seed = None
        if params.subsample_size < n:
            seed = derive_stream_seed(self._seed, 0, 0)
        key = ("canopy", params.subsample_size, seed, params.t1, params.t2, k)
        summary = self._store.get(key)
        if summary is None:
            points = self._data.points
            if seed is not None:
                rng = np.random.Generator(np.random.PCG64(seed))
                points = points[np.sort(rng.choice(n, size=params.subsample_size, replace=False))]
            summary = self._store.put(key, select_initial_centroids(points, k, params))

        notes = []
        if summary.halvings:
            notes.append(
                f"canopy radii halved {summary.halvings}x to reach "
                f"{summary.n_canopies} canopies"
            )
        found, d = summary.sums.shape
        draws = 0
        if share is not None:
            noise = stream_unit_noise(self._seed, 1, 1, k * (d + 1))[0].reshape(k, d + 1)
            rows = noisy_mean(summary.counts, summary.sums, share, noise[:found])
            draws = found * (d + 1)
        else:
            # Bit for bit the mean of the tight rows, as ``mean`` also divides
            # their sum by their number.
            rows = summary.sums / summary.counts[:, None]
        if found < k:
            fill_seed = derive_stream_seed(self._seed, 0, 1)
            fill = np.random.Generator(np.random.PCG64(fill_seed)).random((k - found, d))
            rows = np.vstack([rows, fill])
            notes.append(f"filled {k - found} centroid(s) with uniform random points")
            logger.warning(
                "canopy pass produced %d < k=%d canopies; filled remainder randomly", found, k
            )
        return rows, draws, notes

    def random_rows(self, k: int) -> np.ndarray:
        """Released and uncharged, a known leak: copies of k distinct rows,
        at sorted indices drawn from stream (0, 1) of the master seed, kept
        in the dataset's store so that the runs of one master seed in a
        ``compare`` grid draw them once."""
        key = ("rows", k, self._seed)
        entry = self._store.get(key)
        if entry is None:
            rng = np.random.Generator(np.random.PCG64(derive_stream_seed(self._seed, 0, 1)))
            rows = rng.choice(self._data.n_rows, size=k, replace=False)
            entry = self._store.put(key, (np.sort(rows),))
        # Fancy indexing copies: the start shares no memory with the data.
        return self._data.points[entry[0]]

    def step(
        self, t: int, epsilon: float | None, centroids: np.ndarray
    ) -> tuple[np.ndarray, int, float]:
        """Lloyd step ``t`` from ``centroids``: the new centroids and their
        noise draws, released, and the squared-distance sum, evaluator-only.
        Given an ``epsilon``, it charges ``"iteration-t"`` before it reads
        the exact counts and sums, and releases their
        :func:`~dpkmeans.mechanism.noisy_mean` at epsilon / (d + 1) per
        statistic, cluster j's noise from stream (t, j).  Without one the
        step is exact.
        """
        if epsilon is not None:
            self.ledger.charge(f"iteration-{t}", epsilon)
        counts, sums, sq_dist = self._statistics(centroids)
        if epsilon is None:
            # An empty cluster keeps its centroid.
            new = centroids.copy()
            np.divide(sums, counts[:, None], out=new, where=counts[:, None] > 0)
            return new, 0, sq_dist
        k, d = centroids.shape
        noise = stream_unit_noise(self._seed, t, k, d + 1)
        return noisy_mean(counts, sums, epsilon / (d + 1), noise), noise.size, sq_dist

    def _statistics(self, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """A Lloyd step's exact per-cluster counts and sums against
        ``centroids``, and the sum over all rows of the squared distance to
        the nearest one.  Centroids with the same bytes as a kept pass's get
        its read-only values back without a read of the data, so runs on one
        dataset that label against the same centroids, as the runs of a
        ``compare`` grid often do, read the data once for them.  Any others
        get a step pass, one read of every block, whose statistics it puts
        in the store.  It joins no labels: only the blocks that keep counts
        and sums keep theirs.  Block partials merge in ascending block
        order, so every result is independent of the partition count.
        """
        key = _pass_key(centroids)
        stats = self._store.get(key)
        if stats is not None:
            return stats
        self._passes += 1
        probes = len(self._blocks) > 1 and self._passes <= PROBE_PASSES
        per_block = self._map_blocks(centroids, probes, final=False)
        # Block 0's partials come from bincount, which never yields -0.0, so
        # starting the fold from them equals starting it from zeros.  Every
        # block's counts and sums are read-only: the first addition makes
        # fresh arrays, with the bits an addition in place would give.
        _, (counts, sums), sq_dist = per_block[0]
        if len(per_block) > 1:
            _, (block_counts, block_sums), block_sq_dist = per_block[1]
            counts, sums = counts + block_counts, sums + block_sums
            sq_dist += block_sq_dist
            for _, (block_counts, block_sums), block_sq_dist in per_block[2:]:
                counts += block_counts
                sums += block_sums
                sq_dist += block_sq_dist
        return self._store.put(key, (counts, sums, sq_dist))

    def final_pass(self, centroids: np.ndarray) -> tuple[float, np.ndarray]:
        """Evaluator-only: the run's last pass, the sum over all rows of the
        squared distance to the nearest of ``centroids``, added in ascending
        block order, and every row's label.  It sums no counts and sums,
        neither probes nor starts keeping, and puts nothing in the store: a
        run's last centroids are labelled by its final pass alone.
        """
        per_block = self._map_blocks(centroids, probes=False, final=True)
        sq_dist = per_block[0][2]
        for _, _, block_sq_dist in per_block[1:]:
            sq_dist += block_sq_dist
        labels = [partial[0] for partial in per_block]
        return sq_dist, labels[0] if len(labels) == 1 else np.concatenate(labels)

    def _map_blocks(self, centroids: np.ndarray, probes: bool, final: bool) -> list[_Partials]:
        """Every block's :meth:`_map` partials, in ascending block order.  A
        serial pass maps its blocks in a plain loop, which costs less per
        pass than a closure mapped through the builtin ``map``."""
        bounds = None
        if probes or self._kept:
            bounds = certificate_bounds(centroids, centroids.shape[1])
        if self._executor is None:
            per_block = []
            for b in range(len(self._blocks)):
                per_block.append(self._map(b, centroids, bounds, probes, final))
            return per_block

        def work(indices) -> list[_Partials]:
            return [self._map(b, centroids, bounds, probes, final) for b in indices]

        # Groups are consecutive block ranges and map() keeps their order, so
        # the partials arrive in ascending block order.
        groups = self._executor.map(work, self._groups)
        return [partial for group in groups for partial in group]

    def _map(
        self, b: int, centroids: np.ndarray, bounds: np.ndarray | None, probes: bool, final: bool
    ) -> _Partials:
        """Block ``b``'s labels, counts and sums, and the sum of every row's
        squared distance to its nearest centroid.  The ``final`` pass tells
        it to sum no counts and sums: it gives None for them, unless the
        block keeps them.

        A block that keeps counts and sums tries the certificate, and keeps
        them while the try certifies enough rows; a still block's are its
        kept ones.  Any other block is labelled in full: its rows lie in the
        unit cube, so d bounds every row's squared norm for the filter.  In
        a pass that ``probes``, the block keeps its counts and sums when the
        probe passes.

        Every path sums its squared differences, and frees them, before the
        bincount temporaries exist.  With both alive at once, glibc's heap
        grew differently, and a 200k x 16 benchmark process peaked at 180 MB
        instead of 157 MB in 4 of 18 runs.
        """
        points = self._blocks[b]
        k = centroids.shape[0]
        kept = self._kept.get(b)
        if kept is not None:
            labels = self._candidates[b]
            sq_dist, moved, certified = _certified_sq_dist(points, centroids, labels, bounds)
            if moved:
                kept = None if final else _counts_and_sums(points, labels, k)
            if certified and kept is not None:
                self._kept[b] = kept
            else:
                del self._kept[b]
            return labels, kept, sq_dist
        labels = label_points(points, centroids, points.shape[1])
        diff = _squared_differences(points, centroids, labels)
        sq_dist = float(diff.sum())
        if final:
            return labels, None, sq_dist
        passed = False
        if probes:
            probe = slice(None, None, PROBE_STRIDE)
            sure = np.einsum("ij->i", diff[probe]) < bounds[labels[probe]]
            passed = np.count_nonzero(sure) >= CERTIFY_SHARE * sure.size
        del diff
        kept = _counts_and_sums(points, labels, k)
        if passed:
            self._candidates[b][:] = labels
            self._kept[b] = kept
        return labels, kept, sq_dist


def _max_shift(old: np.ndarray, new: np.ndarray) -> float:
    """Largest Euclidean movement of any single centroid.

    One square root, of the largest squared movement: ``sqrt`` is correctly
    rounded and monotone, so this is the largest of the k roots, bit for bit.
    """
    return math.sqrt(((new - old) ** 2).sum(axis=1).max())


def _run_lloyd(
    data: Dataset,
    k: int,
    config: EngineConfig,
    epsilon: float | None,
    *,
    planner_inputs: PlannerInputs | None,
    canopy_params: CanopyParams | None,
    initial_centroids: CentroidSet | None,
) -> tuple[CentroidSet, Assignment, RunReport]:
    """One run of any variant: checks, set-up, the Lloyd loop and the report.

    The variant's predicates say which inputs it reads, and any other input
    is refused.  A variant that takes planner inputs runs the plan's
    schedule, planning from the data shape when none are given.  A canopy
    start takes ``canopy_params``, unless the run starts from
    ``initial_centroids``.  ``epsilon`` is None exactly for a variant that
    spends none; every other run's budget is ``epsilon``.

    Each step is an iteration and its epsilon, or None for an exact step,
    made by the run's :class:`_Boundary`.  RU_DPKM and NONPRIVATE stop once
    a step moves no centroid further than their shift tolerance, and note it.
    The initialization is traced as the iteration before the first step.
    Every trace entry's ``nicv_after`` is filled in by the next labelling
    pass, which labels every row against that entry's centroids; the last
    is the final pass, which always reads the data, gives the assignment
    and the report's NICV, and computes nothing else.
    """
    variant = config.variant
    k = as_int(k, "k")
    if planner_inputs is not None and not variant.takes_planner_inputs:
        raise InvalidInputError(f"{variant.value} takes no planner_inputs")
    if canopy_params is not None and not variant.has_canopy_start:
        raise InvalidInputError(f"{variant.value} takes no canopy_params")
    if canopy_params is not None and initial_centroids is not None:
        raise InvalidInputError(
            f"{variant.value} takes no canopy_params when started from initial_centroids"
        )
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
        given = initial_centroids.centroids
        if given.shape != (k, data.n_dims):
            raise InvalidInputError(
                f"initial centroids have shape {given.shape}, expected ({k}, {data.n_dims})"
            )
        # Like every centroid the engine makes, so every NICV stays finite.
        if not ((given >= 0.0) & (given <= 1.0)).all():
            raise InvalidInputError("initial centroids must lie in the unit cube [0, 1]^d")
    if not variant.spends_epsilon:
        if epsilon is not None:
            raise InvalidInputError(f"{variant.value} spends no budget; pass epsilon=None")
    else:
        if epsilon is None or not 0.0 < epsilon < np.inf:
            raise InvalidInputError(
                f"variant {variant.value} needs a positive finite epsilon, got {epsilon}"
            )
        if planner_inputs is not None and planner_inputs.epsilon_total != epsilon:
            raise InvalidInputError(
                "planner_inputs.epsilon_total disagrees with the epsilon argument"
            )

    t_start = time.perf_counter()
    notes: list[str] = []
    plan: BudgetPlan | None = None
    if variant.takes_planner_inputs:
        planner_inputs = planner_inputs or PlannerInputs(
            n_rows=data.n_rows, n_dims=data.n_dims, k=k, epsilon_total=epsilon
        )
        plan = make_plan(planner_inputs)
        first = 2 if variant.has_canopy_start else 1
        steps = [(t, plan.epsilon_per_iter) for t in range(first, plan.iterations + 1)]
        stop = None
    elif variant.spends_epsilon:
        steps = [(t, epsilon / 2.0 ** (t + 1)) for t in range(1, RU_MAX_ITERS + 1)]
        stop = (RU_SHIFT_TOL, "converged at iteration {t} (shift {shift:.3g})")
    else:
        steps = [(t, None) for t in range(1, config.nonprivate_max_iters + 1)]
        stop = (NONPRIVATE_SHIFT_TOL, "converged at iteration {t}")

    boundary = _Boundary(data, config, epsilon)
    try:
        init_budget, init_draws = None, 0
        if initial_centroids is not None:
            start = initial_centroids.centroids
            notes.append("started from supplied centroids")
        elif variant.has_canopy_start:
            canopy_params = canopy_params or CanopyParams()
            init_budget = None if plan is None else plan.epsilon_per_iter
            start, init_draws, init_notes = boundary.canopy_start(k, canopy_params, init_budget)
            notes.extend(init_notes)
        else:
            start = boundary.random_rows(k)

        trace = [
            {
                "iteration": steps[0][0] - 1,
                "phase": "init",
                "budget_charged": init_budget,
                "noise_draws": init_draws,
                "centroid_shift": None,
                "centroids_after": start.tolist(),
            }
        ]
        init_ms = 1e3 * (time.perf_counter() - t_start)
        iter_ms: list[float] = []
        centroids = start
        for t, epsilon in steps:
            t0 = time.perf_counter()
            new, draws, sq_dist = boundary.step(t, epsilon, centroids)
            trace[-1]["nicv_after"] = sq_dist / data.n_rows
            shift = _max_shift(centroids, new)
            iter_ms.append(1e3 * (time.perf_counter() - t0))
            trace.append(
                {
                    "iteration": t,
                    "phase": "lloyd",
                    "budget_charged": epsilon,
                    "noise_draws": draws,
                    "centroid_shift": shift,
                    "centroids_after": new.tolist(),
                }
            )
            centroids = new
            if stop is not None and shift < stop[0]:
                notes.append(stop[1].format(t=t, shift=shift))
                break
        t0 = time.perf_counter()
        sq_dist, labels = boundary.final_pass(centroids)
        trace[-1]["nicv_after"] = sq_dist / data.n_rows
        final_ms = 1e3 * (time.perf_counter() - t0)
    finally:
        boundary.close()

    ledger = boundary.ledger
    if variant is Variant.RU_DPKM:
        notes.append(f"residual budget {ledger.remaining:.6g} left by halving schedule")
    elif ledger is not None:
        ledger.assert_fully_spent()
    report = RunReport(
        variant=variant.value,
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
        config=_replay_config(config, planner_inputs, canopy_params),
        notes=notes,
        timings_ms={
            "note": "wall clock; excluded from reproducibility comparisons",
            "init_ms": init_ms,
            "iterations_ms": iter_ms,
            "final_ms": final_ms,
            "total_ms": 1e3 * (time.perf_counter() - t_start),
        },
    )
    return CentroidSet(centroids=centroids), Assignment(labels=labels), report


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
    if planner_inputs is None:
        raise InvalidInputError("run_edpdcs needs planner_inputs")
    return _run_lloyd(
        data,
        k,
        config,
        planner_inputs.epsilon_total,
        planner_inputs=planner_inputs,
        canopy_params=canopy_params,
        initial_centroids=None,
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
    the largest centroid movement drops below ``RU_SHIFT_TOL``, after at
    most ``RU_MAX_ITERS``; whatever the halving schedule leaves unspent is
    reported as residual.  NONPRIVATE runs exact Lloyd to convergence from
    noise-free canopy initialization and takes no epsilon.  Of these, only
    RF_DPKM takes ``planner_inputs`` and only NONPRIVATE ``canopy_params``,
    as :class:`Variant`'s predicates say.

    ``initial_centroids`` overrides the variant's own initialization, which
    is how like-for-like comparisons pin both runs to the same start; a
    NONPRIVATE run given them has no canopy start and refuses
    ``canopy_params``.
    """
    if config.variant is Variant.EDPDCS:
        raise InvalidInputError("use run_edpdcs for the EDPDCS variant")
    return _run_lloyd(
        data,
        k,
        config,
        epsilon,
        planner_inputs=planner_inputs,
        canopy_params=canopy_params,
        initial_centroids=initial_centroids,
    )


def _replay_config(
    config: EngineConfig,
    planner_inputs: PlannerInputs | None,
    canopy_params: CanopyParams | None,
) -> dict:
    out = {
        "threads": config.resolved_threads(),
        "nonprivate_max_iters": config.nonprivate_max_iters,
    }
    if planner_inputs is not None:
        out["planner_inputs"] = dict(vars(planner_inputs))
    if canopy_params is not None:
        out["canopy"] = dict(vars(canopy_params))
    return out
