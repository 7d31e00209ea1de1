"""Canopy pre-clustering and noisy initial-centroid selection.

Cheap single-pass canopy clustering on a subsample proposes candidate
regions; the k most populated canopies seed the k-means run.  Under
differential privacy each seed centroid is the ratio of a noisy coordinate
sum to a noisy member count over the canopy's tight members, so the
initialization pass consumes one iteration's worth of budget exactly like
a Lloyd step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.spatial.distance import pdist

from dpkmeans.core import CentroidSet, ClusterAggregate, Dataset, InvalidInputError
from dpkmeans.mechanism import LaplaceSampler, perturb_aggregate
from dpkmeans.planner import BudgetPlan

logger = logging.getLogger(__name__)

#: Default cap on how many rows the canopy pass looks at.
DEFAULT_SUBSAMPLE_SIZE = 20_000

#: Rows used to estimate the mean pairwise distance when deriving default
#: thresholds (keeps the O(n^2) distance matrix small).
_THRESHOLD_PROBE_ROWS = 2_048

#: How many times thresholds are halved looking for at least k canopies
#: before falling back to random fill-in.
_MAX_THRESHOLD_RETRIES = 3


@dataclass(frozen=True)
class CanopyParams:
    """Tuning knobs for the canopy pass.

    Attributes:
        t1: Loose membership radius.  None derives a default from the data.
        t2: Tight membership radius (t2 <= t1).  None derives a default.
        subsample_size: Maximum rows examined by the canopy pass.
        seed: Seed for the subsample draw.  Must be resolved (non-None)
            before :func:`select_initial_centroids` is called; the engine
            derives it from the run's master seed.
    """

    t1: float | None = None
    t2: float | None = None
    subsample_size: int = DEFAULT_SUBSAMPLE_SIZE
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.subsample_size < 1:
            raise InvalidInputError(
                f"subsample_size must be >= 1, got {self.subsample_size}"
            )
        if (self.t1 is None) != (self.t2 is None):
            raise InvalidInputError("t1 and t2 must be overridden together")
        if self.t1 is not None:
            if self.t1 <= 0.0 or self.t2 <= 0.0:
                raise InvalidInputError("canopy thresholds must be positive")
            if self.t2 > self.t1:
                raise InvalidInputError(
                    f"tight radius t2={self.t2} must not exceed loose radius t1={self.t1}"
                )


@dataclass
class Canopy:
    """One canopy: a seed row plus its loose and tight members.

    Indices refer to rows of the array handed to :func:`run_canopy`.
    """

    seed_index: int
    center: np.ndarray
    member_indices: np.ndarray
    tight_member_indices: np.ndarray

    @property
    def size(self) -> int:
        return int(self.member_indices.shape[0])


@dataclass
class InitResult:
    """Outcome of initial-centroid selection."""

    centroids: CentroidSet
    canopies: list[Canopy]
    t1: float
    t2: float
    subsample_rows: int
    noise_draws: int = 0
    notes: list[str] = field(default_factory=list)


def default_thresholds(points: np.ndarray) -> tuple[float, float]:
    """Data-driven canopy radii: t2 = half the mean pairwise distance, t1 = 2 t2.

    The mean pairwise distance is estimated on an evenly strided probe of at
    most a couple thousand rows so the quadratic distance computation stays
    cheap on large subsamples.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < 2:
        raise InvalidInputError("need at least 2 points to derive canopy thresholds")
    stride = max(1, -(-n // _THRESHOLD_PROBE_ROWS))  # ceil division
    probe = points[::stride]
    if probe.shape[0] < 2:
        probe = points[:2]
    mean_dist = float(pdist(probe).mean())
    if mean_dist <= 0.0:
        # All probed points coincide; fall back to a small absolute radius.
        mean_dist = 0.1
    t2 = 0.5 * mean_dist
    return 2.0 * t2, t2


def run_canopy(points: np.ndarray, t1: float, t2: float) -> list[Canopy]:
    """Single-pass canopy clustering over the given rows.

    Repeatedly pops the lowest-index remaining candidate as a canopy seed,
    collects every candidate within t1 as a loose member and every
    candidate within t2 as a tight member, and retires the tight members.
    Canopies are returned ranked by loose member count, largest first,
    with ties keeping creation (seed index) order.

    The tight member sets of the returned canopies partition the rows:
    disjoint by construction, and every row is retired by exactly one seed.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise InvalidInputError("points must be a non-empty 2-D array")
    if t2 > t1 or t1 <= 0.0 or t2 <= 0.0:
        raise InvalidInputError(f"invalid canopy radii t1={t1}, t2={t2}")

    t1_sq = t1 * t1
    t2_sq = t2 * t2
    candidates = np.arange(points.shape[0], dtype=np.int64)
    canopies: list[Canopy] = []
    while candidates.size:
        seed = int(candidates[0])
        center = points[seed]
        d2 = ((points[candidates] - center) ** 2).sum(axis=1)
        loose_mask = d2 <= t1_sq
        tight_mask = d2 <= t2_sq
        # The seed is at distance 0, so it is always a tight member and is
        # retired with the rest of the tight set.
        canopies.append(
            Canopy(
                seed_index=seed,
                center=center.copy(),
                member_indices=candidates[loose_mask].copy(),
                tight_member_indices=candidates[tight_mask].copy(),
            )
        )
        candidates = candidates[~tight_mask]

    return rank_canopies(canopies)


def rank_canopies(canopies: Sequence[Canopy]) -> list[Canopy]:
    """Order canopies by loose member count, largest first.

    Ties keep the input (creation) order, so the earlier-created canopy
    wins.
    """
    order = sorted(range(len(canopies)), key=lambda i: (-canopies[i].size, i))
    return [canopies[i] for i in order]


def draw_subsample(
    data: Dataset, subsample_size: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform row subsample without replacement, returned in dataset order.

    Returns (points, row_indices).  When the dataset is no larger than the
    requested size the whole dataset is returned and no randomness is used.
    """
    n = data.n_rows
    if subsample_size >= n:
        idx = np.arange(n, dtype=np.int64)
        return data.points, idx
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.choice(n, size=subsample_size, replace=False)
    idx = np.sort(idx).astype(np.int64)
    return data.points[idx], idx


def _noisy_canopy_centroid(
    points: np.ndarray,
    canopy: Canopy,
    epsilon_count: float,
    epsilon_dim: float,
    sampler: LaplaceSampler,
) -> np.ndarray:
    """Noisy mean of a canopy's tight members (ratio of noisy sum to noisy count)."""
    tight = points[canopy.tight_member_indices]
    agg = ClusterAggregate(
        cluster_index=canopy.seed_index,
        count=float(tight.shape[0]),
        sums=tight.sum(axis=0),
    )
    noisy = perturb_aggregate(agg, epsilon_count, epsilon_dim, sampler)
    denom = max(noisy.count, 1.0)
    return np.clip(noisy.sums / denom, 0.0, 1.0)


def select_initial_centroids(
    data: Dataset,
    k: int,
    params: CanopyParams,
    plan: BudgetPlan | None,
    sampler: LaplaceSampler | None,
    *,
    dp_enabled: bool = True,
    fill_seed: int | None = None,
) -> InitResult:
    """Pick k starting centroids from the most populated canopies.

    Under ``dp_enabled`` each centroid is a noisy tight-member mean costing
    d + 1 Laplace draws from ``sampler`` (count first, then coordinates, in
    canopy rank order), calibrated to the plan's per-iteration shares.
    Without privacy the exact tight-member means are used.

    When the canopy pass yields fewer than k canopies, the radii are halved
    and the pass retried a few times; any still-missing centroids are
    filled with seeded uniform draws over the unit cube and a note is
    recorded.

    Args:
        data: Normalized dataset (required: noise scales assume [0, 1]).
        k: Number of centroids.
        params: Canopy tuning; ``params.seed`` must be resolved.
        plan: Budget schedule; required when ``dp_enabled``.
        sampler: Noise stream for the initialization pass; required when
            ``dp_enabled``.
        dp_enabled: Disable to get exact canopy means (no budget spent).
        fill_seed: Seed for the random fill-in fallback; defaults to a
            value derived from ``params.seed``.
    """
    if not data.normalized:
        raise InvalidInputError("initial centroid selection requires normalized data")
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if params.seed is None:
        raise InvalidInputError("params.seed must be resolved before initialization")
    if dp_enabled and (plan is None or sampler is None):
        raise InvalidInputError("dp-enabled initialization needs a plan and a sampler")

    points, _ = draw_subsample(data, params.subsample_size, params.seed)
    if params.t1 is not None:
        t1, t2 = float(params.t1), float(params.t2)
    else:
        t1, t2 = default_thresholds(points)

    notes: list[str] = []
    canopies = run_canopy(points, t1, t2)
    retries = 0
    while len(canopies) < k and retries < _MAX_THRESHOLD_RETRIES:
        t1, t2 = 0.5 * t1, 0.5 * t2
        retries += 1
        canopies = run_canopy(points, t1, t2)
    if retries:
        notes.append(
            f"canopy radii halved {retries}x to reach {len(canopies)} canopies"
        )

    chosen = canopies[:k]
    start_draws = sampler.draw_count if sampler is not None else 0
    rows = []
    for canopy in chosen:
        if dp_enabled:
            rows.append(
                _noisy_canopy_centroid(
                    points, canopy, plan.epsilon_count, plan.epsilon_dim, sampler
                )
            )
        else:
            rows.append(points[canopy.tight_member_indices].mean(axis=0))

    if len(rows) < k:
        missing = k - len(rows)
        seed = fill_seed if fill_seed is not None else params.seed + 1
        rng = np.random.Generator(np.random.PCG64(seed))
        rows.extend(rng.random(data.n_dims) for _ in range(missing))
        notes.append(f"filled {missing} centroid(s) with uniform random points")
        logger.warning(
            "canopy pass produced %d < k=%d canopies; filled remainder randomly",
            len(chosen),
            k,
        )

    draws = (sampler.draw_count - start_draws) if sampler is not None else 0
    return InitResult(
        centroids=CentroidSet(centroids=np.vstack(rows), noisy=dp_enabled),
        canopies=chosen,
        t1=t1,
        t2=t2,
        subsample_rows=points.shape[0],
        noise_draws=draws,
        notes=notes,
    )


def with_resolved_seed(params: CanopyParams, seed: int) -> CanopyParams:
    """Copy of ``params`` with the subsample seed filled in when missing."""
    if params.seed is not None:
        return params
    return replace(params, seed=seed)
