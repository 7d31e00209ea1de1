"""Canopy pre-clustering: the data-only part of the initial-centroid selection.

Cheap single-pass canopy clustering over the rows it is given proposes
candidate regions; the k most populated canopies seed the k-means run.
This module only computes: the run's boundary
(:meth:`dpkmeans.engine._Boundary.canopy_start`) draws the subsample,
keeps the result in the dataset's store, and turns the canopies' exact
tight counts and sums into centroids, with noise under differential
privacy.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import pdist

from dpkmeans.core import InvalidInputError, as_int, rounding_margin

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
    """

    t1: float | None = None
    t2: float | None = None
    subsample_size: int = DEFAULT_SUBSAMPLE_SIZE

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "subsample_size", as_int(self.subsample_size, "subsample_size")
        )
        if self.subsample_size < 1:
            raise InvalidInputError(
                f"subsample_size must be >= 1, got {self.subsample_size}"
            )
        if (self.t1 is None) != (self.t2 is None):
            raise InvalidInputError("t1 and t2 must be overridden together")
        if self.t1 is not None and not 0.0 < self.t2 <= self.t1 < np.inf:
            raise InvalidInputError(
                f"canopy radii need 0 < t2 <= t1 < inf, got t1={self.t1}, t2={self.t2}"
            )


@dataclass
class Canopy:
    """One canopy: how many rows its seed holds loosely, and its tight rows.

    Indices refer to rows of the array handed to :func:`run_canopy`; the
    seed is the first tight member.
    """

    size: int
    tight_member_indices: np.ndarray


class CanopySummary(NamedTuple):
    """The data-only part of the canopy start (no noise).

    Attributes:
        halvings: How many times the radii were halved.
        n_canopies: Canopies made by the last pass.  Only the halving note
            reads it, so only when ``halvings > 0``; a pass after a
            halving runs to the end, while the first pass stops once its
            top k are settled.
        counts: Exact tight member counts of the top min(k, n_canopies)
            canopies in rank order.
        sums: Their exact tight coordinate sums, one row each.
    """

    halvings: int
    n_canopies: int
    counts: np.ndarray
    sums: np.ndarray


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
    stride = -(-n // _THRESHOLD_PROBE_ROWS)  # ceil division: keeps >= 2 of n >= 2 rows
    probe = points[::stride]
    mean_dist = float(pdist(probe).mean())
    if mean_dist <= 0.0:
        # All probed points coincide; fall back to a small absolute radius.
        mean_dist = 0.1
    t2 = 0.5 * mean_dist
    return 2.0 * t2, t2


def run_canopy(
    points: np.ndarray, t1: float, t2: float, top: int | None = None
) -> list[Canopy]:
    """Single-pass canopy clustering over the given rows.

    Repeatedly pops the lowest-index remaining candidate as a canopy seed,
    counts the candidates within t1 as its loose members, collects those
    within t2 as its tight members, and retires the tight members.
    Canopies are returned ranked by loose member count, largest first,
    with ties keeping creation (seed index) order.

    The tight member sets of the returned canopies partition the rows:
    disjoint by construction, and every row is retired by exactly one seed.

    Given ``top``, the pass stops as soon as no later canopy can enter the
    first ``top`` of the ranking, and returns the canopies made so far,
    ranked; their first ``top`` are those of the full pass, and their tight
    sets partition the rows retired so far.  The stop is exact: a later
    canopy's loose count is at most the number of candidates left, and it
    ranks after every earlier canopy of equal count, so once no more
    candidates are left than the ``top``-th largest loose count so far, the
    first ``top`` are final.

    Membership is that of the direct squared distance
    ``((x - s) ** 2).sum()``, bit for bit.  Each seed s gets the squared
    distances of the candidates x from one matrix-vector product,
    ||x||^2 + ||s||^2 - 2 x.s, with every ||x||^2 computed once per call.
    With S twice the largest ||x||, that value and the direct sum both lie
    within g_{d+2} S^2 of the exact squared distance (the bound of
    :func:`~dpkmeans.core.label_points`), far inside the margin ``tau`` of
    :func:`~dpkmeans.core.rounding_margin`.  So a candidate whose value is
    more than ``tau`` from both t1^2 and t2^2 falls on the same side of
    each either way (the rounded difference keeps its sign and shrinks by at
    most a factor 1 + u); the others are measured directly.  When S^2
    overflows, ``tau`` is infinite and every candidate, NaN values included,
    is measured directly.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise InvalidInputError("points must be a non-empty 2-D array")
    # A NaN seed is at distance NaN from itself, so it would never retire.
    if not np.isfinite(points).all():
        raise InvalidInputError("points contain NaN or infinite values")
    # False for NaN radii, which would otherwise retire no row and never stop.
    if not 0.0 < t2 <= t1 < np.inf:
        raise InvalidInputError(f"canopy radii need 0 < t2 <= t1 < inf, got t1={t1}, t2={t2}")
    if top is not None and top < 1:
        raise InvalidInputError(f"top must be >= 1, got {top}")

    t1_sq = t1 * t1
    t2_sq = t2 * t2
    # The candidates' rows, row indices and squared norms; ``alive`` marks
    # the rows not yet retired, and retired rows are dropped once they are
    # the majority.
    rows = points
    index = np.arange(points.shape[0], dtype=np.int64)
    sq_norms = np.einsum("ij,ij->i", rows, rows)
    tau = rounding_margin(points.shape[1], 2.0 * np.sqrt(sq_norms.max()))
    alive = np.ones(rows.shape[0], dtype=bool)
    n_alive = rows.shape[0]
    seed = 0
    largest: list[int] = []  # min-heap of the ``top`` largest loose counts
    canopies: list[Canopy] = []
    while n_alive:
        if 2 * n_alive < rows.shape[0]:
            rows, index, sq_norms = rows[alive], index[alive], sq_norms[alive]
            alive = np.ones(n_alive, dtype=bool)
            seed = 0
        seed += int(np.argmax(alive[seed:]))
        d2 = rows @ (-2.0 * rows[seed])
        d2 += sq_norms
        d2 += sq_norms[seed]
        settled = np.abs(d2 - t1_sq) > tau
        settled &= np.abs(d2 - t2_sq) > tau
        direct = np.flatnonzero(alive & ~settled)
        if direct.size:
            d2[direct] = ((rows[direct] - rows[seed]) ** 2).sum(axis=1)
        # The seed's direct distance is exactly 0, so it is always the first
        # tight member and is retired with the rest of the tight set.
        d2[seed] = 0.0
        tight = d2 <= t2_sq
        tight &= alive
        size = int(np.count_nonzero((d2 <= t1_sq) & alive))
        members = index[tight]
        canopies.append(Canopy(size, members))
        alive &= ~tight
        n_alive -= members.size
        if top is not None:
            if len(largest) < top:
                heapq.heappush(largest, size)
            else:
                heapq.heappushpop(largest, size)
            if len(largest) == top and n_alive <= largest[0]:
                break

    return sorted(canopies, key=lambda canopy: -canopy.size)


def select_initial_centroids(points: np.ndarray, k: int, params: CanopyParams) -> CanopySummary:
    """The data-only part of the canopy start over ``points``, the rows it
    is given: no draw, no noise and no store.

    Derives or takes the radii, runs the canopy pass and halves the radii
    while it yields fewer than k canopies, up to ``_MAX_THRESHOLD_RETRIES``
    times.  Returns the halving count, the canopy count and the exact tight
    member counts and sums of the top min(k, canopies found) canopies.
    """
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if params.t1 is not None:
        t1, t2 = float(params.t1), float(params.t2)
    else:
        t1, t2 = default_thresholds(points)
    # Only the top k canopies are read, unless a halving note must count them all.
    canopies = run_canopy(points, t1, t2, top=k)
    halvings = 0
    while len(canopies) < k and halvings < _MAX_THRESHOLD_RETRIES:
        t1, t2 = 0.5 * t1, 0.5 * t2
        halvings += 1
        canopies = run_canopy(points, t1, t2)

    chosen = canopies[:k]
    counts = np.array([c.tight_member_indices.shape[0] for c in chosen], np.float64)
    sums = np.vstack([points[c.tight_member_indices].sum(axis=0) for c in chosen])
    return CanopySummary(halvings, len(canopies), counts, sums)
