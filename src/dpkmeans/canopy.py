"""Canopy pre-clustering and noisy initial-centroid selection.

Cheap single-pass canopy clustering on a subsample proposes candidate
regions; the k most populated canopies seed the k-means run.  Under
differential privacy each seed centroid is the ratio of a noisy coordinate
sum to a noisy member count over the canopy's tight members, so the
initialization pass consumes one iteration's worth of budget exactly like
a Lloyd step.  Every seed of the start derives from the run's master seed:
the subsample draw from stream (0, 0), the random fill from (0, 1) and the
noise from (1, 0).
"""

from __future__ import annotations

import heapq
import logging
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from dpkmeans.core import Dataset, InvalidInputError, rounding_margin
from dpkmeans.mechanism import derive_stream_seed, noisy_mean, stream_unit_noise

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
    """

    t1: float | None = None
    t2: float | None = None
    subsample_size: int = DEFAULT_SUBSAMPLE_SIZE

    def __post_init__(self) -> None:
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


@dataclass(frozen=True, eq=False)
class _CanopySummary:
    """The data-only part of the canopy start, shared by runs (no noise).

    Exact raw-data state: it stays in the process and no report holds it.

    Attributes:
        halvings: How many times the radii were halved.
        n_canopies: Canopies made by the last pass.  Only the halving note
            reads it, so only when ``halvings > 0``; a pass after a
            halving runs to the end, while the first pass stops once its
            top k are settled.
        counts: Exact tight member counts of the top min(k, n_canopies)
            canopies in rank order (read-only).
        sums: Their exact tight coordinate sums, one row each (read-only).
    """

    halvings: int
    n_canopies: int
    counts: np.ndarray
    sums: np.ndarray


#: Summaries per dataset (hashed by identity) and per key.  Two threads may
#: compute one entry twice, with the same values.
_SUMMARIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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


def draw_subsample(data: Dataset, subsample_size: int, seed: int | None) -> np.ndarray:
    """Rows of a uniform subsample without replacement, in dataset order.

    When the dataset is no larger than the requested size the whole dataset
    is returned and no randomness is used.
    """
    n = data.n_rows
    if subsample_size >= n:
        return data.points
    rng = np.random.Generator(np.random.PCG64(seed))
    return data.points[np.sort(rng.choice(n, size=subsample_size, replace=False))]


def _canopy_summary(
    data: Dataset, k: int, params: CanopyParams, master_seed: int
) -> _CanopySummary:
    """The canopy pass's outcome for ``data``, computed once per key.

    Draws the subsample, derives or takes the radii, runs the canopy pass
    and halves the radii while it yields fewer than k canopies, up to
    ``_MAX_THRESHOLD_RETRIES`` times.  The result depends only on the data,
    k, the radii, the subsample size and, when the subsample is smaller
    than the data, the subsample seed, stream (0, 0) of ``master_seed``;
    later calls with the same dataset object and those values return the
    stored summary.
    """
    seed = None
    if params.subsample_size < data.n_rows:
        seed = derive_stream_seed(master_seed, 0, 0)
    key = (params.subsample_size, seed, params.t1, params.t2, k)
    per_data = _SUMMARIES.setdefault(data, {})
    summary = per_data.get(key)
    if summary is not None:
        return summary

    points = draw_subsample(data, params.subsample_size, seed)
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
    counts.setflags(write=False)
    sums.setflags(write=False)
    summary = _CanopySummary(halvings, len(canopies), counts, sums)
    per_data[key] = summary
    return summary


def select_initial_centroids(
    data: Dataset,
    k: int,
    params: CanopyParams,
    master_seed: int,
    epsilon_share: float | None = None,
) -> tuple[np.ndarray, int, list[str]]:
    """Pick k starting centroids from the most populated canopies.

    Returns the (k, d) start, the number of noise draws it took and the
    notes it made.

    The canopies come from :func:`_canopy_summary`.  Given an
    ``epsilon_share``, the centroids are the
    :func:`~dpkmeans.mechanism.noisy_mean` of their tight members at that
    per-statistic share.  Their noise is one sequential stream, (1, 0) of
    ``master_seed``: d + 1 draws per canopy (count first, then
    coordinates), in canopy rank order.  Without a share the exact
    tight-member means are used.

    When fewer than k canopies remain after the radius halving, the
    missing centroids are filled with uniform draws over the unit cube,
    seeded by stream (0, 1) of ``master_seed``, and a note is recorded.

    Args:
        data: Normalized dataset (required: noise scales assume [0, 1]).
        k: Number of centroids.
        params: Canopy tuning.
        master_seed: The run's master seed; every seed of the start derives
            from it.
        epsilon_share: Budget share protecting each count and each sum, or
            None for exact canopy means (no budget spent).
    """
    if not data.normalized:
        raise InvalidInputError("initial centroid selection requires normalized data")
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")

    summary = _canopy_summary(data, k, params, master_seed)
    notes: list[str] = []
    if summary.halvings:
        notes.append(
            f"canopy radii halved {summary.halvings}x to reach "
            f"{summary.n_canopies} canopies"
        )

    found, d = summary.sums.shape
    draws = 0
    if epsilon_share is not None:
        stream = stream_unit_noise(master_seed, 1, 1, k * (d + 1))[0].reshape(k, d + 1)
        rows = noisy_mean(summary.counts, summary.sums, epsilon_share, stream[:found])
        draws = found * (d + 1)
    else:
        # Bit for bit the mean of the tight rows, as ``mean`` also divides
        # their sum by their number.
        rows = summary.sums / summary.counts[:, None]

    if found < k:
        missing = k - found
        fill_seed = derive_stream_seed(master_seed, 0, 1)
        fill = np.random.Generator(np.random.PCG64(fill_seed)).random((missing, d))
        rows = np.vstack([rows, fill])
        notes.append(f"filled {missing} centroid(s) with uniform random points")
        logger.warning(
            "canopy pass produced %d < k=%d canopies; filled remainder randomly",
            found,
            k,
        )

    return rows, draws, notes
