"""Laplace mechanism, reproducible noise streams, and budget accounting.

Noise is generated by inverse-CDF transform of uniforms from a seeded
``numpy.random.Generator`` (PCG64).  Every (iteration, cluster) pair gets
its own child seed derived from the master seed, so the stream consumed by
one cluster never depends on how many partitions produced its aggregate or
on the order other clusters were processed.

A charged step perturbs all k clusters at once: it reads one (k, d + 1)
block of unit-scale Laplace draws, row j the start of cluster j's stream,
and scales it by the step's noise scale (:func:`perturb_aggregate`).
:func:`stream_unit_noise` keeps the last ``STREAM_MEMO_SIZE`` blocks it
made, already mapped through the inverse CDF at scale 1, so runs at the
same master seed, such as the cells of one ``compare`` grid, set each
stream up and map it once.  Scaling a unit draw gives the same bits as
drawing at the scale: the inverse CDF's sign factor is an exact +-1 and
rounding a product is symmetric in sign.  The memo is keyed on public
integers only and holds no data; at worst it holds ``STREAM_MEMO_SIZE``
blocks of k (d + 1) doubles, 2.7 MiB at k=20, d=16.

A run's noise is a pure function of its master seed, which the full report
prints: whoever knows the seed can subtract the noise from a released
centroid, so any released view of a run must omit the seed.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from dpkmeans.core import InvalidInputError

logger = logging.getLogger(__name__)

#: Global sensitivity of one per-cluster count under add/remove of a row,
#: and of each coordinate sum when every coordinate lies in [0, 1].  One
#: value for both, so one noise scale covers a cluster's d + 1 statistics.
SENSITIVITY = 1.0

#: Blocks kept by :func:`stream_unit_noise`.  A grid over 30 master seeds at
#: k=2 reads at most 330 distinct blocks (11 per seed).
STREAM_MEMO_SIZE = 1024

# Smallest positive double.  Clamping the inverse-CDF argument here keeps the
# log finite at the u = 0 endpoint without disturbing any other draw.
_LOG_FLOOR = 5e-324
# Above -log(_LOG_FLOOR) = 744.44, the largest magnitude of a unit draw.
_UNIT_DRAW_BOUND = 745.0


class BudgetExhaustedError(RuntimeError):
    """A phase tried to charge more privacy budget than remains."""


def derive_stream_seed(master_seed: int, iteration: int, cluster_index: int) -> int:
    """Deterministic child seed for one (iteration, cluster) noise stream.

    Uses numpy's ``SeedSequence`` spawning arithmetic so distinct key tuples
    give statistically independent streams while identical tuples always
    reproduce the same one.  Not memoized: the stream memo and the dataset
    store's random-row entries already skip its repeated calls.
    """
    if iteration < 0 or cluster_index < 0:
        raise InvalidInputError("iteration and cluster_index must be >= 0")
    seq = np.random.SeedSequence([int(master_seed), int(iteration), int(cluster_index)])
    return int(seq.generate_state(1, np.uint64)[0])


def laplace_inverse_cdf(u: np.ndarray, scale: float) -> np.ndarray:
    """Map uniforms in [0, 1) to Laplace(0, scale) via the inverse CDF."""
    if not 0.0 < scale < np.inf:
        raise InvalidInputError(f"scale must be positive and finite, got {scale}")
    u = np.asarray(u, dtype=np.float64)
    w = 1.0 - 2.0 * np.abs(u - 0.5)
    return -scale * np.sign(u - 0.5) * np.log(np.maximum(w, _LOG_FLOOR))


@functools.lru_cache(maxsize=STREAM_MEMO_SIZE)
def stream_unit_noise(master_seed: int, iteration: int, n_streams: int, n: int) -> np.ndarray:
    """The first ``n`` Laplace draws at scale 1 of the streams (iteration,
    0 .. n_streams - 1), read-only.

    Row j of the (n_streams, n) result is ``laplace_inverse_cdf`` at scale 1
    of what ``Generator(PCG64(derive_stream_seed(master_seed, iteration,
    j))).random(n)`` returns.  Memoized: repeated keys return the same array.
    """
    if n_streams < 0 or n < 0:
        raise InvalidInputError(f"need n_streams, n >= 0, got {n_streams}, {n}")
    uniforms = np.empty((n_streams, n))
    for j in range(n_streams):
        seed = derive_stream_seed(master_seed, iteration, j)
        uniforms[j] = np.random.Generator(np.random.PCG64(seed)).random(n)
    out = laplace_inverse_cdf(uniforms, 1.0)
    out.setflags(write=False)
    return out


def perturb_aggregate(
    counts: np.ndarray, sums: np.ndarray, epsilon_share: float, unit_noise: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Add calibrated Laplace noise to k clusters' counts and coordinate sums.

    Row j of the (k, d + 1) ``unit_noise`` is cluster j's noise: column 0
    perturbs its count and columns 1 .. d its sums, in dimension order, all
    scaled to ``SENSITIVITY / epsilon_share``.  That order is part of the
    reproducibility contract.

    Args:
        counts: Exact per-cluster counts, shape (k,).
        sums: Exact per-cluster coordinate sums, shape (k, d).
        epsilon_share: Budget share protecting each count and each sum.
        unit_noise: Laplace draws at scale 1 (:func:`stream_unit_noise`),
            one row per cluster's own stream.

    Returns:
        New noisy (counts, sums); the inputs are not modified.

    Raises:
        InvalidInputError: ``epsilon_share`` is not positive and finite, or
            is so small that a scaled draw could overflow to infinity.
    """
    if not 0.0 < epsilon_share < np.inf:
        raise InvalidInputError(
            f"epsilon share must be positive and finite, got {epsilon_share}"
        )
    scale = SENSITIVITY / epsilon_share
    if scale * _UNIT_DRAW_BOUND == np.inf:
        raise InvalidInputError(
            f"epsilon share {epsilon_share} is too small: its noise overflows"
        )
    k, d = sums.shape
    if counts.shape != (k,) or unit_noise.shape != (k, d + 1):
        raise InvalidInputError(
            f"need ({k},) counts and ({k}, {d + 1}) noise for ({k}, {d}) sums, "
            f"got {counts.shape} and {unit_noise.shape}"
        )
    noise = unit_noise * scale
    return counts + noise[:, 0], sums + noise[:, 1:]


def noisy_mean(
    counts: np.ndarray, sums: np.ndarray, epsilon_share: float, unit_noise: np.ndarray
) -> np.ndarray:
    """The k released centroids: noisy sums over noisy counts.

    The statistics are perturbed by :func:`perturb_aggregate`; each noisy
    count is floored at 1, so a cluster that noise empties cannot blow up
    its mean, and the means are clipped back into the unit cube.
    """
    noisy_counts, noisy_sums = perturb_aggregate(counts, sums, epsilon_share, unit_noise)
    means = noisy_sums / np.maximum(noisy_counts, 1.0)[:, None]
    # np.clip(means, 0.0, 1.0) without its wrapper's overhead.  The bound
    # goes first so that -0.0 stays -0.0, as it does under np.clip.
    np.maximum(0.0, means, out=means)
    return np.minimum(means, 1.0, out=means)


@dataclass
class BudgetLedger:
    """Append-only record of privacy-budget charges for one run.

    Charges are validated against the total with a small floating-point
    slack so that T charges of epsilon/T, accumulated left to right, are
    accepted as spending exactly the total.
    """

    total: float
    entries: list[tuple[str, float]] = field(default_factory=list)

    #: Relative slack allowed on the "spent <= total" check (scaled by the
    #: total, floored at 1, so huge budgets tolerate their rounding).
    SLACK = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.total < np.inf:
            raise InvalidInputError(
                f"total budget must be positive and finite, got {self.total}"
            )

    @property
    def spent(self) -> float:
        acc = 0.0
        for _, amount in self.entries:
            acc += amount
        return acc

    @property
    def remaining(self) -> float:
        return self.total - self.spent

    def _slack(self, rel: float) -> float:
        return rel * max(1.0, self.total)

    def charge(self, phase: str, amount: float) -> "BudgetLedger":
        """Record a charge; raises :class:`BudgetExhaustedError` on overdraft."""
        if not 0.0 < amount < np.inf:
            raise InvalidInputError(f"charge must be positive and finite, got {amount}")
        projected = self.spent + amount
        if projected > self.total + self._slack(self.SLACK):
            raise BudgetExhaustedError(
                f"charging {amount:.6g} for {phase!r} would spend "
                f"{projected:.6g} of total {self.total:.6g}"
            )
        self.entries.append((phase, amount))
        return self

    def assert_fully_spent(self, tol: float = 1e-9) -> None:
        """Verify the run consumed its whole budget (within relative ``tol``)."""
        if abs(self.remaining) > self._slack(tol):
            raise BudgetExhaustedError(
                f"budget not fully spent: remaining {self.remaining:.6g} "
                f"of {self.total:.6g}"
            )
