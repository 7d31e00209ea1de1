"""Laplace mechanism, reproducible noise streams, and budget accounting.

Noise is generated by inverse-CDF transform of uniforms from a seeded
``numpy.random.Generator`` (PCG64).  Every (iteration, cluster) pair gets
its own child seed derived from the master seed, so the stream consumed by
one cluster never depends on how many partitions produced its aggregate or
on the order other clusters were processed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from dpkmeans.core import ClusterAggregate, InvalidInputError

logger = logging.getLogger(__name__)

#: Global sensitivity of one per-cluster count under add/remove of a row.
COUNT_SENSITIVITY = 1.0
#: Global sensitivity of one per-cluster coordinate sum; valid only when
#: every coordinate lies in [0, 1].
SUM_SENSITIVITY = 1.0

# Smallest positive double.  Clamping the inverse-CDF argument here keeps the
# log finite at the u = 0 endpoint without disturbing any other draw.
_LOG_FLOOR = 5e-324


class BudgetExhaustedError(RuntimeError):
    """A phase tried to charge more privacy budget than remains."""


def derive_stream_seed(master_seed: int, iteration: int, cluster_index: int) -> int:
    """Deterministic child seed for one (iteration, cluster) noise stream.

    Uses numpy's ``SeedSequence`` spawning arithmetic so distinct key tuples
    give statistically independent streams while identical tuples always
    reproduce the same one.
    """
    if iteration < 0 or cluster_index < 0:
        raise InvalidInputError("iteration and cluster_index must be >= 0")
    seq = np.random.SeedSequence([int(master_seed), int(iteration), int(cluster_index)])
    return int(seq.generate_state(1, np.uint64)[0])


def laplace_inverse_cdf(u: np.ndarray, scale: float) -> np.ndarray:
    """Map uniforms in [0, 1) to Laplace(0, scale) via the inverse CDF."""
    u = np.asarray(u, dtype=np.float64)
    w = 1.0 - 2.0 * np.abs(u - 0.5)
    return -scale * np.sign(u - 0.5) * np.log(np.maximum(w, _LOG_FLOOR))


@dataclass
class LaplaceSampler:
    """Seeded Laplace noise source that counts its own draws.

    Attributes:
        rng_seed: Seed of the underlying PCG64 generator.
        draw_count: Total variates produced so far (audit aid).
    """

    rng_seed: int
    draw_count: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.Generator(np.random.PCG64(self.rng_seed))

    def draw_many(self, n: int, scale: float) -> np.ndarray:
        """Draw ``n`` independent Laplace(0, scale) variates."""
        if not 0.0 < scale < np.inf:
            raise InvalidInputError(f"scale must be positive and finite, got {scale}")
        if n < 0:
            raise InvalidInputError(f"n must be >= 0, got {n}")
        u = self._rng.random(n)
        self.draw_count += n
        return laplace_inverse_cdf(u, scale)

    def draw(self, scale: float) -> float:
        """Draw a single Laplace(0, scale) variate.

        Delegates to :meth:`draw_many` so scalar and vector callers consume
        the uniform stream identically.
        """
        return float(self.draw_many(1, scale)[0])


def perturb_aggregate(
    aggregate: ClusterAggregate, epsilon_share: float, sampler: LaplaceSampler
) -> ClusterAggregate:
    """Add calibrated Laplace noise to a cluster's count and coordinate sums.

    The count is perturbed first with one draw at scale
    ``COUNT_SENSITIVITY / epsilon_share``, then each coordinate sum with one
    draw at ``SUM_SENSITIVITY / epsilon_share``, in dimension order.  The
    draw order is part of the reproducibility contract.

    Args:
        aggregate: Exact per-cluster statistics.
        epsilon_share: Budget share protecting the count and each sum.
        sampler: Noise stream dedicated to this (iteration, cluster) pair.

    Returns:
        A new noisy aggregate; the input is not modified.
    """
    if not 0.0 < epsilon_share < np.inf:
        raise InvalidInputError(
            f"epsilon share must be positive and finite, got {epsilon_share}"
        )
    noisy_count = aggregate.count + sampler.draw(COUNT_SENSITIVITY / epsilon_share)
    noise = sampler.draw_many(aggregate.sums.shape[0], SUM_SENSITIVITY / epsilon_share)
    return ClusterAggregate(
        cluster_index=aggregate.cluster_index,
        count=noisy_count,
        sums=aggregate.sums + noise,
    )


def noisy_mean(
    aggregate: ClusterAggregate, epsilon_share: float, sampler: LaplaceSampler
) -> np.ndarray:
    """A cluster's released centroid: its noisy sums over its noisy count.

    The aggregate is perturbed by :func:`perturb_aggregate`; the noisy count
    is floored at 1, so a cluster that noise empties cannot blow up the
    mean, and the mean is clipped back into the unit cube.
    """
    noisy = perturb_aggregate(aggregate, epsilon_share, sampler)
    return np.clip(noisy.sums / max(noisy.count, 1.0), 0.0, 1.0)


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
