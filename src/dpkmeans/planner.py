"""Closed-form privacy-budget planning for noisy k-means.

The planner answers two questions before any data is touched:

1. What is the smallest per-iteration budget ``epsilon_m`` that keeps the
   expected squared centroid error (noisy vs. exact means) below a target
   threshold?  This has a closed form in the dataset shape (N, d), the
   cluster count k, and a cluster-imbalance factor rho.
2. Given a total budget, how many Lloyd iterations T should the run buy so
   each iteration stays above that minimum?

Every iteration then receives ``epsilon / T``, split uniformly across the
per-cluster count and the d coordinate sums (d + 1 shares).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from dpkmeans.core import InvalidInputError, as_int

logger = logging.getLogger(__name__)

#: Default cluster-imbalance factor: standard deviation of cluster sizes
#: relative to the balanced size N/k.  0 means perfectly balanced.
DEFAULT_RHO = 0.225

#: Default ceiling on the modelled expected squared centroid error, summed
#: over all k clusters and d coordinates (see :func:`minimal_iteration_budget`).
DEFAULT_MSE_THRESHOLD = 0.01

#: Default cap on the iteration count.
DEFAULT_T_CAP = 7


@dataclass(frozen=True)
class PlannerInputs:
    """Everything the budget planner needs to know about a run.

    Attributes:
        n_rows: Dataset size N.
        n_dims: Feature count d.
        k: Number of clusters.
        epsilon_total: Total privacy budget for the whole run.
        rho: Relative standard deviation of cluster sizes (>= 0).
        mse_threshold: Ceiling on the modelled expected squared centroid
            error, summed over all k clusters and d coordinates, used to
            derive the minimum per-iteration budget.
        t_cap: Maximum number of iterations a plan may schedule.
        epsilon_m_override: Optional externally supplied minimum
            per-iteration budget.  When set it replaces the computed value
            (the computed one is still reported for comparison).
    """

    n_rows: int
    n_dims: int
    k: int
    epsilon_total: float
    rho: float = DEFAULT_RHO
    mse_threshold: float = DEFAULT_MSE_THRESHOLD
    t_cap: int = DEFAULT_T_CAP
    epsilon_m_override: float | None = None

    def __post_init__(self) -> None:
        for name in ("n_rows", "n_dims", "k", "t_cap"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.k < 1:
            raise InvalidInputError(f"k must be >= 1, got {self.k}")
        if self.n_rows < self.k:
            raise InvalidInputError(
                f"need at least k={self.k} rows, got {self.n_rows}"
            )
        if self.n_dims < 1:
            raise InvalidInputError(f"n_dims must be >= 1, got {self.n_dims}")
        # Chained comparisons are false for NaN, so these also refuse NaN and inf.
        if not 0.0 < self.epsilon_total < math.inf:
            raise InvalidInputError(
                f"epsilon_total must be positive and finite, got {self.epsilon_total}"
            )
        if not 0.0 <= self.rho < math.inf:
            raise InvalidInputError(f"rho must be >= 0 and finite, got {self.rho}")
        if not 0.0 < self.mse_threshold < math.inf:
            raise InvalidInputError(
                f"mse_threshold must be positive and finite, got {self.mse_threshold}"
            )
        if self.t_cap < 2:
            raise InvalidInputError(f"t_cap must be >= 2, got {self.t_cap}")
        if self.epsilon_m_override is not None and not (
            0.0 < self.epsilon_m_override < math.inf
        ):
            raise InvalidInputError(
                f"epsilon_m_override must be positive and finite, got {self.epsilon_m_override}"
            )


@dataclass(frozen=True)
class BudgetPlan:
    """Concrete budget schedule produced by :func:`make_plan`.

    Attributes:
        epsilon_total: Total budget the plan distributes.
        epsilon_m: Minimum per-iteration budget actually used to choose T
            (the override when one was supplied).
        epsilon_m_computed: Closed-form value, always reported.
        iterations: Number of Lloyd iterations T (the initialization pass
            counts as the first one).
        epsilon_per_iter: epsilon_total / T, charged per iteration.
        epsilon_dim: Per-coordinate-sum share, epsilon_per_iter / (d + 1).
        epsilon_count: Per-count share; equal to epsilon_dim under the
            uniform split.
    """

    epsilon_total: float
    epsilon_m: float
    epsilon_m_computed: float
    iterations: int
    epsilon_per_iter: float
    epsilon_dim: float
    epsilon_count: float

    def to_dict(self) -> dict:
        return dict(vars(self))


def minimal_iteration_budget(inputs: PlannerInputs) -> float:
    """Smallest per-iteration budget meeting the planner's error threshold.

    The error model is first order.  Each cluster's d coordinate sums get
    Laplace noise at scale (d + 1) / epsilon, of variance
    2 (d + 1)^2 / epsilon^2, so one coordinate of a mean over the balanced
    size N/k has an expected squared error of
    2 k^2 (1 + d)^2 / (N^2 epsilon^2).  Summed over the d coordinates of all
    k clusters, and inflated by (1 + rho^2) for the imbalance factor rho,
    the model's error is the total

        2 k^3 d (1 + d)^2 (1 + rho^2) / (N^2 epsilon^2),

    not the error of one cluster or of one coordinate.  The count's own
    noise is not in the model.  At rho > 0 the (1 + rho^2) factor
    understates the error of unequal clusters: it is below the mean of
    (n_bar / n_j)^2 over the cluster sizes n_j, which is 1.165 for sizes
    458 and 290, where 1 + rho^2 is 1.05.  A draw through ``noisy_mean``
    at those sizes, every true coordinate at 0.5, read 1.40 times the
    model (ROADMAP item 11).  Setting the total to the threshold gives
    the closed form:

        epsilon_m = sqrt( (2 / threshold) * k^3 * d * (1 + d)^2
                          * (1 + rho^2) / N^2 )

    With the default threshold of 0.01 the leading constant is 200.
    """
    k, d, n = inputs.k, inputs.n_dims, inputs.n_rows
    num = (2.0 / inputs.mse_threshold) * k**3 * d * (1.0 + d) ** 2 * (1.0 + inputs.rho**2)
    return math.sqrt(num / n**2)


def iteration_count(epsilon_total: float, epsilon_m: float, t_cap: int = DEFAULT_T_CAP) -> int:
    """Number of iterations a total budget can afford.

    Rules, in order:

    - if ``epsilon_total <= 2 * epsilon_m`` the run gets exactly 2
      iterations (initialization plus one refinement), accepting a noisier
      result rather than giving up;
    - otherwise T = floor(epsilon_total / epsilon_m), clamped to
      [2, t_cap].
    """
    # Chained comparisons are false for NaN, so these also refuse NaN and inf.
    if not (0.0 < epsilon_total < math.inf and 0.0 < epsilon_m < math.inf):
        raise InvalidInputError(
            f"budgets must be positive and finite, got {epsilon_total} and {epsilon_m}"
        )
    t_cap = as_int(t_cap, "t_cap")
    if t_cap < 2:
        raise InvalidInputError(f"t_cap must be >= 2, got {t_cap}")
    if epsilon_total <= 2.0 * epsilon_m:
        return 2
    return max(2, min(t_cap, int(math.floor(epsilon_total / epsilon_m))))


def make_plan(inputs: PlannerInputs) -> BudgetPlan:
    """Build the full budget schedule for one run.

    Neighbouring datasets differ by adding or removing one row.  That row
    lies in [0, 1]^d and joins one cluster, so it changes one count by 1
    and that cluster's d coordinate sums by at most 1 each: an iteration's
    released statistics have L1 sensitivity d + 1, and the d + 1 shares of
    ``epsilon / T`` spend ``epsilon / T`` per iteration.  Under replace-one
    neighbours a row can leave one cluster and join another, which doubles
    the sensitivity to 2 (d + 1), so the same plan protects only
    2 * epsilon.

    When an override for epsilon_m is supplied and disagrees with the
    closed form by more than 1%, the discrepancy is logged (the override
    still wins; it exists precisely to reproduce externally published
    schedules).
    """
    computed = minimal_iteration_budget(inputs)
    epsilon_m = computed
    if inputs.epsilon_m_override is not None:
        epsilon_m = inputs.epsilon_m_override
        rel = abs(epsilon_m - computed) / computed
        if rel > 0.01:
            logger.warning(
                "epsilon_m override %.6g differs from computed %.6g by %.1f%%",
                epsilon_m,
                computed,
                100.0 * rel,
            )
    t = iteration_count(inputs.epsilon_total, epsilon_m, inputs.t_cap)
    per_iter = inputs.epsilon_total / t
    share = per_iter / (inputs.n_dims + 1)
    return BudgetPlan(
        epsilon_total=inputs.epsilon_total,
        epsilon_m=epsilon_m,
        epsilon_m_computed=computed,
        iterations=t,
        epsilon_per_iter=per_iter,
        epsilon_dim=share,
        epsilon_count=share,
    )
