"""Differentially private k-means clustering with explicit budget planning.

The package is organized around a small pipeline:

- :mod:`dpkmeans.ingestion` loads CSV data and min-max normalizes features,
- :mod:`dpkmeans.planner` turns a total privacy budget into a per-iteration
  allocation with a closed-form iteration count,
- :mod:`dpkmeans.canopy` finds the canopy pre-clusters that seed the
  initial centroids,
- :mod:`dpkmeans.engine` runs partitioned Lloyd iterations with Laplace
  noise injected at the reduce step and reports each run,
- :mod:`dpkmeans.evaluation` scores runs (NICV) and drives multi-variant
  comparisons.
"""

from dpkmeans.core import Assignment, CentroidSet, Dataset, InvalidInputError
from dpkmeans.engine import EngineConfig, RunReport, Variant, run_baseline, run_edpdcs
from dpkmeans.evaluation import compare_variants, nicv
from dpkmeans.mechanism import BudgetExhaustedError, BudgetLedger
from dpkmeans.planner import BudgetPlan, PlannerInputs, make_plan

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BudgetExhaustedError",
    "BudgetLedger",
    "BudgetPlan",
    "CentroidSet",
    "Dataset",
    "EngineConfig",
    "InvalidInputError",
    "PlannerInputs",
    "RunReport",
    "Variant",
    "compare_variants",
    "make_plan",
    "nicv",
    "run_baseline",
    "run_edpdcs",
    "__version__",
]
