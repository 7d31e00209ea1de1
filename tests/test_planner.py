import logging
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpkmeans.core import InvalidInputError
from dpkmeans.planner import (
    DEFAULT_RHO,
    BudgetPlan,
    PlannerInputs,
    iteration_count,
    make_plan,
    minimal_iteration_budget,
)

BLOOD = dict(n_rows=748, n_dims=4, k=2)
ADULT = dict(n_rows=48842, n_dims=6, k=5)

# Externally published schedule constants for the two reference shapes.
BLOOD_EPS_M = 0.65508
ADULT_EPS_M = 0.06799


def _eps_m_decimal(k, d, n, rho, threshold):
    """High-precision independent evaluation of the closed form."""
    getcontext().prec = 50
    num = (
        (Decimal(2) / Decimal(str(threshold)))
        * Decimal(k) ** 3
        * Decimal(d)
        * (1 + Decimal(d)) ** 2
        * (1 + Decimal(str(rho)) ** 2)
    )
    return float((num / Decimal(n) ** 2).sqrt())


class TestMinimalIterationBudget:
    def test_unit_example(self):
        inputs = PlannerInputs(
            n_rows=1000, n_dims=1, k=1, epsilon_total=1.0, rho=0.0
        )
        assert minimal_iteration_budget(inputs) == pytest.approx(
            math.sqrt(8e-4), rel=1e-12
        )
        assert minimal_iteration_budget(inputs) == pytest.approx(0.028284, abs=1e-6)

    @pytest.mark.parametrize(
        "shape, approx",
        [(BLOOD, 0.5481), (ADULT, 0.0569)],
        ids=["blood-shape", "adult-shape"],
    )
    def test_reference_shapes_match_independent_oracle(self, shape, approx):
        inputs = PlannerInputs(epsilon_total=1.0, **shape)
        got = minimal_iteration_budget(inputs)
        oracle = _eps_m_decimal(
            shape["k"], shape["n_dims"], shape["n_rows"], 0.225, 0.01
        )
        assert got == pytest.approx(oracle, abs=1e-10)
        assert got == pytest.approx(approx, abs=5e-5)

    @pytest.mark.parametrize("k_pair", [(1, 2), (2, 5), (3, 9)])
    def test_increasing_in_k(self, k_pair):
        lo, hi = k_pair
        base = dict(n_rows=5000, n_dims=4, epsilon_total=1.0)
        assert minimal_iteration_budget(
            PlannerInputs(k=lo, **base)
        ) < minimal_iteration_budget(PlannerInputs(k=hi, **base))

    def test_increasing_in_d_and_decreasing_in_n(self):
        assert minimal_iteration_budget(
            PlannerInputs(n_rows=5000, n_dims=2, k=3, epsilon_total=1.0)
        ) < minimal_iteration_budget(
            PlannerInputs(n_rows=5000, n_dims=6, k=3, epsilon_total=1.0)
        )
        assert minimal_iteration_budget(
            PlannerInputs(n_rows=20000, n_dims=4, k=3, epsilon_total=1.0)
        ) < minimal_iteration_budget(
            PlannerInputs(n_rows=5000, n_dims=4, k=3, epsilon_total=1.0)
        )

    def test_mse_round_trip_identity(self):
        # The error model minimal_iteration_budget inverts, at eps = 0.375.
        eps = 0.375
        k, d, n, rho = BLOOD["k"], BLOOD["n_dims"], BLOOD["n_rows"], DEFAULT_RHO
        implied = 2.0 * k**3 * d * (1.0 + d) ** 2 * (1.0 + rho**2) / (n**2 * eps**2)
        back = minimal_iteration_budget(
            PlannerInputs(
                epsilon_total=1.0, mse_threshold=implied, **BLOOD
            )
        )
        assert back == pytest.approx(eps, rel=1e-12)


class TestIterationCount:
    @pytest.mark.parametrize(
        "eps, expected",
        [(0.5, 2), (1.0, 2), (1.5, 2), (2.0, 3), (3.0, 4)],
    )
    def test_blood_schedule_with_published_minimum(self, eps, expected):
        assert iteration_count(eps, BLOOD_EPS_M) == expected

    @pytest.mark.parametrize("eps", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_adult_schedule_caps_at_seven(self, eps):
        assert iteration_count(eps, ADULT_EPS_M) == 7

    def test_small_budget_boundary(self):
        eps_m = 0.3
        assert iteration_count(2 * eps_m, eps_m) == 2
        assert iteration_count(2 * eps_m + 1e-9, eps_m) == 2  # floor still 2

    def test_floor_rule(self):
        assert iteration_count(3.0, 0.65508) == 4  # floor(4.579...)

    def test_respects_custom_cap(self):
        assert iteration_count(100.0, 1.0, t_cap=5) == 5

    @given(
        eps=st.floats(1e-3, 1e3, allow_nan=False),
        eps_m=st.floats(1e-3, 1e3, allow_nan=False),
        cap=st.integers(2, 12),
    )
    def test_always_between_two_and_cap(self, eps, eps_m, cap):
        t = iteration_count(eps, eps_m, t_cap=cap)
        assert 2 <= t <= cap

    def test_invalid_arguments(self):
        with pytest.raises(InvalidInputError):
            iteration_count(0.0, 1.0)
        with pytest.raises(InvalidInputError):
            iteration_count(1.0, -1.0)
        with pytest.raises(InvalidInputError):
            iteration_count(1.0, 1.0, t_cap=1)

    @pytest.mark.parametrize(
        "eps,eps_m",
        [(math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf)],
        ids=["nan-total", "inf-total", "nan-minimum", "inf-minimum"],
    )
    def test_non_finite_budget_refused(self, eps, eps_m):
        # NaN raised ValueError and inf OverflowError from int(floor(...)).
        with pytest.raises(InvalidInputError, match="budgets must be positive and finite"):
            iteration_count(eps, eps_m)

    def test_non_integer_t_cap_refused(self):
        # t_cap=2.5 returned T = 2.5.
        with pytest.raises(InvalidInputError, match="t_cap must be an integer"):
            iteration_count(1.0, 0.1, t_cap=2.5)


class TestMakePlan:
    def test_uniform_split(self):
        # epsilon_per_iter 0.5 over d=4 gives five shares of 0.1
        plan = make_plan(
            PlannerInputs(
                n_rows=748,
                n_dims=4,
                k=2,
                epsilon_total=1.0,
                epsilon_m_override=BLOOD_EPS_M,
            )
        )
        assert plan.iterations == 2
        assert plan.epsilon_per_iter == 0.5
        assert plan.epsilon_dim == pytest.approx(0.1, rel=1e-15)
        assert plan.epsilon_count == plan.epsilon_dim

    def test_adult_budget_one(self):
        plan = make_plan(
            PlannerInputs(
                epsilon_total=1.0, epsilon_m_override=ADULT_EPS_M, **ADULT
            )
        )
        assert plan.iterations == 7
        assert plan.epsilon_per_iter == pytest.approx(1.0 / 7.0, rel=1e-15)
        assert plan.epsilon_dim == pytest.approx(1.0 / 49.0, rel=1e-15)

    def test_blood_budget_three(self):
        plan = make_plan(
            PlannerInputs(
                epsilon_total=3.0, epsilon_m_override=BLOOD_EPS_M, **BLOOD
            )
        )
        assert plan.iterations == 4
        assert plan.epsilon_per_iter == pytest.approx(0.75, rel=1e-15)
        assert plan.epsilon_dim == pytest.approx(0.15, rel=1e-15)

    def test_override_wins_but_computed_is_reported(self):
        plan = make_plan(
            PlannerInputs(
                epsilon_total=1.0, epsilon_m_override=BLOOD_EPS_M, **BLOOD
            )
        )
        assert plan.epsilon_m == BLOOD_EPS_M
        assert plan.epsilon_m_computed == pytest.approx(0.5481, abs=5e-5)

    def test_override_discrepancy_is_logged(self, caplog):
        with caplog.at_level(logging.WARNING, logger="dpkmeans.planner"):
            make_plan(
                PlannerInputs(
                    epsilon_total=1.0, epsilon_m_override=BLOOD_EPS_M, **BLOOD
                )
            )
        assert any("override" in rec.message for rec in caplog.records)

    def test_close_override_not_logged(self, caplog):
        computed = minimal_iteration_budget(PlannerInputs(epsilon_total=1.0, **BLOOD))
        with caplog.at_level(logging.WARNING, logger="dpkmeans.planner"):
            make_plan(
                PlannerInputs(
                    epsilon_total=1.0,
                    epsilon_m_override=computed * 1.001,
                    **BLOOD,
                )
            )
        assert not caplog.records

    def test_to_dict_round_trips_fields(self):
        plan = make_plan(PlannerInputs(epsilon_total=2.0, **BLOOD))
        d = plan.to_dict()
        assert d["iterations"] == plan.iterations
        assert d["epsilon_total"] == 2.0

    @given(
        eps=st.floats(0.1, 10.0, allow_nan=False),
        k=st.integers(1, 6),
        d=st.integers(1, 8),
        n=st.integers(100, 10**6),
    )
    def test_plan_invariants(self, eps, k, d, n):
        if n < k:
            return
        plan = make_plan(
            PlannerInputs(n_rows=n, n_dims=d, k=k, epsilon_total=eps)
        )
        assert 2 <= plan.iterations <= 7
        assert plan.epsilon_per_iter == eps / plan.iterations
        assert plan.epsilon_dim == plan.epsilon_per_iter / (d + 1)
        # T charges of the per-iteration share reconcile with the total
        acc = 0.0
        for _ in range(plan.iterations):
            acc += plan.epsilon_per_iter
        assert abs(acc - eps) <= 1e-12 * max(1.0, eps)


class TestValidation:
    def test_bad_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            PlannerInputs(n_rows=1, n_dims=1, k=2, epsilon_total=1.0)
        with pytest.raises(InvalidInputError):
            PlannerInputs(n_rows=10, n_dims=0, k=2, epsilon_total=1.0)
        with pytest.raises(InvalidInputError):
            PlannerInputs(n_rows=10, n_dims=2, k=2, epsilon_total=-1.0)
        with pytest.raises(InvalidInputError):
            PlannerInputs(n_rows=10, n_dims=2, k=2, epsilon_total=1.0, rho=-0.1)
        with pytest.raises(InvalidInputError):
            PlannerInputs(
                n_rows=10, n_dims=2, k=2, epsilon_total=1.0, mse_threshold=0.0
            )
        with pytest.raises(InvalidInputError):
            PlannerInputs(n_rows=10, n_dims=2, k=2, epsilon_total=1.0, t_cap=1)
        with pytest.raises(InvalidInputError):
            PlannerInputs(
                n_rows=10, n_dims=2, k=2, epsilon_total=1.0, epsilon_m_override=0.0
            )

    @pytest.mark.parametrize("field", ["n_rows", "n_dims", "k", "t_cap"])
    def test_counts_must_be_integers(self, field):
        # t_cap=3.5 used to plan 3.5 iterations at epsilon / 3.5.
        kwargs = dict(n_rows=30000, n_dims=2, k=2, epsilon_total=1.0, t_cap=3)
        for value in [2.5, 2.0, True, False, "2"]:
            with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
                PlannerInputs(**{**kwargs, field: value})
        inputs = PlannerInputs(**{**kwargs, field: np.int64(kwargs[field])})
        assert type(getattr(inputs, field)) is int
        assert make_plan(inputs) == make_plan(PlannerInputs(**kwargs))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field", ["epsilon_total", "rho", "mse_threshold", "epsilon_m_override"]
    )
    def test_non_finite_inputs_rejected(self, field, value):
        kwargs = dict(n_rows=10, n_dims=2, k=2, epsilon_total=1.0)
        kwargs[field] = value
        with pytest.raises(InvalidInputError, match="finite"):
            PlannerInputs(**kwargs)

    def test_budget_plan_is_frozen(self):
        plan = make_plan(PlannerInputs(epsilon_total=1.0, **BLOOD))
        assert isinstance(plan, BudgetPlan)
        with pytest.raises(AttributeError):
            plan.iterations = 3
