"""Tests for the test-only two-phase simplex oracle (``simplex_oracle``)."""

from __future__ import annotations

import random

import pytest

from repro.lp import LinExpr, Model, SolveStatus, solve
from simplex_oracle import solve_with_simplex


class TestBasics:
    def test_simple_maximization(self):
        m = Model()
        x = m.add_var("x", ub=4)
        y = m.add_var("y", ub=4)
        m.add_constraint(x + y <= 6)
        m.set_objective(x + 2 * y, sense="max")
        result = solve_with_simplex(m)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(10.0)
        assert result.value("y") == pytest.approx(4.0)

    def test_minimization_with_lower_bounds(self):
        m = Model()
        x = m.add_var("x", lb=2, ub=9)
        m.set_objective(3 * x, sense="min")
        result = solve_with_simplex(m)
        assert result.objective == pytest.approx(6.0)

    def test_equality_constraints(self):
        m = Model()
        x = m.add_var("x", ub=10)
        y = m.add_var("y", ub=10)
        m.add_constraint(x + y == 7)
        m.set_objective(x - y, sense="max")
        result = solve_with_simplex(m)
        assert result.objective == pytest.approx(7.0)

    def test_infeasible(self):
        m = Model()
        x = m.add_var("x", ub=1)
        m.add_constraint(1 * x >= 2)
        m.set_objective(x)
        assert solve_with_simplex(m).status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        m = Model()
        x = m.add_var("x")  # no upper bound
        m.set_objective(x, sense="max")
        assert solve_with_simplex(m).status is SolveStatus.UNBOUNDED

    def test_free_variable_split(self):
        m = Model()
        x = m.add_var("x", lb=-float("inf"), ub=float("inf"))
        m.add_constraint(1 * x >= -5)
        m.set_objective(x, sense="min")
        result = solve_with_simplex(m)
        assert result.objective == pytest.approx(-5.0)
        assert result.value("x") == pytest.approx(-5.0)

    def test_integer_markers_ignored(self):
        """Simplex solves the relaxation: fractional optimum allowed."""
        m = Model()
        x = m.add_var("x", integer=True, ub=10)
        m.add_constraint(2 * x <= 7)
        m.set_objective(x, sense="max")
        result = solve_with_simplex(m)
        assert result.objective == pytest.approx(3.5)

    def test_objective_constant(self):
        m = Model()
        x = m.add_var("x", ub=5)
        m.set_objective(x + 100, sense="max")
        assert solve_with_simplex(m).objective == pytest.approx(105.0)


class TestCrossValidation:
    def test_random_lps_match_highs(self):
        rng = random.Random(7)
        for trial in range(20):
            m = Model(f"lp{trial}")
            n = rng.randint(2, 6)
            xs = [
                m.add_var(f"x{i}", lb=0, ub=rng.choice([4.0, 12.0, float("inf")]))
                for i in range(n)
            ]
            for _ in range(rng.randint(1, 4)):
                coefficients = [(float(rng.randint(-3, 5)), x) for x in xs]
                if rng.random() < 0.3:
                    m.add_constraint(LinExpr.total(coefficients) == rng.randint(0, 8))
                else:
                    m.add_constraint(LinExpr.total(coefficients) <= rng.randint(1, 20))
            m.set_objective(
                LinExpr.total((float(rng.randint(-4, 6)), x) for x in xs),
                sense=rng.choice(["min", "max"]),
            )
            reference = solve(m, solver="highs")
            ours = solve_with_simplex(m)
            assert ours.status.value == reference.status.value, trial
            if reference.status is SolveStatus.OPTIMAL:
                assert ours.objective == pytest.approx(
                    reference.objective, abs=1e-6, rel=1e-6
                ), trial

    def test_fmssm_relaxation_matches(self, tiny_instance):
        """The LP relaxation of P' solved by our simplex equals HiGHS's."""
        from repro.fmssm.formulation import build_fmssm_model
        from repro.lp.model import Model as LpModel

        milp, _ = build_fmssm_model(tiny_instance)
        # Rebuild as a pure LP (drop integrality).
        relaxed = LpModel("relaxed")
        mapping = {}
        for var in milp.variables:
            mapping[var.index] = relaxed.add_var(var.name, lb=var.lb, ub=var.ub)
        for constraint in milp.constraints:
            expr = LinExpr.total(
                (coefficient, mapping[index])
                for index, coefficient in constraint.expr.coefficients.items()
            )
            expr = expr + constraint.expr.constant
            if constraint.sense == "<=":
                relaxed.add_constraint(expr <= 0)
            elif constraint.sense == ">=":
                relaxed.add_constraint(expr >= 0)
            else:
                relaxed.add_constraint(expr == 0)
        objective = LinExpr.total(
            (coefficient, mapping[index])
            for index, coefficient in milp.objective.coefficients.items()
        )
        relaxed.set_objective(objective, sense=milp.sense)

        ours = solve_with_simplex(relaxed)
        reference = solve(relaxed, solver="highs")
        assert ours.status is SolveStatus.OPTIMAL
        assert ours.objective == pytest.approx(reference.objective, rel=1e-6)
