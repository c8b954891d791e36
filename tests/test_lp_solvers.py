"""Tests for the HiGHS adapter and the branch-and-bound solver.

Both backends run the same cases; agreement between them is the
cross-validation for the library-owned branch-and-bound.
"""

from __future__ import annotations

import pytest

from repro.lp import LinExpr, Model, SolveStatus, solve
from repro.exceptions import SolverError

SOLVERS = ("highs", "bnb")


def knapsack_model() -> tuple[Model, float]:
    """A small knapsack with known optimum 14 (items 0, 1 and 3)."""
    m = Model("knapsack")
    values = [6, 7, 6, 1]
    weights = [3, 4, 4, 1]
    xs = [m.add_var(f"x{i}", binary=True) for i in range(4)]
    m.add_constraint(LinExpr.total(zip(map(float, weights), xs)) <= 8)
    m.set_objective(LinExpr.total(zip(map(float, values), xs)), sense="max")
    return m, 14.0


@pytest.mark.parametrize("solver", SOLVERS)
class TestBothSolvers:
    def test_pure_lp(self, solver):
        m = Model()
        x = m.add_var("x", ub=4)
        y = m.add_var("y", ub=4)
        m.add_constraint(x + y <= 6)
        m.set_objective(x + 2 * y, sense="max")
        result = solve(m, solver=solver)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(10.0)
        assert result.value("y") == pytest.approx(4.0)

    def test_knapsack_optimum(self, solver):
        m, best = knapsack_model()
        result = solve(m, solver=solver)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(best)

    def test_integrality_enforced(self, solver):
        m = Model()
        x = m.add_var("x", integer=True, ub=10)
        m.add_constraint(2 * x <= 7)
        m.set_objective(x, sense="max")
        result = solve(m, solver=solver)
        assert result.objective == pytest.approx(3.0)
        assert result.value("x") == pytest.approx(3.0)

    def test_infeasible(self, solver):
        m = Model()
        x = m.add_var("x", ub=1)
        m.add_constraint(1 * x >= 2)
        m.set_objective(x)
        assert solve(m, solver=solver).status is SolveStatus.INFEASIBLE

    def test_equality_constraints(self, solver):
        m = Model()
        x = m.add_var("x", ub=10)
        y = m.add_var("y", ub=10)
        m.add_constraint(x + y == 7)
        m.set_objective(x - y, sense="max")
        result = solve(m, solver=solver)
        assert result.objective == pytest.approx(7.0)

    def test_minimization(self, solver):
        m = Model()
        x = m.add_var("x", lb=2, ub=9)
        m.set_objective(3 * x, sense="min")
        result = solve(m, solver=solver)
        assert result.objective == pytest.approx(6.0)

    def test_objective_with_constant(self, solver):
        m = Model()
        x = m.add_var("x", ub=5)
        m.set_objective(x + 100, sense="max")
        result = solve(m, solver=solver)
        assert result.objective == pytest.approx(105.0)


class TestCrossValidation:
    def test_random_milps_agree(self):
        import random

        rng = random.Random(42)
        for trial in range(8):
            m = Model(f"rand{trial}")
            n = rng.randint(3, 7)
            xs = [m.add_var(f"x{i}", binary=True) for i in range(n)]
            for _ in range(rng.randint(1, 4)):
                coefficients = [(float(rng.randint(1, 9)), x) for x in xs]
                m.add_constraint(
                    LinExpr.total(coefficients) <= rng.randint(5, 25)
                )
            m.set_objective(
                LinExpr.total((float(rng.randint(1, 9)), x) for x in xs), sense="max"
            )
            a = solve(m, solver="highs")
            b = solve(m, solver="bnb")
            assert a.status is SolveStatus.OPTIMAL
            assert b.status is SolveStatus.OPTIMAL
            assert a.objective == pytest.approx(b.objective)


class TestResultSemantics:
    def test_value_without_incumbent_raises(self):
        m = Model()
        x = m.add_var("x", ub=1)
        m.add_constraint(1 * x >= 2)
        m.set_objective(x)
        result = solve(m)
        with pytest.raises(SolverError):
            result.value("x")

    def test_unknown_variable_raises(self):
        m = Model()
        m.add_var("x", ub=1)
        result = solve(m)
        with pytest.raises(SolverError, match="unknown variable"):
            result.value("zzz")

    def test_unknown_solver_rejected(self):
        m = Model()
        m.add_var("x")
        with pytest.raises(ValueError, match="unknown solver"):
            solve(m, solver="gurobi")

    def test_bnb_time_limit_returns_incumbent_or_timeout(self):
        m, _ = knapsack_model()
        result = solve(m, solver="bnb", time_limit_s=0.0)
        assert result.status in (
            SolveStatus.TIMEOUT,
            SolveStatus.FEASIBLE,
            SolveStatus.OPTIMAL,
        )

    def test_bnb_reports_nodes(self):
        m, _ = knapsack_model()
        result = solve(m, solver="bnb")
        assert result.nodes is not None and result.nodes >= 1

    def test_repr(self):
        m, _ = knapsack_model()
        assert "optimal" in repr(solve(m))


class TestHighsOptions:
    """What :func:`scipy.optimize.milp` receives as ``options``."""

    @pytest.fixture
    def captured(self, monkeypatch):
        from scipy import optimize

        from repro.lp import highs

        seen: list = []
        real = optimize.milp

        def spy(*args, **kwargs):
            seen.append(kwargs.get("options"))
            return real(*args, **kwargs)

        monkeypatch.setattr(highs.optimize, "milp", spy)
        return seen

    @pytest.mark.parametrize(
        "kwargs, options",
        [
            ({}, None),
            ({"mip_rel_gap": None}, None),
            ({"mip_rel_gap": 0.0}, {"mip_rel_gap": 0.0}),
            ({"mip_rel_gap": 0.01}, {"mip_rel_gap": 0.01}),
            ({"time_limit_s": 5, "mip_rel_gap": 0.0},
             {"time_limit": 5.0, "mip_rel_gap": 0.0}),
        ],
    )
    def test_mip_rel_gap_forwarded(self, captured, kwargs, options):
        from repro.lp.highs import solve_with_highs

        m, best = knapsack_model()
        result = solve_with_highs(m, **kwargs)
        assert result.objective == pytest.approx(best)
        assert captured == [options]
