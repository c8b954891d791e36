"""Solver-stack comparison: HiGHS vs own branch-and-bound.

Not a paper figure — this validates and times the library's own
optimization substrate against the SciPy/HiGHS reference on FMSSM-shaped
problems, the way a release would document its solver options.
"""

from __future__ import annotations

import time

import pytest

from repro.control.failures import FailureScenario
from repro.experiments.report import render_table
from repro.experiments.scenarios import custom_context
from repro.fmssm.formulation import build_fmssm_model
from repro.lp import LinExpr, Model, solve
from repro.topology.generators import ring_topology


@pytest.fixture(scope="module")
def small_fmssm_model():
    topology = ring_topology(8, chords=4, seed=3)
    context = custom_context(topology, controller_sites=(0, 4), capacity=220)
    instance = context.instance(FailureScenario(frozenset({0})))
    model, _ = build_fmssm_model(instance)
    return model


def _relax(model: Model) -> Model:
    relaxed = Model(model.name + "-relaxed")
    mapping = {}
    for var in model.variables:
        mapping[var.index] = relaxed.add_var(var.name, lb=var.lb, ub=var.ub)
    for constraint in model.constraints:
        expr = LinExpr.total(
            (coefficient, mapping[index])
            for index, coefficient in constraint.expr.coefficients.items()
        ) + constraint.expr.constant
        if constraint.sense == "<=":
            relaxed.add_constraint(expr <= 0)
        elif constraint.sense == ">=":
            relaxed.add_constraint(expr >= 0)
        else:
            relaxed.add_constraint(expr == 0)
    objective = LinExpr.total(
        (coefficient, mapping[index])
        for index, coefficient in model.objective.coefficients.items()
    )
    relaxed.set_objective(objective, sense=model.sense)
    return relaxed


def test_solver_comparison_report(benchmark, small_fmssm_model, capsys):
    """Both MILP backends agree on a small FMSSM instance."""

    def run_all():
        rows = []
        results = {}
        for backend in ("highs", "bnb"):
            start = time.perf_counter()
            result = solve(small_fmssm_model, solver=backend)
            rows.append(
                (
                    backend + " (MILP)",
                    f"{result.objective:.4f}",
                    result.status.value,
                    f"{time.perf_counter() - start:.3f}s",
                )
            )
            results[backend] = result
        relaxed = _relax(small_fmssm_model)
        start = time.perf_counter()
        result = solve(relaxed, solver="highs")
        rows.append(
            (
                "highs (LP relax)",
                f"{result.objective:.4f}",
                result.status.value,
                f"{time.perf_counter() - start:.3f}s",
            )
        )
        results["highs-lp"] = result
        return rows, results

    rows, results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(
            f"=== Solver stack on a {small_fmssm_model.n_vars}-variable "
            f"FMSSM model ==="
        )
        print(render_table(("backend", "objective", "status", "time"), rows))
    assert results["highs"].objective == pytest.approx(results["bnb"].objective, rel=1e-6)
    # The LP relaxation upper-bounds the MILP (maximization).
    assert results["highs-lp"].objective >= results["highs"].objective - 1e-6


def test_benchmark_highs_small_fmssm(benchmark, small_fmssm_model):
    """Track the absolute HiGHS time on the small instance."""
    result = benchmark.pedantic(
        lambda: solve(small_fmssm_model, solver="highs"), rounds=1, iterations=1
    )
    assert result.is_feasible
