"""A dense two-phase primal simplex solver: a test-only LP oracle.

It solves small models of the :mod:`repro.lp.model` DSL without SciPy,
so the test suite can cross-validate ``linprog``/HiGHS against an
independent implementation.  It is not part of the package: nothing in
``repro`` calls it.

Method: the model is converted to

    minimize  c @ y   subject to  A @ y = b,  y >= 0

by shifting finite lower bounds to zero, splitting free variables,
turning finite upper bounds into extra rows, and adding slack variables
for inequalities.  Phase 1 drives artificial variables out of the basis;
phase 2 optimizes the true objective.  Bland's rule prevents cycling.

Intended for small instances (dense tableau, O(m^2 n) per iteration).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ModelError, SolverError
from repro.lp.model import Model
from repro.lp.solution import SolveResult, SolveStatus
from repro.lp.standard_form import to_standard_form

__all__ = ["solve_with_simplex"]

_TOL = 1e-9
_MAX_ITERATIONS = 10_000


def _simplex_phase(
    tableau: np.ndarray,
    basis: list[int],
    costs: np.ndarray,
) -> tuple[str, np.ndarray, list[int]]:
    """Run primal simplex on ``A y = b`` with basis ``basis``.

    ``tableau`` is ``[A | b]``; returns (status, tableau, basis) with
    status ``"optimal"`` or ``"unbounded"``.  Uses Bland's rule.
    """
    m, n_plus_1 = tableau.shape
    n = n_plus_1 - 1
    for _ in range(_MAX_ITERATIONS):
        # Reduced costs: c_j - c_B @ B^-1 A_j.  The tableau is kept in
        # canonical form, so B^-1 A is the tableau itself.
        basic_costs = costs[basis]
        reduced = costs[:n] - basic_costs @ tableau[:, :n]
        entering = -1
        for j in range(n):
            if reduced[j] < -_TOL:
                entering = j  # Bland: smallest index
                break
        if entering < 0:
            return "optimal", tableau, basis
        # Ratio test (Bland ties toward the smallest basis variable).
        leaving_row = -1
        best_ratio = math.inf
        for i in range(m):
            coefficient = tableau[i, entering]
            if coefficient > _TOL:
                ratio = tableau[i, n] / coefficient
                if ratio < best_ratio - _TOL or (
                    abs(ratio - best_ratio) <= _TOL
                    and (leaving_row < 0 or basis[i] < basis[leaving_row])
                ):
                    best_ratio = ratio
                    leaving_row = i
        if leaving_row < 0:
            return "unbounded", tableau, basis
        # Pivot.
        pivot = tableau[leaving_row, entering]
        tableau[leaving_row] /= pivot
        for i in range(m):
            if i != leaving_row and abs(tableau[i, entering]) > _TOL:
                tableau[i] -= tableau[i, entering] * tableau[leaving_row]
        basis[leaving_row] = entering
    raise SolverError(f"simplex did not converge in {_MAX_ITERATIONS} iterations")


def solve_with_simplex(model: Model) -> SolveResult:
    """Solve an LP with the library's own two-phase simplex.

    Integer markers are ignored (the relaxation is solved); pair with
    :mod:`repro.lp.branch_and_bound` semantics externally if integrality
    is needed.  Unbounded below variables are split into differences of
    non-negatives.
    """
    import time

    start = time.perf_counter()
    form = to_standard_form(model)
    n = form.n_vars

    # --- translate bounds -------------------------------------------------
    # y-variable layout: for each model variable, either one shifted
    # column (finite lb) or a +/- pair (free).
    columns: list[tuple[int, float]] = []  # (model var index, sign)
    shift = np.zeros(n)
    for j in range(n):
        lb = form.lb[j]
        if math.isfinite(lb):
            shift[j] = lb
            columns.append((j, +1.0))
        else:
            columns.append((j, +1.0))
            columns.append((j, -1.0))

    def expand_row(row: np.ndarray) -> np.ndarray:
        out = np.zeros(len(columns))
        for k, (j, sign) in enumerate(columns):
            out[k] = sign * row[j]
        return out

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    senses: list[str] = []  # "le" or "eq"

    a_ub = form.a_ub.toarray() if form.a_ub.shape[0] else np.zeros((0, n))
    for i in range(a_ub.shape[0]):
        rows.append(expand_row(a_ub[i]))
        rhs.append(form.b_ub[i] - a_ub[i] @ shift)
        senses.append("le")
    a_eq = form.a_eq.toarray() if form.a_eq.shape[0] else np.zeros((0, n))
    for i in range(a_eq.shape[0]):
        rows.append(expand_row(a_eq[i]))
        rhs.append(form.b_eq[i] - a_eq[i] @ shift)
        senses.append("eq")
    # Finite upper bounds become rows y_j <= ub - lb.
    for j in range(n):
        ub = form.ub[j]
        if math.isfinite(ub):
            unit = np.zeros(n)
            unit[j] = 1.0
            rows.append(expand_row(unit))
            rhs.append(ub - shift[j])
            senses.append("le")

    n_y = len(columns)
    n_slack = sum(1 for s in senses if s == "le")
    m = len(rows)

    # Assemble [A | slack | artificial | b] and normalize b >= 0.
    total_cols = n_y + n_slack + m
    tableau = np.zeros((m, total_cols + 1))
    slack_at = 0
    artificial_index: list[int] = []
    for i, (row, b, sense) in enumerate(zip(rows, rhs, senses)):
        tableau[i, :n_y] = row
        tableau[i, -1] = b
        if sense == "le":
            tableau[i, n_y + slack_at] = 1.0
            slack_at += 1
        if tableau[i, -1] < 0:
            tableau[i, :-1] *= -1.0
            tableau[i, -1] *= -1.0
        art = n_y + n_slack + i
        tableau[i, art] = 1.0
        artificial_index.append(art)

    basis = list(artificial_index)

    # Phase 1: minimize the sum of artificials.
    phase1_costs = np.zeros(total_cols)
    for art in artificial_index:
        phase1_costs[art] = 1.0
    status, tableau, basis = _simplex_phase(tableau, basis, phase1_costs)
    if status != "optimal":  # pragma: no cover - phase 1 is always bounded
        raise SolverError("phase 1 unbounded")
    infeasibility = phase1_costs[basis] @ tableau[:, -1]
    if infeasibility > 1e-7:
        return SolveResult(
            status=SolveStatus.INFEASIBLE,
            solver="simplex",
            wall_time_s=time.perf_counter() - start,
        )
    # Drive any remaining artificials out of the basis when possible.
    for i, var in enumerate(basis):
        if var >= n_y + n_slack:
            for j in range(n_y + n_slack):
                if abs(tableau[i, j]) > _TOL:
                    pivot = tableau[i, j]
                    tableau[i] /= pivot
                    for k in range(m):
                        if k != i and abs(tableau[k, j]) > _TOL:
                            tableau[k] -= tableau[k, j] * tableau[i]
                    basis[i] = j
                    break

    # Phase 2: true objective over y (artificials cost +inf — exclude by
    # giving them a huge cost so they never re-enter).
    phase2_costs = np.zeros(total_cols)
    for k, (j, sign) in enumerate(columns):
        phase2_costs[k] = sign * form.c[j]
    for art in artificial_index:
        phase2_costs[art] = 1e12
    status, tableau, basis = _simplex_phase(tableau, basis, phase2_costs)
    if status == "unbounded":
        return SolveResult(
            status=SolveStatus.UNBOUNDED,
            solver="simplex",
            wall_time_s=time.perf_counter() - start,
        )

    # Recover model-variable values.
    y = np.zeros(total_cols)
    for i, var in enumerate(basis):
        y[var] = tableau[i, -1]
    x = shift.copy()
    for k, (j, sign) in enumerate(columns):
        x[j] += sign * y[k]
    minimized = float(form.c @ x)
    values = {name: float(v) for name, v in zip(form.var_names, x)}
    return SolveResult(
        status=SolveStatus.OPTIMAL,
        objective=form.objective_value(minimized),
        values=values,
        solver="simplex",
        wall_time_s=time.perf_counter() - start,
    )
