"""LP/MILP modelling DSL and solvers (HiGHS adapter + own branch-and-bound)."""

from repro.lp.branch_and_bound import solve_with_bnb
from repro.lp.highs import solve_with_highs
from repro.lp.model import EQUAL, GREATER_EQUAL, LESS_EQUAL, Constraint, LinExpr, Model, Var
from repro.lp.solution import SolveResult, SolveStatus
from repro.lp.standard_form import StandardForm, to_standard_form

__all__ = [
    "Model",
    "Var",
    "LinExpr",
    "Constraint",
    "LESS_EQUAL",
    "GREATER_EQUAL",
    "EQUAL",
    "StandardForm",
    "to_standard_form",
    "SolveResult",
    "SolveStatus",
    "solve_with_highs",
    "solve_with_bnb",
    "solve",
]


def solve(model: Model, solver: str = "highs", **kwargs: object) -> SolveResult:
    """Solve a model with the chosen backend.

    ``"highs"`` (default) and ``"bnb"`` both handle MILPs.
    """
    if solver == "highs":
        return solve_with_highs(model, **kwargs)  # type: ignore[arg-type]
    if solver == "bnb":
        return solve_with_bnb(model, **kwargs)  # type: ignore[arg-type]
    raise ValueError(f"unknown solver {solver!r}; use 'highs' or 'bnb'")
