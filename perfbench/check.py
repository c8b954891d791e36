"""Output check: every answer validated, ordered and equal to a reference.

A (scenario, algorithm) answer fails when it is missing, degraded
(``meta["degraded"]``, the ``pm-fallback`` rung, a timeout, a ladder
demotion or a quarantine), when a feasible answer fails
``check_solution``, when Optimal's objective is below that of a
heuristic answer that is itself a feasible point of P′, or when it
differs from the reference recorded for this input.  Optimal is
compared by feasibility and objective only: its point may legitimately
change.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
_REL_TOL = 1e-9
_DEGRADED_EVENTS = ("demote", "quarantine", "preempted", "task-fault")


def answer_record(algorithm: str, evaluation) -> list:
    """What the reference pins for one answer."""
    if algorithm == "optimal":
        return [evaluation.feasible, evaluation.objective]
    return [
        evaluation.feasible,
        evaluation.least_programmability,
        evaluation.total_programmability,
        evaluation.recovered_flows,
        evaluation.recovered_switches,
        sorted(evaluation.controller_load.items()),
        evaluation.total_delay_ms,
        evaluation.per_flow_overhead_ms,
    ]


def same_record(a, b) -> bool:
    """Reference equality: exact, floats to a relative 1e-9."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same_record(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=1e-12)
    return a == b


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str, key: int) -> dict:
    """``{case: {algorithm: record}}`` recorded for generator seed ``key``."""
    with gzip.open(reference_path(workload), "rt") as handle:
        return json.load(handle)[str(key)]


def record_cases(steps) -> dict:
    """The reference table of ``steps`` (what ``record_reference`` writes)."""
    cases: dict = {}
    for step in steps:
        for result in step.results:
            row = cases.setdefault(result.name, {})
            for algorithm in step.algorithms:
                row[algorithm] = answer_record(
                    algorithm, result.evaluations[algorithm]
                )
    return json.loads(json.dumps(cases))


def _degraded(result, algorithm, solution) -> str | None:
    meta = solution.meta
    if meta.get("degraded") or meta.get("solver") == "pm-fallback":
        return "degraded answer"
    if algorithm == "optimal" and meta.get("status") in ("timeout", "feasible"):
        return f"optimal status {meta.get('status')}"
    if result.meta.get("supervisor", {}).get("quarantined"):
        return "quarantined"
    report = result.degradation
    if report is not None and any(e.action in _DEGRADED_EVENTS for e in report.events):
        return "ladder/supervisor degradation"
    return None


def _in_pprime(instance, solution) -> bool:
    """Whether a heuristic's answer is a feasible point of P′ itself.

    P′ maps each switch to one controller (Eq. 2), so a flow-level answer
    whose pairs are served by another controller than their switch's
    (PG's middle layer) lies outside it and may exceed Optimal.
    """
    from repro.resilience.validate import validate_solution

    if any(
        solution.mapping.get(switch) != controller
        for (switch, _), controller in solution.pair_controller.items()
    ):
        return False
    return validate_solution(
        instance, solution, enforce_delay=True, require_full_recovery=True
    ).ok


def check_answer(ctx, result, algorithm, optimal_objective, reference) -> str | None:
    """Why one answer fails, or ``None`` when it passes."""
    from repro.exceptions import ValidationError
    from repro.resilience.validate import check_solution

    solution = result.solutions.get(algorithm)
    evaluation = result.evaluations.get(algorithm)
    if solution is None or evaluation is None:
        return "missing answer"
    why = _degraded(result, algorithm, solution)
    if why:
        return why
    instance = ctx.instance(result.scenario)
    exact = algorithm == "optimal"
    if solution.feasible:
        try:
            check_solution(
                instance, solution, enforce_delay=exact, require_full_recovery=exact
            )
        except ValidationError as exc:
            return f"check_solution: {exc}"
        beats_optimal = (
            optimal_objective is None
            or evaluation.objective > optimal_objective + 1e-9
        )
        # Only an answer that beats Optimal needs the (costly) P′ test.
        if not exact and beats_optimal and _in_pprime(instance, solution):
            return (
                f"P'-feasible objective {evaluation.objective!r} above "
                f"Optimal's {optimal_objective!r}"
            )
    expected = reference.get(result.name, {}).get(algorithm)
    if expected is None:
        return "no reference for this case"
    got = json.loads(json.dumps(answer_record(algorithm, evaluation)))
    if not same_record(got, expected):
        return f"differs from reference: {got!r} != {expected!r}"
    return None


def check_steps(ctx, steps, reference) -> tuple[int, list[str]]:
    """``(attempted, failure messages)`` over every answer of ``steps``."""
    attempted = 0
    failures: list[str] = []
    for step in steps:
        for result in step.results:
            optimal = result.evaluations.get("optimal")
            optimal_objective = (
                optimal.objective if optimal is not None and optimal.feasible else None
            )
            for algorithm in step.algorithms:
                attempted += 1
                why = check_answer(
                    ctx, result, algorithm, optimal_objective, reference
                )
                if why:
                    failures.append(f"{step.label} {result.name} {algorithm}: {why}")
    return attempted, failures
