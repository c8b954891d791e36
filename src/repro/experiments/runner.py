"""Run recovery algorithms over failure scenarios and collect metrics."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.baselines import get_algorithm
from repro.control.failures import FailureScenario, enumerate_failure_scenarios
from repro.experiments.scenarios import ExperimentContext
from repro.fmssm.evaluation import RecoveryEvaluation, evaluate_batch
from repro.fmssm.optimal import solve_optimal
from repro.fmssm.solution import RecoverySolution
from repro.perf.kernels import prepare_instance

if TYPE_CHECKING:
    from repro.resilience.degradation import DegradationReport, LadderPolicy

__all__ = [
    "ScenarioResult",
    "run_scenario",
    "run_failure_sweep",
    "run_failure_sweep_parallel",
    "PAPER_ALGORITHMS",
]

#: The four algorithms the paper compares (Section VI-B).
PAPER_ALGORITHMS: tuple[str, ...] = ("optimal", "retroflow", "pg", "pm")


@dataclass
class ScenarioResult:
    """Evaluations of every algorithm on one failure scenario."""

    scenario: FailureScenario
    evaluations: dict[str, RecoveryEvaluation] = field(default_factory=dict)
    solutions: dict[str, RecoverySolution] = field(default_factory=dict)
    #: Execution audit trail (mode, ladder demotions, checkpoint restores).
    #: ``None`` for results from the plain serial runner, which has no
    #: degradation machinery to report on.
    degradation: "DegradationReport | None" = None
    #: Free-form execution diagnostics that are not part of the answer —
    #: e.g. the parallel sweep's fan-out transport stats (payload bytes,
    #: worker init time).  Never consulted when comparing results.
    meta: dict[str, object] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """The scenario's canonical name, e.g. ``"(13, 20)"``."""
        return self.scenario.name

    def relative_total_programmability(self, reference: str = "retroflow") -> dict[str, float]:
        """Each algorithm's total programmability relative to ``reference``.

        This is the normalization of Figs. 4(b), 5(b) and 6(b).  A zero
        reference yields ``inf`` for non-zero algorithms.
        """
        base = self.evaluations[reference].total_programmability
        out = {}
        for name, evaluation in self.evaluations.items():
            if base > 0:
                out[name] = evaluation.total_programmability / base
            else:
                out[name] = float("inf") if evaluation.total_programmability else 1.0
        return out


def run_scenario(
    context: ExperimentContext,
    scenario: FailureScenario,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    optimal_time_limit_s: float = 300.0,
    optimal_compile: str = "sparse",
) -> ScenarioResult:
    """Run ``algorithms`` on one failure scenario.

    The ``"optimal"`` entry is routed through :func:`solve_optimal` with
    the time limit; an infeasible/timeout outcome is kept as an
    infeasible evaluation, mirroring the paper's missing Optimal bars.
    ``optimal_compile`` picks its compilation route (``"sparse"`` fast
    path or the ``"model"`` DSL route for cross-validation).
    """
    instance = context.instance(scenario)
    prepare_instance(instance)
    result = ScenarioResult(scenario=scenario)
    for name in algorithms:
        if name == "optimal":
            solution = solve_optimal(
                instance,
                time_limit_s=optimal_time_limit_s,
                compile=optimal_compile,
            )
        else:
            solution = get_algorithm(name)(instance)
        result.solutions[name] = solution
    # One batched evaluation over the scenario's solutions — the array
    # view is already warm, so each evaluation is a few reductions.
    for name, evaluation in zip(
        result.solutions, evaluate_batch(instance, result.solutions.values())
    ):
        result.evaluations[name] = evaluation
    return result


def run_failure_sweep(
    context: ExperimentContext,
    n_failures: int,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    optimal_time_limit_s: float = 300.0,
    optimal_compile: str = "sparse",
) -> list[ScenarioResult]:
    """Run all C(M, n_failures) failure combinations (Figs. 4-6)."""
    return [
        run_scenario(
            context,
            scenario,
            algorithms,
            optimal_time_limit_s,
            optimal_compile=optimal_compile,
        )
        for scenario in enumerate_failure_scenarios(context.plane, n_failures)
    ]


def run_failure_sweep_parallel(
    context: ExperimentContext,
    n_failures: int,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    optimal_time_limit_s: float = 300.0,
    max_workers: int | None = None,
    optimal_compile: str = "sparse",
    min_parallel_tasks: int | None = None,
    ladder: "LadderPolicy | None" = None,
    validate: bool = False,
    checkpoint_path: object = None,
    checkpoint_every: int = 4,
    transport: str = "auto",
    incremental: bool = False,
    executor: object = None,
    supervisor: object = None,
    store: object = None,
    lp_batch: int | None = None,
) -> list[ScenarioResult]:
    """:func:`run_failure_sweep` fanned over a process pool.

    The coefficient table is materialized once in the parent and shared
    with every worker of a :class:`~repro.perf.executor.SweepExecutor`
    (a short-lived one, closed before returning, unless ``executor`` is
    given), scenarios × algorithms run concurrently, and
    results merge deterministically in scenario order — output is
    identical to the serial sweep apart from ``solve_time_s`` wall
    clocks.  ``max_workers=None`` uses all CPUs; ``max_workers=1``, an
    unpicklable context, or a broken pool degrade gracefully to the
    serial path.  Small heuristic-only sweeps (fewer than
    ``min_parallel_tasks`` tasks, default 64, and no exact solver among
    the algorithms) also run serially — pool startup cannot pay off
    there; pass ``min_parallel_tasks=0`` to force the pool.

    ``ladder``, ``validate``, ``checkpoint_path`` and
    ``checkpoint_every`` enable the resilience layer; see
    :func:`repro.perf.sweep.parallel_sweep` and ``docs/robustness.md``.
    ``transport`` selects how the context reaches workers (``"auto"`` /
    ``"shm"`` / ``"pickle"``) and ``incremental`` chains scenarios by
    failure-set similarity — both pure execution strategies with
    bit-identical results; see ``docs/performance.md``.  ``executor``
    submits to a caller-owned warm executor whose workers outlive the
    sweep — the right choice when several sweeps run back to back over
    one context.  ``supervisor`` threads a
    :class:`~repro.resilience.supervisor.SweepSupervisor` through the
    warm route (deadlines, quarantine, circuit breakers); see
    ``docs/robustness.md``.  ``store`` memoizes solves across runs and
    parent processes through a :class:`~repro.perf.store.SolveStore`
    (content-addressed, bit-identical hits; see ``docs/performance.md``).
    ``lp_batch`` stacks same-shaped exact solves into block-diagonal LP
    relaxations solved one HiGHS call per batch (:mod:`repro.perf.batch`)
    — another bit-identical execution strategy.
    """
    from repro.perf.sweep import parallel_sweep

    return parallel_sweep(
        context,
        enumerate_failure_scenarios(context.plane, n_failures),
        algorithms,
        optimal_time_limit_s=optimal_time_limit_s,
        max_workers=max_workers,
        optimal_compile=optimal_compile,
        min_parallel_tasks=min_parallel_tasks,
        ladder=ladder,
        validate=validate,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        transport=transport,
        incremental=incremental,
        executor=executor,
        supervisor=supervisor,
        store=store,
        lp_batch=lp_batch,
    )
