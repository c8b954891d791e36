"""The Optimal baseline: solve problem P′ exactly.

The paper solves P′ with Gurobi; we use HiGHS through
:func:`scipy.optimize.milp` (or the library's own branch-and-bound for
small instances).  With ``require_full_recovery=True`` — our reading of
the paper's "constraint of not interrupting active controllers' normal
operations" under which "optimization solver may not always generate a
feasible solution" — tight three-failure instances become genuinely
infeasible and Optimal reports no result, matching Fig. 6.

Two compilation routes produce the same standard form (asserted
bit-identical by ``tests/test_perf_compile.py``):

``compile="sparse"`` (default)
    :mod:`repro.perf.compile` assembles the matrices directly from the
    instance and, when ``warm_start="pm"``, seeds the solve with the PM
    heuristic's solution and tries to *certify* an answer before any
    MILP.  Feasible objectives live on the grid ``integer + λ ·
    integer``, so a feasible point within half the grid spacing of a
    dual bound is provably optimal.  The pipeline, cheapest first:

    1. PM pre-certificate — PM's point against the closed-form
       :func:`_combinatorial_bound` (no LP);
    2. full-recovery pre-certificate — when the spare covers every
       programmable pair, an N×M switch-assignment probe
       (:func:`_full_recovery_point`) for a point with every pair
       active, which reaches that bound exactly;
    3. LP certificate — PM's point against the LP-relaxation bound;
    4. the P′ MILP.

    Both pre-certificates report ``meta["solver"] == "precert"`` and
    name their source in ``meta["precert"]`` (``"pm"`` or
    ``"full-recovery"``).
``compile="model"``
    The original readable route through the :mod:`repro.lp.model` DSL
    and :func:`to_standard_form`, kept for cross-validation.

Both routes report the *canonical* objective ``r + λ · obj2`` recomputed
from the extracted solution (the same expression
:func:`repro.fmssm.evaluation.evaluate_solution` uses), so equal optima
compare bit-identical across routes; the solver's own value is kept in
``meta["solver_objective"]``.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, sparse

from repro.exceptions import DegradedResultWarning, RungTimeoutError, SolverError
from repro.fmssm.formulation import FMSSMVariables, build_fmssm_model
from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.solution import RecoverySolution
from repro.lp import SolveResult, SolveStatus, solve
from repro.lp.branch_and_bound import solve_form_with_bnb
from repro.lp.highs import solve_form_relaxation, solve_form_with_highs
from repro.pm.algorithm import solve_pm
from repro.resilience import chaos

__all__ = ["solve_optimal", "extract_solution", "WarmChain"]

_BINARY_THRESHOLD = 0.5
#: LP objective values below this are indistinguishable from solver noise,
#: so certificates tighter than it are not trusted.
_LP_NOISE_FLOOR = 1e-7


@dataclass
class WarmChain:
    """Cross-scenario warm-start state for incremental sweeps.

    One :class:`WarmChain` is threaded through the ``optimal`` solves of
    consecutive scenarios in a minimum-Hamming-distance chain
    (:mod:`repro.perf.incremental`).  It carries the previous scenario's
    solution (repaired into the next instance and used as an extra seed)
    and the previous LP-relaxation basis (forwarded to
    :func:`repro.lp.highs.solve_form_relaxation`, a no-op on backends
    without a basis API).

    Neither ingredient can change a non-degraded answer on the default
    HiGHS route — scipy's MILP takes no warm start, the certificates
    compare the PM point or the instance-only full-recovery point, and
    the basis hint at most
    changes which vertex path the LP walks, not its optimal value — so
    chained results stay bit-identical to independent solves.  The seeds
    *do* feed the B&B incumbent (``solver="bnb"``) and the no-incumbent
    timeout fallback, where a better feasible point is strictly better.
    """

    #: Last feasible solution produced along the chain.
    neighbor: RecoverySolution | None = None
    #: Opaque LP-relaxation basis from the previous scenario, if any.
    basis: object | None = None
    #: Bookkeeping counters (chain seeds embedded, certificates, ...).
    stats: dict[str, int] = field(default_factory=dict)

    def advance(self, solution: RecoverySolution | None) -> None:
        """Record ``solution`` as the next scenario's neighbor seed."""
        if solution is not None and solution.feasible:
            self.neighbor = solution

    def bump(self, key: str) -> None:
        """Increment the ``key`` bookkeeping counter in :attr:`stats`."""
        self.stats[key] = self.stats.get(key, 0) + 1


def extract_solution(
    instance: FMSSMInstance,
    handles: FMSSMVariables,
    result: SolveResult,
    algorithm: str = "optimal",
) -> RecoverySolution:
    """Convert a solver incumbent into a :class:`RecoverySolution`.

    Pairs are activated from the ``w`` variables so that capacity/delay
    accounting matches the solver's own; the switch mapping comes from
    ``x``.
    """
    if not result.is_feasible:
        raise SolverError(f"cannot extract from status {result.status.value}")
    mapping = {
        switch: controller
        for (switch, controller), var in handles.x.items()
        if result.values.get(var.name, 0.0) > _BINARY_THRESHOLD
    }
    sdn_pairs = {
        (switch, flow_id)
        for (switch, controller, flow_id), var in handles.w.items()
        if result.values.get(var.name, 0.0) > _BINARY_THRESHOLD
    }
    return RecoverySolution(
        algorithm=algorithm,
        mapping=mapping,
        sdn_pairs=sdn_pairs,
        solve_time_s=result.wall_time_s,
        feasible=True,
        meta={
            "status": result.status.value,
            "objective": result.objective,
            "solver": result.solver,
            "gap": result.gap,
        },
    )


def _canonical_objective(instance: FMSSMInstance, solution: RecoverySolution) -> float:
    """``r + λ · obj2`` of ``solution``, exactly as the evaluator computes it.

    Both integer terms are recomputed from the extracted pairs, so two
    solutions with the same (least, total) programmability produce the
    *same float* regardless of which solver or compile route found them.
    """
    programmability: dict[object, int] = {f: 0 for f in instance.flows}
    for switch, flow_id in solution.active_pairs():
        programmability[flow_id] += instance.pbar[(switch, flow_id)]
    recoverable = instance.recoverable_flows
    least = min((programmability[f] for f in recoverable), default=0)
    return least + instance.lam * sum(programmability.values())


def _certificate_tolerance(instance: FMSSMInstance) -> float | None:
    """Half the objective grid spacing, or ``None`` when no safe gap exists.

    Feasible objectives are ``a + λ·b`` with integers ``a ∈ [0, r_ub]``
    and ``b ∈ [0, B]`` (``B`` = total max programmability).  When
    ``λ·B < 1`` two distinct values differ by at least
    ``min(λ, 1 − λ·B)`` (either ``a`` agrees and ``λ|Δb| ≥ λ``, or
    ``|Δa| ≥ 1`` dominates ``λ|Δb| ≤ λ·B``).  A heuristic within half
    that spacing of the LP dual bound is therefore *exactly* optimal.
    Returns ``None`` when the spacing is not positive or sits below the
    LP noise floor — the certificate is skipped then.
    """
    lam = float(instance.lam)
    if lam == 0.0:
        return 0.5  # objective is the integer r alone
    spacing = min(lam, 1.0 - lam * instance.total_max_programmability())
    if spacing <= 2.0 * _LP_NOISE_FLOOR:
        return None
    return 0.5 * spacing


def _combinatorial_bound(instance: FMSSMInstance) -> float:
    """A dual bound on P′ from pure combinatorics — no LP solve.

    Relax the LP relaxation further: keep only ``r ≤ r_ub`` and, with
    ``z_k := Σ_c w_kc``, the implications ``z_k ≤ 1`` (Eq. 2 mapping
    rows through the Eq. 9 McCormick ``w ≤ x``) and ``Σ_k z_k ≤ total
    spare`` (Eq. 12 capacity rows summed over controllers).  Maximizing
    ``r + λ Σ p̄_k z_k`` under those alone is a fractional knapsack with
    unit weights: fill the total spare capacity with the largest ``p̄``
    values.  Every LP-feasible point satisfies the relaxed system, so
    this bound is never below the LP-relaxation objective — a PM seed
    that certifies against it would also certify against the LP, and
    the LP solve can be skipped with the *same* returned point.
    """
    recoverable = instance.recoverable_flows
    r_ub = float(
        min((instance.max_programmability(f) for f in recoverable), default=0)
    )
    capacity = instance.total_spare
    if capacity <= 0 or not instance.pbar:
        return r_ub
    values = sorted(instance.pbar.values(), reverse=True)
    bonus = float(sum(values[: min(len(values), capacity)]))
    return r_ub + instance.lam * bonus


def _full_recovery_point(
    instance: FMSSMInstance,
    enforce_delay: bool,
    time_limit_s: float | None,
) -> RecoverySolution | None:
    """A switch→controller remap with every programmable pair in SDN mode.

    When the total spare capacity covers every programmable pair, such a
    point reaches :func:`_combinatorial_bound` exactly (``r = r_ub`` and
    every ``p̄`` counted), so finding one proves it optimal.  It is a
    small generalized-assignment problem over the switches that carry
    pairs — one ``x[s,c]`` per (switch, spare-positive controller):

    - ``Σ_c x[s,c] = 1`` — every such switch is mapped (Eq. 2);
    - ``Σ_s |pairs_at(s)|·x[s,c] ≤ spare[c]`` — Eq. 12 with all pairs on;
    - ``Σ |pairs_at(s)|·D[s,c]·x[s,c] ≤ G`` when ``enforce_delay`` (Eq. 14);

    minimizing that delay sum as a deterministic tie-break.  Pair-less
    switches stay unmapped.  The probe is best-effort: it returns
    ``None`` when there is no pair, the spare cannot cover every pair,
    or HiGHS does not report an optimal assignment.  It calls
    :func:`scipy.optimize.milp` directly, so it is neither a P′ MILP
    solve nor a ``highs.solve`` chaos site.
    """
    if not instance.pairs or instance.total_spare < len(instance.pairs):
        return None
    switches = [s for s in instance.switches if instance.pairs_at[s]]
    controllers = [c for c in instance.controllers if instance.spare[c] > 0]
    n, m = len(switches), len(controllers)
    load = np.array([len(instance.pairs_at[s]) for s in switches], dtype=float)
    delay = np.array(
        [[instance.delay[(s, c)] for c in controllers] for s in switches]
    )
    cost = (load[:, None] * delay).ravel()
    cols = np.arange(n * m)
    rows = [
        optimize.LinearConstraint(
            sparse.csr_matrix((np.ones(n * m), (cols // m, cols)), shape=(n, n * m)),
            1.0,
            1.0,
        ),
        optimize.LinearConstraint(
            sparse.csr_matrix((np.repeat(load, m), (cols % m, cols)), shape=(m, n * m)),
            -np.inf,
            np.array([instance.spare[c] for c in controllers], dtype=float),
        ),
    ]
    if enforce_delay:
        rows.append(
            optimize.LinearConstraint(cost[None, :], -np.inf, instance.ideal_delay_ms)
        )
    raw = optimize.milp(
        c=cost,
        constraints=rows,
        integrality=np.ones(n * m),
        bounds=optimize.Bounds(0.0, 1.0),
        options=None if time_limit_s is None else {"time_limit": float(time_limit_s)},
    )
    if raw.status != 0 or raw.x is None:  # 0: proven optimal
        return None
    chosen = np.asarray(raw.x).reshape(n, m).argmax(axis=1)
    return RecoverySolution(
        algorithm="optimal",
        mapping={s: controllers[j] for s, j in zip(switches, chosen)},
        sdn_pairs=set(instance.pairs),
    )


def _precertificate(
    instance: FMSSMInstance,
    compiled: object,
    seed_x: np.ndarray | None,
    enforce_delay: bool,
    time_limit_s: float | None,
) -> tuple[np.ndarray, str] | None:
    """A point of ``compiled`` proven optimal without an LP, and its source.

    Tries the PM seed first (``"pm"``), then :func:`_full_recovery_point`
    (``"full-recovery"``).  A point is accepted when its objective
    reaches :func:`_combinatorial_bound` within the certificate
    tolerance — the bound dominates the LP relaxation, so such a point is
    exactly optimal.  The probe's point must also embed in the compiled
    form (``embed_solution`` is the feasibility guard).  Returns ``None``
    when neither certifies; the caller then falls through to the LP
    certificate and the MILP.
    """
    cert_tol = _certificate_tolerance(instance)
    if cert_tol is None:
        return None
    bound = _combinatorial_bound(instance) - cert_tol
    if seed_x is not None and compiled.objective_value(seed_x) >= bound:
        return seed_x, "pm"
    point = _full_recovery_point(instance, enforce_delay, time_limit_s)
    if point is None:
        return None
    x = compiled.embed_solution(point)
    if x is not None and compiled.objective_value(x) >= bound:
        return x, "full-recovery"
    return None


def _infeasible(meta: dict[str, object], elapsed: float) -> RecoverySolution:
    return RecoverySolution(
        algorithm="optimal", feasible=False, solve_time_s=elapsed, meta=meta
    )


def _timeout_disposition(
    rung: str,
    elapsed: float,
    raise_on_timeout: bool,
    meta: dict[str, object],
) -> RecoverySolution:
    """Handle a no-incumbent timeout: raise for ladders, warn otherwise."""
    if raise_on_timeout:
        raise RungTimeoutError(
            f"{rung} route timed out after {elapsed:.1f}s with no incumbent",
            elapsed_s=elapsed,
            rung=rung,
        )
    warnings.warn(
        DegradedResultWarning(
            f"optimal ({rung} route) timed out after {elapsed:.1f}s with no "
            f"incumbent; reporting an infeasible result"
        ),
        stacklevel=3,
    )
    return _infeasible(meta, elapsed)


def _solve_optimal_sparse(
    instance: FMSSMInstance,
    solver: str,
    time_limit_s: float | None,
    require_full_recovery: bool,
    enforce_delay: bool,
    warm_start: str | None,
    compiler: object,
    raise_on_timeout: bool,
    warm_chain: WarmChain | None = None,
) -> RecoverySolution:
    # Imported lazily: repro.perf pulls in the sweep machinery, which
    # imports this module back.
    from repro.perf.compile import compile_fmssm

    start = time.perf_counter()
    compiled = compile_fmssm(
        instance,
        require_full_recovery=require_full_recovery,
        enforce_delay=enforce_delay,
        compiler=compiler,
    )

    seed_x = None
    if warm_start == "pm":
        pm = solve_pm(instance, enforce_delay=enforce_delay)
        seed_x = compiled.embed_solution(pm)

    # Extra seed from the chain neighbor (incremental sweeps).  Only the
    # B&B incumbent and the timeout fallback consume it — it never feeds
    # the certificates, so default-route answers stay bit-identical to
    # independent solves.
    chain_x = None
    if warm_chain is not None and warm_chain.neighbor is not None:
        from repro.perf.incremental import repair_solution

        repaired = repair_solution(
            instance, warm_chain.neighbor, enforce_delay=enforce_delay
        )
        if repaired is not None:
            chain_x = compiled.embed_solution(repaired)
            if chain_x is not None:
                warm_chain.bump("chain_seeds")

    certificate = False
    precert = None
    result: SolveResult | None = None
    if warm_start == "pm":
        precert = _precertificate(
            instance, compiled, seed_x, enforce_delay, time_limit_s
        )
    if precert is not None:
        # The point reaches the combinatorial bound, which dominates the
        # LP bound: provably optimal without the LP or the MILP.
        certificate = True
        if warm_chain is not None:
            warm_chain.bump("precertificates")
        result = SolveResult(
            status=SolveStatus.OPTIMAL,
            objective=compiled.objective_value(precert[0]),
            x=precert[0],
            solver="precert",
            wall_time_s=0.0,
            gap=0.0,
        )
    elif seed_x is not None:
        cert_tol = _certificate_tolerance(instance)
        seed_obj = compiled.objective_value(seed_x)
        relaxation = solve_form_relaxation(
            compiled.form,
            basis=None if warm_chain is None else warm_chain.basis,
        )
        if warm_chain is not None:
            warm_chain.basis = relaxation.basis
        if relaxation.status is SolveStatus.INFEASIBLE:
            # The LP relaxing integrality is already infeasible, so the
            # MILP is too (cannot happen with a validated seed except
            # through numerical tolerance; trust the LP like B&B does).
            return _infeasible(
                {"status": "infeasible", "solver": relaxation.solver,
                 "compile": "sparse"},
                time.perf_counter() - start,
            )
        if (
            relaxation.status is SolveStatus.OPTIMAL
            and cert_tol is not None
            and seed_obj >= relaxation.objective - cert_tol
        ):
            # PM reaches the dual bound within less than the objective
            # grid spacing: provably optimal, skip the MILP.
            certificate = True
            result = SolveResult(
                status=SolveStatus.OPTIMAL,
                objective=seed_obj,
                x=seed_x,
                solver=relaxation.solver,
                wall_time_s=relaxation.wall_time_s,
                gap=0.0,
            )

    if result is None:
        best_seed = seed_x
        if chain_x is not None and (
            best_seed is None
            or compiled.objective_value(chain_x)
            > compiled.objective_value(best_seed)
        ):
            best_seed = chain_x
        if solver == "bnb":
            result = solve_form_with_bnb(
                compiled.form, time_limit_s=time_limit_s, warm_start=best_seed
            )
        else:
            result = solve_form_with_highs(compiled.form, time_limit_s=time_limit_s)
            if not result.is_feasible and best_seed is not None and (
                result.status is SolveStatus.TIMEOUT
            ):
                # Feasibility fallback: HiGHS ran out of time with no
                # incumbent, but the warm-start seed is a proven
                # feasible point.
                warnings.warn(
                    DegradedResultWarning(
                        f"optimal (sparse route) timed out after "
                        f"{result.wall_time_s:.1f}s with no incumbent; falling "
                        f"back to the warm-start point"
                    ),
                    stacklevel=3,
                )
                result = SolveResult(
                    status=SolveStatus.FEASIBLE,
                    objective=compiled.objective_value(best_seed),
                    x=best_seed,
                    solver="pm-fallback",
                    wall_time_s=result.wall_time_s,
                )

    elapsed = time.perf_counter() - start
    if not result.is_feasible or result.x is None:
        meta = {"status": result.status.value, "solver": result.solver,
                "compile": "sparse"}
        if result.status is SolveStatus.TIMEOUT:
            return _timeout_disposition("sparse", elapsed, raise_on_timeout, meta)
        return _infeasible(meta, elapsed)

    mapping, sdn_pairs = compiled.extract(result.x)
    solution = RecoverySolution(
        algorithm="optimal",
        mapping=mapping,
        sdn_pairs=sdn_pairs,
        solve_time_s=elapsed,
        feasible=True,
        meta={
            "status": result.status.value,
            "solver": result.solver,
            "gap": result.gap,
            "compile": "sparse",
            "certificate": certificate,
            "solver_objective": result.objective,
        },
    )
    solution.meta["objective"] = _canonical_objective(instance, solution)
    if precert is not None:
        solution.meta["precert"] = precert[1]
    if result.solver == "pm-fallback":
        solution.meta["degraded"] = True
        solution.meta["fallback_rung"] = "pm-fallback"
        solution.meta["timeout_elapsed_s"] = elapsed
    return solution


def _validated(
    instance: FMSSMInstance,
    solution: RecoverySolution,
    enforce_delay: bool,
    require_full_recovery: bool,
) -> RecoverySolution:
    """Run the independent validator on a solver route's output.

    Every feasible answer any route returns is checked against the
    instance's constraints (Eqs. 2-6 / 12-14); a violation raises
    :class:`~repro.exceptions.ValidationError` — "the solver said so" is
    not enough.  The check is O(pairs), noise next to the MILP solve.
    """
    if solution.feasible:
        from repro.resilience.validate import check_solution

        # The PM fallback point is feasible but need not certify r >= 1.
        full = require_full_recovery and solution.meta.get("solver") != "pm-fallback"
        check_solution(
            instance,
            solution,
            enforce_delay=enforce_delay,
            require_full_recovery=full,
        )
    return solution


def solve_optimal(
    instance: FMSSMInstance,
    solver: str = "highs",
    time_limit_s: float | None = 600.0,
    require_full_recovery: bool = True,
    enforce_delay: bool = True,
    compile: str = "sparse",
    warm_start: str | None = "pm",
    compiler: object = None,
    raise_on_timeout: bool = False,
    validate: bool = True,
    warm_chain: WarmChain | None = None,
    lp_batch: int | None = None,
) -> RecoverySolution:
    """Solve P′ to optimality and return the recovery solution.

    Returns an *infeasible* :class:`RecoverySolution` (empty, with
    ``feasible=False``) when the problem admits no solution under the
    full-recovery requirement or the solver times out without an
    incumbent — the cases the paper reports as "Optimal has no result".

    Parameters
    ----------
    solver:
        ``"highs"`` (default) or ``"bnb"``.
    compile:
        ``"sparse"`` routes through :mod:`repro.perf.compile` (fast
        path); ``"model"`` through the original DSL (cross-validation).
    warm_start:
        ``"pm"`` seeds the solve with the PM heuristic (incumbent for
        B&B, certificate/fallback for HiGHS) and enables the
        pre-certificates; ``None`` solves cold, straight to the MILP.
    compiler:
        Optional :class:`~repro.perf.compile.FMSSMCompiler` to reuse
        structural caches across scenarios (sparse route only).
    raise_on_timeout:
        When True, a no-incumbent timeout raises
        :class:`~repro.exceptions.RungTimeoutError` (carrying the rung
        and elapsed time) instead of returning an infeasible result —
        this is how the degradation ladder detects a dead rung.  The
        default keeps the historical return-infeasible behaviour but
        emits a :class:`~repro.exceptions.DegradedResultWarning`.
    validate:
        Run the independent validator
        (:mod:`repro.resilience.validate`) on every feasible answer;
        a violated constraint raises
        :class:`~repro.exceptions.ValidationError`.
    warm_chain:
        Optional :class:`WarmChain` threading cross-scenario warm-start
        state through an incremental sweep (sparse route only; ignored
        by the model route).  Never changes non-degraded answers — see
        the :class:`WarmChain` docstring.
    lp_batch:
        Any value >= 1 routes the solve through
        :func:`repro.perf.batch.solve_optimal_batch` (as a batch of
        one) — same answer bit for bit, with ``meta["batch"]``
        provenance added.  Sweeps pass ``lp_batch`` >= 2 to
        :func:`repro.perf.sweep.parallel_sweep` instead, which groups
        same-shaped scenarios into real multi-block batches.  Only the
        sparse route with the PM warm start batches; other
        configurations ignore the knob.
    """
    chaos.check("optimal.solve")
    if (
        lp_batch is not None
        and lp_batch >= 1
        and compile == "sparse"
        and warm_start == "pm"
    ):
        from repro.perf.batch import solve_optimal_batch

        return solve_optimal_batch(
            [instance],
            solver=solver,
            time_limit_s=time_limit_s,
            require_full_recovery=require_full_recovery,
            enforce_delay=enforce_delay,
            compiler=compiler,
            raise_on_timeout=raise_on_timeout,
            validate=validate,
            warm_chain=warm_chain,
        )[0]
    if compile == "sparse":
        solution = _solve_optimal_sparse(
            instance,
            solver=solver,
            time_limit_s=time_limit_s,
            require_full_recovery=require_full_recovery,
            enforce_delay=enforce_delay,
            warm_start=warm_start,
            compiler=compiler,
            raise_on_timeout=raise_on_timeout,
            warm_chain=warm_chain,
        )
        if validate:
            _validated(instance, solution, enforce_delay, require_full_recovery)
        if warm_chain is not None:
            warm_chain.advance(solution)
        return solution
    if compile != "model":
        raise ValueError(f"unknown compile route {compile!r}")

    start = time.perf_counter()
    model, handles = build_fmssm_model(
        instance,
        require_full_recovery=require_full_recovery,
        enforce_delay=enforce_delay,
    )
    result = solve(model, solver=solver, time_limit_s=time_limit_s)
    elapsed = time.perf_counter() - start

    if not result.is_feasible:
        meta = {"status": result.status.value, "solver": result.solver,
                "compile": "model"}
        if result.status is SolveStatus.TIMEOUT:
            return _timeout_disposition("model", elapsed, raise_on_timeout, meta)
        return _infeasible(meta, elapsed)
    solution = extract_solution(instance, handles, result)
    solution.solve_time_s = elapsed
    solution.meta["compile"] = "model"
    solution.meta["solver_objective"] = result.objective
    solution.meta["objective"] = _canonical_objective(instance, solution)
    if validate:
        _validated(instance, solution, enforce_delay, require_full_recovery)
    return solution
