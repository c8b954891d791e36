"""The y-free P′ against the paper's literal Eqs. 9–11 form.

The package drops the per-pair mode bit ``y`` and the McCormick rows
``w <= y`` and ``x + y - w <= 1``.  With ``y := Σ_c w`` every y-free
point is a literal point, and the dropped rows remove no integer point,
so both forms must have the same MILP optimum and the same LP bound.
These tests check that on seeded tiny, small and Waxman instances, on
the ATT single failures and on ATT (13, 20), by solving both forms with
HiGHS (:mod:`pprime_literal` builds the literal one).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_tiny_instance
from pprime_literal import is_feasible, lift_point, literal_form
from repro.control.failures import FailureScenario, enumerate_failure_scenarios
from repro.experiments.scenarios import custom_context
from repro.fmssm.optimal import _canonical_objective
from repro.fmssm.solution import RecoverySolution
from repro.lp.highs import solve_form_relaxation, solve_form_with_highs
from repro.lp.solution import SolveStatus
from repro.perf.compile import compile_fmssm
from repro.topology.generators import waxman_topology

ATT_CASES = ((2,), (5,), (6,), (13,), (20,), (22,), (13, 20))


def _waxman_instances():
    """1-/2-failure instances of small seeded Waxman WANs."""
    for seed in (8, 9, 10, 11):
        topology = waxman_topology(12, alpha=0.7, beta=0.4, seed=seed)
        context = custom_context(
            topology, controller_sites=topology.nodes[:3], capacity=250
        )
        for n_failures in (1, 2):
            for scenario in enumerate_failure_scenarios(context.plane, n_failures):
                yield context.instance(scenario)


def _canonical(instance, compiled, x) -> float:
    mapping, sdn_pairs = compiled.extract(x)
    solution = RecoverySolution(
        algorithm="optimal", mapping=mapping, sdn_pairs=sdn_pairs, feasible=True
    )
    return _canonical_objective(instance, solution)


def assert_forms_agree(instance, require_full_recovery=True):
    compiled = compile_fmssm(instance, require_full_recovery=require_full_recovery)
    literal = literal_form(compiled)
    assert literal.n_vars == compiled.form.n_vars + len(compiled.pairs)

    # LP relaxations: the projection argument says the bounds coincide,
    # and the lifted y-free LP point is a literal LP point.
    lp_free = solve_form_relaxation(compiled.form)
    lp_literal = solve_form_relaxation(literal)
    assert lp_free.status is lp_literal.status
    if lp_free.status is SolveStatus.OPTIMAL:
        assert lp_free.objective == pytest.approx(lp_literal.objective, rel=1e-9, abs=1e-12)
        assert is_feasible(literal, lift_point(compiled, lp_free.x))

    # MILPs: equal canonical objectives; the lifted answer is literal-feasible.
    free = solve_form_with_highs(compiled.form)
    lit = solve_form_with_highs(literal)
    assert free.status is lit.status
    if free.status is not SolveStatus.OPTIMAL:
        assert free.status is SolveStatus.INFEASIBLE
        return
    assert _canonical(instance, compiled, free.x) == _canonical(instance, compiled, lit.x)
    lifted = lift_point(compiled, free.x)
    assert is_feasible(literal, lifted)
    y = lifted[compiled.form.n_vars :]
    assert np.all(np.abs(y - np.round(y)) < 1e-6)


class TestLiteralOracle:
    @pytest.mark.parametrize("require_full_recovery", [False, True])
    def test_tiny_instances(self, require_full_recovery):
        for instance in (
            make_tiny_instance(),
            make_tiny_instance(spare={100: 1, 200: 0}),
            make_tiny_instance(spare={100: 1, 200: 1}),
            make_tiny_instance(ideal_delay_ms=3.0),
            make_tiny_instance(lam=0.25),
        ):
            assert_forms_agree(instance, require_full_recovery)

    @pytest.mark.parametrize("require_full_recovery", [False, True])
    def test_small_sweep(self, small_context, require_full_recovery):
        for n_failures in (1, 2):
            for scenario in enumerate_failure_scenarios(small_context.plane, n_failures):
                assert_forms_agree(small_context.instance(scenario), require_full_recovery)

    def test_waxman_instances(self):
        for instance in _waxman_instances():
            assert_forms_agree(instance)

    @pytest.mark.parametrize("failed", ATT_CASES, ids=str)
    def test_att_cases(self, att_context, failed):
        assert_forms_agree(att_context.instance(FailureScenario(frozenset(failed))))

    def test_literal_rows_are_the_dropped_families(self, tiny_instance):
        """The helper adds exactly P columns and two rows per ``w``."""
        compiled = compile_fmssm(tiny_instance, with_names=True)
        literal = literal_form(compiled)
        q = len(compiled.pairs) * len(compiled.controllers)
        assert literal.a_ub.shape[0] == compiled.form.a_ub.shape[0] + 2 * q
        assert literal.var_names[compiled.form.n_vars :] == tuple(
            f"y[{s},{f}]" for s, f in compiled.pairs
        )
        # A y = 1 with its switch mapped and w = 0 is cut off by x + y - w <= 1.
        switch, _ = compiled.pairs[0]
        x = np.zeros(literal.n_vars)
        x[compiled.switch_index[switch] * len(compiled.controllers)] = 1.0
        x[compiled.form.n_vars] = 1.0  # y of pair 0
        assert not is_feasible(literal, x)
        x[compiled.w_col(0, 0)] = 1.0
        assert is_feasible(literal, x)
