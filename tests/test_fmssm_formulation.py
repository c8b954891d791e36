"""Tests for the P′ IP formulation."""

from __future__ import annotations

import pytest

from repro.fmssm.formulation import build_fmssm_model
from repro.lp import SolveStatus, solve
from conftest import make_tiny_instance


class TestModelShape:
    def test_variable_counts(self, tiny_instance):
        model, handles = build_fmssm_model(tiny_instance)
        n_pairs = len(tiny_instance.pairs)
        assert len(handles.x) == 2 * 2
        assert not hasattr(handles, "y")  # y is implied as sum_c w
        assert len(handles.w) == n_pairs * 2
        assert model.n_vars == 4 + 2 * n_pairs + 1  # + r
        assert not any(var.name.startswith("y[") for var in model.variables)

    def test_constraint_counts(self, tiny_instance):
        model, handles = build_fmssm_model(tiny_instance)
        expected = (
            2                    # Eq. (2) per switch
            + len(handles.w)     # McCormick w <= x
            + 2                  # Eq. (12) per controller
            + 3                  # Eq. (13) per recoverable flow
            + 1                  # Eq. (14)
        )
        assert model.n_constraints == expected
        families = {c.name.split("[")[0] for c in model.constraints}
        assert families == {"map", "wx", "cap", "pro", "delay"}

    def test_delay_constraint_optional(self, tiny_instance):
        with_delay, _ = build_fmssm_model(tiny_instance, enforce_delay=True)
        without, _ = build_fmssm_model(tiny_instance, enforce_delay=False)
        assert with_delay.n_constraints == without.n_constraints + 1

    def test_full_recovery_sets_r_lower_bound(self, tiny_instance):
        model, handles = build_fmssm_model(tiny_instance, require_full_recovery=True)
        assert handles.r is not None
        assert handles.r.lb == 1.0


class TestSolvedSemantics:
    def test_tiny_optimum(self, tiny_instance):
        """With spare {2, 2} everything is affordable: all four pairs on.

        pro(a)=2, pro(b)=5, pro(c)=4 -> r=2, total=11.
        """
        model, handles = build_fmssm_model(tiny_instance)
        result = solve(model)
        assert result.status is SolveStatus.OPTIMAL
        assert result.value("r") == pytest.approx(2.0)
        total = sum(
            tiny_instance.pbar[(s, f)] * result.value(var.name)
            for (s, c, f), var in handles.w.items()
        )
        assert total == pytest.approx(11.0)

    def test_single_mapping_per_switch(self, tiny_instance):
        model, handles = build_fmssm_model(tiny_instance)
        result = solve(model)
        for switch in tiny_instance.switches:
            total = sum(
                result.value(handles.x[(switch, c)].name)
                for c in tiny_instance.controllers
            )
            assert total <= 1 + 1e-6

    def test_capacity_respected_when_scarce(self):
        instance = make_tiny_instance(spare={100: 1, 200: 1})
        model, handles = build_fmssm_model(instance)
        result = solve(model)
        assert result.status is SolveStatus.OPTIMAL
        for controller in instance.controllers:
            load = sum(
                result.value(handles.w[(s, controller, f)].name)
                for (s, f) in instance.pairs
            )
            assert load <= instance.spare[controller] + 1e-6

    def test_infeasible_when_full_recovery_impossible(self):
        # One unit of spare cannot give all three flows a pair.
        instance = make_tiny_instance(spare={100: 1, 200: 0})
        model, _ = build_fmssm_model(instance, require_full_recovery=True)
        result = solve(model)
        assert result.status is SolveStatus.INFEASIBLE

    def test_zero_budget_still_feasible_without_requirement(self):
        instance = make_tiny_instance(spare={100: 0, 200: 0})
        model, _ = build_fmssm_model(instance)
        result = solve(model)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(0.0)
