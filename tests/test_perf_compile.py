"""Sparse compile vs DSL model equivalence, and the PM-seeded fast path.

The contract of :mod:`repro.perf.compile` is *bit-identity*: the direct
CSR assembly must produce exactly the standard form that
``to_standard_form(build_fmssm_model(instance))`` produces — same
matrices, vectors, bounds, integrality, and variable names — so every
solver property proven for the DSL route transfers wholesale.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_tiny_instance
from repro.control.failures import enumerate_failure_scenarios
from repro.fmssm.evaluation import evaluate_solution, verify_solution
from repro.fmssm.formulation import build_fmssm_model
from repro.fmssm.optimal import solve_optimal
from repro.lp.branch_and_bound import solve_form_with_bnb, validate_start
from repro.lp.solution import SolveStatus
from repro.lp.standard_form import to_standard_form
from repro.perf.compile import FMSSMCompiler, compile_fmssm
from repro.pm import solve_pm


def dsl_form(instance, require_full_recovery=False, enforce_delay=True):
    model, _ = build_fmssm_model(
        instance,
        require_full_recovery=require_full_recovery,
        enforce_delay=enforce_delay,
    )
    return to_standard_form(model)


def assert_forms_identical(sparse_form, model_form):
    assert sparse_form.var_names == model_form.var_names
    # y-free P′: no per-pair y column on either route.
    assert not any(name.startswith("y[") for name in sparse_form.var_names)
    assert sparse_form.maximize == model_form.maximize
    np.testing.assert_array_equal(sparse_form.c, model_form.c)
    np.testing.assert_array_equal(sparse_form.b_ub, model_form.b_ub)
    np.testing.assert_array_equal(sparse_form.lb, model_form.lb)
    np.testing.assert_array_equal(sparse_form.ub, model_form.ub)
    np.testing.assert_array_equal(sparse_form.integrality, model_form.integrality)
    assert sparse_form.a_ub.shape == model_form.a_ub.shape
    assert (sparse_form.a_ub != model_form.a_ub).nnz == 0
    assert sparse_form.a_eq.shape == model_form.a_eq.shape
    assert (sparse_form.a_eq != model_form.a_eq).nnz == 0


class TestFormEquivalence:
    @pytest.mark.parametrize("require_full_recovery", [False, True])
    @pytest.mark.parametrize("enforce_delay", [False, True])
    def test_tiny_bit_identical(self, tiny_instance, require_full_recovery, enforce_delay):
        compiled = compile_fmssm(
            tiny_instance,
            require_full_recovery=require_full_recovery,
            enforce_delay=enforce_delay,
            with_names=True,
        )
        assert_forms_identical(
            compiled.form,
            dsl_form(tiny_instance, require_full_recovery, enforce_delay),
        )

    def test_tiny_variants_bit_identical(self):
        for instance in (
            make_tiny_instance(spare={100: 1, 200: 0}),
            make_tiny_instance(spare={100: 1, 200: 1}),
            make_tiny_instance(ideal_delay_ms=3.0),
            make_tiny_instance(lam=0.25),
        ):
            compiled = compile_fmssm(instance, with_names=True)
            assert_forms_identical(compiled.form, dsl_form(instance))

    def test_small_instance_bit_identical(self, small_instance):
        compiled = compile_fmssm(
            small_instance, require_full_recovery=True, with_names=True
        )
        assert_forms_identical(
            compiled.form, dsl_form(small_instance, require_full_recovery=True)
        )

    def test_names_off_by_default(self, tiny_instance):
        assert compile_fmssm(tiny_instance).form.var_names == ()

    def test_shape_cache_shared_across_scenarios(self, small_context):
        compiler = FMSSMCompiler()
        scenarios = enumerate_failure_scenarios(small_context.plane, 1)
        shapes = set()
        for scenario in scenarios:
            instance = small_context.instance(scenario)
            compile_fmssm(instance, compiler=compiler)
            shapes.add(
                (len(instance.switches), len(instance.controllers), len(instance.pairs))
            )
        # One structural template per distinct (N, M, P) shape, not per scenario.
        assert len(compiler._shapes) == len(shapes)


class TestOptimalRoutes:
    def test_sparse_equals_model_on_small_sweep(self, small_context):
        for scenario in enumerate_failure_scenarios(small_context.plane, 1):
            instance = small_context.instance(scenario)
            via_model = solve_optimal(instance, time_limit_s=60, compile="model")
            via_sparse = solve_optimal(instance, time_limit_s=60, compile="sparse")
            assert via_model.feasible == via_sparse.feasible
            if not via_model.feasible:
                continue
            verify_solution(instance, via_sparse, enforce_delay=True)
            # Bit-identical canonical objectives across routes.
            assert via_model.meta["objective"] == via_sparse.meta["objective"]
            em = evaluate_solution(instance, via_model)
            es = evaluate_solution(instance, via_sparse)
            assert em.least_programmability == es.least_programmability
            assert em.total_programmability == es.total_programmability

    def test_certificate_is_exact_when_claimed(self, tiny_instance):
        sparse = solve_optimal(tiny_instance, compile="sparse", warm_start="pm")
        model = solve_optimal(tiny_instance, compile="model")
        if sparse.meta.get("certificate"):
            assert sparse.meta["objective"] == model.meta["objective"]

    def test_cold_sparse_still_optimal(self, tiny_instance):
        cold = solve_optimal(tiny_instance, compile="sparse", warm_start=None)
        model = solve_optimal(tiny_instance, compile="model")
        assert cold.meta["objective"] == model.meta["objective"]
        assert cold.meta["certificate"] is False

    def test_infeasible_matches_across_routes(self):
        instance = make_tiny_instance(spare={100: 1, 200: 0})
        for compile_route in ("sparse", "model"):
            solution = solve_optimal(
                instance, require_full_recovery=True, compile=compile_route
            )
            assert not solution.feasible
            assert solution.meta["status"] == "infeasible"

    def test_unknown_route_rejected(self, tiny_instance):
        with pytest.raises(ValueError):
            solve_optimal(tiny_instance, compile="turbo")


class TestEmbedExtract:
    def test_pm_embed_roundtrip(self, small_instance):
        compiled = compile_fmssm(small_instance)
        pm = solve_pm(small_instance, enforce_delay=True)
        x = compiled.embed_solution(pm)
        assert x is not None
        assert compiled.is_feasible_point(x)
        mapping, sdn_pairs = compiled.extract(x)
        assert mapping == pm.mapping
        assert sdn_pairs == set(pm.active_pairs())
        evaluation = evaluate_solution(small_instance, pm)
        assert compiled.objective_value(x) == pytest.approx(evaluation.objective)

    def test_embed_rejects_full_recovery_violations(self):
        instance = make_tiny_instance(spare={100: 1, 200: 0})
        compiled = compile_fmssm(instance, require_full_recovery=True)
        pm = solve_pm(instance)
        # PM's partial recovery cannot satisfy r >= 1; the embed refuses.
        assert compiled.embed_solution(pm) is None


class TestSeededBnB:
    def test_seed_never_worse_on_small_sweep(self, small_context):
        """PM-seeded B&B matches the un-seeded optimum on every scenario."""
        for scenario in enumerate_failure_scenarios(small_context.plane, 1):
            instance = small_context.instance(scenario)
            compiled = compile_fmssm(instance, require_full_recovery=True)
            seed = compiled.embed_solution(solve_pm(instance, enforce_delay=True))
            cold = solve_form_with_bnb(compiled.form, time_limit_s=60)
            seeded = solve_form_with_bnb(
                compiled.form, time_limit_s=60, warm_start=seed
            )
            assert seeded.status == cold.status
            if not cold.is_feasible:
                continue
            assert seeded.objective == pytest.approx(cold.objective, abs=1e-9)
            if seed is not None:
                assert seeded.objective >= compiled.objective_value(seed) - 1e-9

    def test_invalid_seed_is_ignored(self, tiny_instance):
        compiled = compile_fmssm(tiny_instance)
        bad = np.full(compiled.form.n_vars, 0.5)  # fractional binaries
        result = solve_form_with_bnb(compiled.form, warm_start=bad)
        assert result.status is SolveStatus.OPTIMAL
        cold = solve_form_with_bnb(compiled.form)
        assert result.objective == pytest.approx(cold.objective, abs=1e-9)

    def test_validate_start_contract(self, tiny_instance):
        compiled = compile_fmssm(tiny_instance)
        form = compiled.form
        assert validate_start(form, np.zeros(3)) is None  # wrong shape
        assert validate_start(form, np.full(form.n_vars, 2.0)) is None  # bounds
        zero = np.zeros(form.n_vars)
        accepted = validate_start(form, zero)  # all-zero point is feasible
        assert accepted is not None
        np.testing.assert_array_equal(accepted, zero)
        fractional = zero.copy()
        fractional[0] = 0.5
        assert validate_start(form, fractional) is None
