"""The full-recovery pre-certificate: an assignment probe in place of the MILP.

When the total spare capacity covers every programmable pair, a
switch→controller remap that serves all of them reaches the
combinatorial bound, so it is provably optimal.  These tests pin that
the probe's answers are sound (a cold HiGHS solve agrees on the
objective), that it stays out of the way when it cannot apply, that the
ATT cases it closes never reach the P′ MILP, that the batched route
returns the same answers bit for bit, and that Fig. 7 names the route.
"""

from __future__ import annotations

import pytest

from repro.control.failures import FailureScenario, enumerate_failure_scenarios
from repro.exceptions import ChaosError
from repro.experiments.figures import fig7_data
from repro.experiments.report import render_fig7
from repro.experiments.runner import run_failure_sweep
from repro.experiments.scenarios import custom_context
from repro.fmssm import optimal
from repro.fmssm.optimal import (
    WarmChain,
    _canonical_objective,
    _combinatorial_bound,
    _full_recovery_point,
    solve_optimal,
)
from repro.perf.batch import _spare_positive_subset
from repro.perf.compile import compile_fmssm
from repro.perf.store import SolveStore
from repro.perf.sweep import parallel_sweep, store_summary
from repro.resilience import chaos
from repro.resilience.validate import check_solution
from repro.topology.generators import waxman_topology
from conftest import make_tiny_instance

#: ATT 1-/2-failure cases the probe closes (PM's seed falls short there).
ATT_PROBE_CASES = ((6,), (2, 5), (2, 22), (6, 22))
#: ATT 2-failure cases whose optimum lies below the bound: still MILP.
ATT_MILP_CASES = ((5, 20),)


def _att(att_context, failed):
    return att_context.instance(FailureScenario(frozenset(failed)))


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


class TestSoundness:
    def test_waxman_probe_matches_cold_highs(self):
        fired = 0
        for instance in _waxman_instances():
            point = _full_recovery_point(instance, True, None)
            if point is None:
                continue
            fired += 1
            check_solution(
                instance, point, enforce_delay=True, require_full_recovery=True
            )
            assert _canonical_objective(instance, point) == pytest.approx(
                _combinatorial_bound(instance), abs=1e-12
            )
            cold = solve_optimal(instance, warm_start=None)
            assert cold.meta["solver"] == "highs"
            assert _canonical_objective(instance, point) == cold.meta["objective"]
        assert fired >= 10

    def test_att_single_failure_probe_matches_cold_highs(self, att_context):
        instance = _att(att_context, (6,))
        solution = solve_optimal(instance)
        assert solution.meta["solver"] == "precert"
        assert solution.meta["precert"] == "full-recovery"
        check_solution(
            instance, solution, enforce_delay=True, require_full_recovery=True
        )
        cold = solve_optimal(instance, warm_start=None)
        assert cold.meta["solver"] == "highs"
        assert solution.meta["objective"] == cold.meta["objective"]

    def test_every_pair_active_and_pairless_switches_unmapped(self, att_context):
        instance = _att(att_context, (2, 22))
        point = _full_recovery_point(instance, True, None)
        assert point.sdn_pairs == set(instance.pairs)
        assert set(point.mapping) == {s for s in instance.switches if instance.pairs_at[s]}
        assert all(instance.spare[c] > 0 for c in point.mapping.values())


class TestProbeGates:
    def test_att_three_failures_lack_spare(self, att_context):
        for scenario in enumerate_failure_scenarios(att_context.plane, 3):
            instance = att_context.instance(scenario)
            assert instance.total_spare < len(instance.pairs)
            assert _full_recovery_point(instance, True, None) is None

    def test_infeasible_delay_budget(self):
        # Serving all four pairs costs at least 2·1 + 2·2 = 6 ms > G.
        instance = make_tiny_instance(ideal_delay_ms=3.0)
        assert _full_recovery_point(instance, True, None) is None

    def test_ignores_delay_budget_when_not_enforced(self):
        instance = make_tiny_instance(ideal_delay_ms=3.0)
        point = _full_recovery_point(instance, False, None)
        # The delay sum stays the tie-break: each switch at its nearest.
        assert point.mapping == {1: 100, 2: 200}
        assert point.sdn_pairs == set(instance.pairs)
        check_solution(instance, point, enforce_delay=False)

    def test_total_spare_is_not_enough(self):
        # 4 units for 4 pairs, but two 2-pair switches do not pack into 3 + 1.
        instance = make_tiny_instance(spare={100: 3, 200: 1})
        assert instance.total_spare == len(instance.pairs)
        assert _full_recovery_point(instance, True, None) is None

    def test_spare_zero_controllers_are_never_used(self):
        instance = make_tiny_instance(spare={100: 4, 200: 0})
        point = _full_recovery_point(instance, True, None)
        assert point.mapping == {1: 100, 2: 100}

    def test_cold_solve_skips_the_probe(self):
        instance = make_tiny_instance(spare={100: 4, 200: 0})
        assert solve_optimal(instance, warm_start=None).meta["solver"] == "highs"


class TestNoMilp:
    """The ATT cases the pre-certificates close never reach P′ solvers."""

    @pytest.fixture
    def no_pprime_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("P' solver called on a pre-certified case")

        monkeypatch.setattr(optimal, "solve_form_with_highs", refuse)
        monkeypatch.setattr(optimal, "solve_form_relaxation", refuse)

    @pytest.mark.parametrize(
        "failed",
        [(c,) for c in (2, 5, 6, 13, 20, 22)] + [(2, 5), (2, 22), (6, 22)],
    )
    def test_closes_without_milp(self, att_context, no_pprime_solver, failed):
        instance = _att(att_context, failed)
        chain = WarmChain()
        solution = solve_optimal(instance, warm_chain=chain)
        assert solution.meta["solver"] == "precert"
        assert solution.meta["precert"] in ("pm", "full-recovery")
        assert solution.meta["certificate"] is True
        assert chain.stats["precertificates"] == 1

    def test_highs_chaos_fires_only_on_milp_cases(self, att_context):
        """A ``highs.solve`` raise plan trips exactly the solves that
        still need the MILP; the probe is not a ``highs.solve`` site."""
        raised = []
        with chaos.inject(chaos.Fault("highs.solve", "raise-error", count=None)):
            for failed in ATT_PROBE_CASES + ATT_MILP_CASES:
                try:
                    solution = solve_optimal(_att(att_context, failed))
                except ChaosError:
                    raised.append(failed)
                else:
                    assert solution.meta["precert"] == "full-recovery"
        assert raised == list(ATT_MILP_CASES)


class TestRoutes:
    def test_lp_batch_matches_single_solve(self, att_context):
        scenarios = [
            FailureScenario(frozenset(f))
            for f in ((2, 5), (2, 13), (2, 22), (5, 20), (6, 22))
        ]
        single = parallel_sweep(att_context, scenarios, ("optimal",), max_workers=1)
        batched = parallel_sweep(
            att_context, scenarios, ("optimal",), max_workers=1, lp_batch=2
        )
        routes = []
        for one, many in zip(single, batched):
            a, b = one.solutions["optimal"], many.solutions["optimal"]
            assert b.mapping == a.mapping
            assert b.sdn_pairs == a.sdn_pairs
            assert b.feasible == a.feasible
            assert {k: v for k, v in b.meta.items() if k != "batch"} == a.meta
            routes.append((b.meta.get("precert"), b.meta["batch"]["route"]))
        assert routes == [
            ("full-recovery", "precert"),
            ("pm", "precert"),
            ("full-recovery", "precert"),
            (None, "fallback"),
            ("full-recovery", "precert"),
        ]

    def test_store_round_trips_provenance(self, att_context, tmp_path):
        scenarios = [FailureScenario(frozenset({2, 22}))]
        cold = parallel_sweep(
            att_context, scenarios, ("optimal",), max_workers=1,
            store=SolveStore(tmp_path),
        )
        warm = parallel_sweep(
            att_context, scenarios, ("optimal",), max_workers=1,
            store=SolveStore(tmp_path),
        )
        assert store_summary(warm)["hits"] == 1
        before, after = cold[0].solutions["optimal"], warm[0].solutions["optimal"]
        assert after.meta["precert"] == before.meta["precert"] == "full-recovery"
        assert after.mapping == before.mapping
        assert after.sdn_pairs == before.sdn_pairs

    def test_embeds_in_the_spare_reduced_form(self):
        """Batch compiles without spare-zero controllers; the probe's point
        never uses them, so it embeds and extracts the same either way."""
        instance = make_tiny_instance(spare={100: 4, 200: 0})
        point = _full_recovery_point(instance, True, None)
        subset = _spare_positive_subset(instance)
        assert subset == (100,)
        for controllers in (None, subset):
            compiled = compile_fmssm(
                instance, require_full_recovery=True, controller_subset=controllers
            )
            x = compiled.embed_solution(point)
            assert x is not None
            assert compiled.extract(x) == (point.mapping, point.sdn_pairs)


class TestFig7Route:
    def test_rows_name_the_optimal_route(self, small_context):
        by_n = {
            n: run_failure_sweep(small_context, n, ("optimal", "pm"), 30.0)
            for n in (1, 2)
        }
        by_n[3] = []
        data = fig7_data(small_context, results_by_n=by_n)
        for n in (1, 2):
            for row, result in zip(data["scenarios"][n], by_n[n]):
                solution = result.solutions["optimal"]
                assert row["optimal_route"] == solution.meta["solver"]
        routes = {r["optimal_route"] for rows in data["scenarios"].values() for r in rows}
        assert "precert" in routes
        assert "precert" in render_fig7(data)
