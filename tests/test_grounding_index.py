"""Indexed grounding equals the full-scan oracle, field by field and in order.

:func:`repro.fmssm.build.build_instance` reads offline flows, ``gamma``
and spare capacity from a per-context
:class:`~repro.fmssm.build.GroundingIndex`; ``grounding_oracle`` keeps
the scan over the whole flow population.  Every instance field must
match in value *and* dict iteration order, on both coefficient sources
(materialized table, lazy model) and on a context decoded from the slim
pool payload, as a worker sees it.
"""

from __future__ import annotations

import pickle

import pytest

from grounding_oracle import scan_build_instance
from repro.control.failures import FailureScenario, enumerate_failure_scenarios
from repro.exceptions import CapacityError, ControlPlaneError, ScenarioError
from repro.experiments.scenarios import custom_context, default_att_context
from repro.fmssm.build import GroundingIndex, build_instance
from repro.flows.demands import all_pairs_flows
from repro.flows.paths import switch_flow_counts
from repro.perf.coefficients import CoefficientTable
from repro.topology.generators import grid_topology, waxman_topology
from repro.topology.partition import nearest_site_partition

#: Fields whose dict iteration order downstream code depends on.
DICT_FIELDS = ("flows", "pbar", "spare", "gamma", "delay", "nearest")
SCALAR_FIELDS = ("switches", "controllers", "ideal_delay_ms", "lam")


def assert_same_instance(got, want) -> None:
    for name in SCALAR_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    for name in DICT_FIELDS:
        assert list(getattr(got, name).items()) == list(getattr(want, name).items()), name


def oracle(context, scenario, source=None):
    return scan_build_instance(
        context.plane,
        context.flows,
        context.programmability if source is None else source,
        scenario,
        delay_model=context.delay_model,
    )


def scenarios_of(context, depths=(1, 2, 3)):
    return [s for n in depths for s in enumerate_failure_scenarios(context.plane, n)]


def waxman60_context(seed: int):
    """The Waxman-60 WAN of the ``wan-store-session`` benchmark workload."""
    topology = waxman_topology(60, alpha=0.6, beta=0.35, seed=seed)
    sites = list(range(60 // 8))
    domains = nearest_site_partition(topology, sites)
    gamma = switch_flow_counts(all_pairs_flows(topology, weight="hops"))
    capacity = 2 * max(
        sum(gamma.get(s, 0) for s in members) for members in domains.values()
    )
    return custom_context(topology, sites, capacity, domains=domains)


@pytest.fixture(scope="module")
def att_table_context():
    """A private ATT context whose instances ground from the table."""
    context = default_att_context()
    context.materialize_table()
    return context


class TestIndexedEqualsScan:
    def test_att_table_source(self, att_table_context):
        context = att_table_context
        table = context.materialize_table()
        for scenario in scenarios_of(context):
            assert_same_instance(
                context.instance(scenario), oracle(context, scenario, table)
            )

    def test_att_lazy_model_source(self, att_context):
        index = GroundingIndex(att_context.plane, att_context.flows)
        for scenario in scenarios_of(att_context):
            got = build_instance(
                att_context.plane,
                att_context.flows,
                att_context.programmability,
                scenario,
                delay_model=att_context.delay_model,
                index=index,
            )
            assert_same_instance(got, oracle(att_context, scenario))

    def test_call_without_index(self, att_context):
        for scenario in scenarios_of(att_context, depths=(2,)):
            got = build_instance(
                att_context.plane,
                att_context.flows,
                att_context.programmability,
                scenario,
                delay_model=att_context.delay_model,
            )
            assert_same_instance(got, oracle(att_context, scenario))

    @pytest.mark.parametrize("seed", [0, 2, 7])
    def test_waxman60(self, seed):
        # Input 2 is one of the inputs whose exact solves reach the MILP.
        context = waxman60_context(seed)
        table = context.materialize_table()
        for scenario in scenarios_of(context):
            assert_same_instance(
                context.instance(scenario), oracle(context, scenario, table)
            )

    def test_grid_both_sources(self):
        context = custom_context(grid_topology(4, 5), (0, 7, 12, 19), capacity=2000)
        scenarios = scenarios_of(context)
        for scenario in scenarios:
            assert_same_instance(context.instance(scenario), oracle(context, scenario))
        context._instances.clear()
        table = context.materialize_table()
        for scenario in scenarios:
            assert_same_instance(
                context.instance(scenario), oracle(context, scenario, table)
            )

    def test_worker_context_from_slim_payload(self, att_table_context):
        from repro.perf.executor import _slim_context

        payload = pickle.dumps(
            _slim_context(att_table_context), protocol=pickle.HIGHEST_PROTOCOL
        )
        worker = pickle.loads(payload).rebuild_context()
        assert worker._grounding is None
        table = att_table_context.materialize_table()
        for scenario in scenarios_of(att_table_context):
            assert_same_instance(
                worker.instance(scenario), oracle(att_table_context, scenario, table)
            )


class TestIndex:
    def test_gamma_loads_spare_match_plane(self, att_context):
        index = att_context.grounding_index()
        assert index.gamma == switch_flow_counts(att_context.flows)
        assert index.loads == att_context.plane.domain_loads(att_context.flows)
        assert index.spare == att_context.plane.spare_capacity(att_context.flows)

    def test_flows_at_lists_visiting_flows_in_order(self, small_context):
        index = GroundingIndex(small_context.plane, small_context.flows)
        for node, indices in index.flows_at.items():
            assert [i for i, f in enumerate(small_context.flows) if node in f.path] == indices

    def test_built_once_and_not_pickled(self, small_context):
        index = small_context.grounding_index()
        assert small_context.grounding_index() is index
        small_context.instance(FailureScenario(frozenset({3})))
        assert small_context._grounding is index
        clone = pickle.loads(pickle.dumps(small_context))
        assert clone._grounding is None
        assert clone.grounding_index() is not index

    def test_table_caches_not_pickled(self, small_context):
        table = CoefficientTable.from_model(small_context.programmability)
        flow = small_context.flows[0]
        assert table.pbar_pairs(flow) == tuple(
            (s, table.pbar(flow, s))
            for s in flow.transit_switches
            if table.pbar(flow, s)
        )
        table.flows_programmable_at(flow.src)
        clone = pickle.loads(pickle.dumps(table))
        assert clone._pairs_cache == {} and clone._fpa_cache == {}
        assert clone.pbar_pairs(flow) == table.pbar_pairs(flow)

    def test_table3_reads_the_index(self, att_context):
        from repro.experiments.tables import table3_data

        data = table3_data(att_context)
        index = att_context.grounding_index()
        assert data["domain_loads"] == index.loads
        assert {r["switch"]: r["flows"] for r in data["rows"]} == {
            s: index.gamma[s] for s in att_context.topology.nodes
        }

    def test_index_for_another_plane_rejected(self, att_context, small_context):
        with pytest.raises(ControlPlaneError):
            build_instance(
                att_context.plane,
                att_context.flows,
                att_context.programmability,
                FailureScenario(frozenset({13})),
                index=small_context.grounding_index(),
            )


class TestErrorsOnEveryCall:
    def test_capacity_error_every_call(self):
        # Capacity 10 is far below any controller's baseline load.
        context = custom_context(grid_topology(3, 4), (0, 11), capacity=10)
        scenario = FailureScenario(frozenset({0}))
        for _ in range(3):
            with pytest.raises(CapacityError):
                context.instance(scenario)
            with pytest.raises(CapacityError):
                oracle(context, scenario)
        assert not context._instances

    def test_scenario_errors_after_a_successful_call(self, small_context):
        small_context.instance(FailureScenario(frozenset({3})))
        for failed in ({99}, {0, 3, 7}):
            for _ in range(2):
                with pytest.raises(ScenarioError):
                    small_context.instance(FailureScenario(frozenset(failed)))
                with pytest.raises(ScenarioError):
                    build_instance(
                        small_context.plane,
                        small_context.flows,
                        small_context.programmability,
                        FailureScenario(frozenset(failed)),
                        index=small_context.grounding_index(),
                    )
