"""The full-scan grounding: a test-only oracle for indexed grounding.

:func:`scan_build_instance` grounds one failure scenario the direct way:
it rescans the whole flow population for offline flows, recounts every
switch's ``gamma`` twice (once for the instance, once inside the plane's
spare capacity) and asks the coefficient source for ``p̄`` one
(switch, flow) pair at a time.  :func:`repro.fmssm.build.build_instance`
reads the same data from a per-context
:class:`~repro.fmssm.build.GroundingIndex`; the tests assert the two
agree field by field and in dict iteration order.  Nothing in ``repro``
calls this module.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.control.delay import DelayModel, ideal_recovery_delay
from repro.control.failures import FailureScenario
from repro.control.plane import ControlPlane
from repro.flows.flow import Flow
from repro.flows.paths import switch_flow_counts
from repro.fmssm.build import default_lambda
from repro.fmssm.instance import FMSSMInstance
from repro.types import ControllerId, FlowId, NodeId

__all__ = ["scan_build_instance"]


def scan_build_instance(
    plane: ControlPlane,
    flows: Iterable[Flow],
    programmability,
    scenario: FailureScenario,
    delay_model: DelayModel | None = None,
    lam: float | None = None,
) -> FMSSMInstance:
    """Ground ``scenario`` by scanning every flow (same contract as
    :func:`~repro.fmssm.build.build_instance` without an index)."""
    scenario.validate(plane)
    topology = plane.topology
    delay_model = delay_model or DelayModel(topology, mode="geodesic")

    offline_switches = scenario.offline_switches(plane)
    offline_set = set(offline_switches)
    active = scenario.active_controllers(plane)
    sites = {c: plane.controller(c).site for c in active}

    all_flows = list(flows)
    offline_flows: dict[FlowId, Flow] = {}
    for flow in all_flows:
        if any(node in offline_set for node in flow.path):
            offline_flows[flow.flow_id] = flow

    spare_all = plane.spare_capacity(all_flows)
    spare = {c: spare_all[c] for c in active}

    gamma_all = switch_flow_counts(all_flows)
    gamma = {s: int(gamma_all.get(s, 0)) for s in offline_switches}

    pbar: dict[tuple[NodeId, FlowId], int] = {}
    for flow in offline_flows.values():
        for switch in flow.transit_switches:
            if switch not in offline_set:
                continue
            value = programmability.pbar(flow, switch)
            if value:
                pbar[(switch, flow.flow_id)] = value

    delay = delay_model.matrix(offline_switches, sites)
    nearest: dict[NodeId, ControllerId] = {
        s: delay_model.nearest_controller(s, sites) for s in offline_switches
    }
    ideal = ideal_recovery_delay(delay_model, offline_switches, sites, gamma)

    if lam is None:
        lam = default_lambda(sum(pbar.values()))

    return FMSSMInstance(
        switches=tuple(offline_switches),
        controllers=tuple(active),
        spare=spare,
        delay=delay,
        flows=offline_flows,
        pbar=pbar,
        gamma=gamma,
        ideal_delay_ms=ideal,
        lam=lam,
        nearest=nearest,
    )
