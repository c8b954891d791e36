"""Assemble an :class:`~repro.fmssm.instance.FMSSMInstance` from a network.

This is the glue between the substrates (topology, flows, programmability
model, control plane, failure scenario) and the optimization/heuristic
layer.  Every recovery algorithm consumes the instance built here, so all
algorithms are compared on identical ground data.

Grounding splits into a failure-independent part, the
:class:`GroundingIndex` of one flow population on one control plane, and
the per-scenario part in :func:`build_instance`.  A context builds the
index once and reuses it for every scenario, so one grounding reads only
the flows that touch an offline switch instead of rescanning the whole
population.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.control.delay import DelayModel, ideal_recovery_delay
from repro.control.failures import FailureScenario
from repro.control.plane import ControlPlane
from repro.exceptions import ControlPlaneError
from repro.flows.flow import Flow
from repro.fmssm.instance import FMSSMInstance
from repro.routing.programmability import ProgrammabilityModel
from repro.types import ControllerId, FlowId, NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.coefficients import CoefficientTable

__all__ = ["GroundingIndex", "build_instance", "default_lambda"]


def default_lambda(total_max_programmability: int) -> float:
    """A weight that keeps obj1 strictly prioritized over obj2.

    The paper combines ``obj = r + lambda * sum(pro)`` and picks the
    weight "following [17]" so the combined optimum matches the two-stage
    optimum.  Any ``lambda < 1 / max(obj2)`` works: raising ``r`` by one
    unit (its smallest step, since programmabilities are integers) then
    always beats any achievable obj2 gain.  We use half that bound.
    """
    return 0.5 / max(1, total_max_programmability)


class GroundingIndex:
    """The failure-independent grounding data of a flow population.

    Everything here depends on the flows and the control plane only,
    never on which controllers failed:

    * ``flows_at`` — node → ascending indices into ``flows`` (and their
      ids ``ids``) of the flows whose path visits the node;
    * ``gamma`` — per-switch flow counts, destination included (the
      Table III row); a flow path never revisits a node, so a switch's
      count is the length of its index list;
    * ``loads`` — each controller's baseline load, its domain's ``gamma``;
    * :attr:`spare` — each controller's spare capacity ``A_j^rest``.

    The index is a derived view: it must be rebuilt if the flows or the
    plane change.
    """

    def __init__(self, plane: ControlPlane, flows: Iterable[Flow]) -> None:
        self.plane = plane
        self.flows: tuple[Flow, ...] = tuple(flows)
        self.ids: tuple[FlowId, ...] = tuple(flow.flow_id for flow in self.flows)
        flows_at: dict[NodeId, list[int]] = {}
        for index, flow in enumerate(self.flows):
            for node in flow.path:
                flows_at.setdefault(node, []).append(index)
        self.flows_at = flows_at
        self.gamma: Counter[NodeId] = Counter(
            {node: len(indices) for node, indices in flows_at.items()}
        )
        self.loads = plane.loads_from_gamma(self.gamma)
        self._spare: dict[ControllerId, int] | None = None

    @property
    def spare(self) -> dict[ControllerId, int]:
        """Spare capacity per controller given the full workload.

        Raises :class:`~repro.exceptions.CapacityError` on every access
        while a controller's baseline load exceeds its capacity.
        """
        if self._spare is None:
            self._spare = self.plane.spare_from_loads(self.loads)
        return self._spare

    def offline_flows(self, offline_switches: Sequence[NodeId]) -> dict[FlowId, Flow]:
        """Flows whose path visits an offline switch, by id, in population order."""
        flows_at = self.flows_at
        touched: set[int] = set()
        for switch in offline_switches:
            touched.update(flows_at.get(switch, ()))
        flows, ids = self.flows, self.ids
        return {ids[i]: flows[i] for i in sorted(touched)}


def build_instance(
    plane: ControlPlane,
    flows: Iterable[Flow],
    programmability: ProgrammabilityModel | CoefficientTable,
    scenario: FailureScenario,
    delay_model: DelayModel | None = None,
    lam: float | None = None,
    *,
    index: GroundingIndex | None = None,
) -> FMSSMInstance:
    """Ground the FMSSM problem for one failure scenario.

    Parameters
    ----------
    plane:
        Control plane (topology, domains, capacities).
    flows:
        The full flow population; offline flows are selected here.
    programmability:
        Source of ``beta`` / ``p̄`` coefficients — either the lazy
        :class:`ProgrammabilityModel` or a materialized
        :class:`~repro.perf.coefficients.CoefficientTable` (sweeps reuse
        one table across all scenarios).
    scenario:
        Which controllers failed.
    delay_model:
        Switch-controller delay interpretation; defaults to the paper's
        geodesic model.
    lam:
        Objective weight; defaults to :func:`default_lambda` of the
        instance's obj2 upper bound.
    index:
        The :class:`GroundingIndex` of ``plane`` and ``flows``; built
        here when omitted.  Contexts pass the one they keep, and then
        ``flows`` is not read.
    """
    scenario.validate(plane)
    if index is None:
        index = GroundingIndex(plane, flows)
    elif index.plane is not plane:
        raise ControlPlaneError("grounding index was built for a different control plane")
    topology = plane.topology
    delay_model = delay_model or DelayModel(topology, mode="geodesic")

    offline_switches = scenario.offline_switches(plane)
    offline_set = set(offline_switches)
    active = scenario.active_controllers(plane)
    sites = {c: plane.controller(c).site for c in active}

    offline_flows = index.offline_flows(offline_switches)

    # Spare capacity of active controllers given the *full* workload —
    # active controllers keep serving their own domains (the paper's
    # "without interrupting their normal operations").
    spare_all = index.spare
    spare = {c: spare_all[c] for c in active}

    # gamma over offline switches, counting every flow in the switch
    # (Table III convention: destination included).
    gamma_all = index.gamma
    gamma = {s: int(gamma_all.get(s, 0)) for s in offline_switches}

    # beta / p̄ for offline (switch, flow) pairs.
    pbar: dict[tuple[NodeId, FlowId], int] = {}
    pbar_pairs = programmability.pbar_pairs
    for flow_id, flow in offline_flows.items():
        for switch, value in pbar_pairs(flow):
            if switch in offline_set:
                pbar[(switch, flow_id)] = value

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
