"""The programmability model: ``beta``, ``p`` and ``p̄`` for flows.

Binds a :class:`~repro.routing.path_count.PathCounter` to a set of flows
and exposes the paper's per-(flow, switch) coefficients.  This object is
the single source of truth consumed by the FMSSM formulation, the PM
heuristic, and all baselines — so every algorithm is scored on identical
coefficients.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.exceptions import FlowError
from repro.flows.flow import Flow
from repro.routing.path_count import PathCounter
from repro.types import FlowId, NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.coefficients import CoefficientTable

__all__ = ["ProgrammabilityModel"]


class ProgrammabilityModel:
    """Per-(flow, switch) programmability coefficients.

    Parameters
    ----------
    counter:
        Path-counting strategy (determines the topology too).
    flows:
        The flow population.  Coefficients are defined for pairs
        ``(flow, switch)`` where the switch is a transit switch of the
        flow's path.
    """

    def __init__(self, counter: PathCounter, flows: Iterable[Flow]) -> None:
        self._counter = counter
        self._flows: dict[FlowId, Flow] = {}
        for flow in flows:
            if flow.flow_id in self._flows:
                raise FlowError(f"duplicate flow id {flow.flow_id!r}")
            self._flows[flow.flow_id] = flow
        self._pairs: dict[FlowId, tuple[tuple[NodeId, int], ...]] = {}
        self._table: CoefficientTable | None = None

    @property
    def counter(self) -> PathCounter:
        """The underlying path counter."""
        return self._counter

    @property
    def flows(self) -> tuple[Flow, ...]:
        """All flows, in insertion order."""
        return tuple(self._flows.values())

    def flow(self, flow_id: FlowId) -> Flow:
        """Look up a flow by its ``(src, dst)`` id."""
        try:
            return self._flows[flow_id]
        except KeyError:
            raise FlowError(f"unknown flow id {flow_id!r}") from None

    # ------------------------------------------------------------------
    # Paper coefficients
    # ------------------------------------------------------------------
    def p(self, flow: Flow, switch: NodeId) -> int:
        """``p_i^l`` — forwarding choices at ``switch`` toward the flow's dst.

        Zero when the switch is not a transit switch of the flow.
        """
        if switch not in flow.transit_switches:
            return 0
        return self._counter.count(switch, flow.dst)

    def beta(self, flow: Flow, switch: NodeId) -> int:
        """``beta_i^l`` — 1 iff the flow transits ``switch`` with ≥ 2 paths."""
        return 1 if self.p(flow, switch) >= 2 else 0

    def pbar(self, flow: Flow, switch: NodeId) -> int:
        """``p̄_i^l = beta_i^l * p_i^l`` — programmability gained in SDN mode."""
        p = self.p(flow, switch)
        return p if p >= 2 else 0

    def pbar_pairs(self, flow: Flow) -> tuple[tuple[NodeId, int], ...]:
        """``(switch, p̄)`` at the flow's programmable switches, in path order.

        Cached per flow: grounding reads it for every offline flow of
        every scenario.
        """
        cached = self._pairs.get(flow.flow_id)
        if cached is None:
            cached = tuple(
                (s, value)
                for s in flow.transit_switches
                if (value := self.pbar(flow, s))
            )
            self._pairs[flow.flow_id] = cached
        return cached

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def programmable_switches(self, flow: Flow) -> tuple[NodeId, ...]:
        """Transit switches of ``flow`` where ``beta == 1``."""
        return tuple(s for s in flow.transit_switches if self.beta(flow, s))

    def max_programmability(self, flow: Flow) -> int:
        """Upper bound on ``pro^l``: every programmable switch in SDN mode.

        Summed from the cached :meth:`pbar_pairs` — ``default_lambda``
        and the evaluators query it repeatedly with identical arguments.
        """
        return sum(value for _, value in self.pbar_pairs(flow))

    def flows_programmable_at(self, switch: NodeId) -> tuple[Flow, ...]:
        """Flows with ``beta == 1`` at ``switch`` (the paper's line-7 set).

        Served from the materialized table's inverted index — O(answer)
        instead of an O(|flows|) scan per call.
        """
        return self.table().flows_programmable_at(switch)

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def table(self) -> CoefficientTable:
        """The fully materialized (and cached) coefficient table.

        Building it evaluates every (transit switch, flow) coefficient
        once; afterwards aggregate queries are dictionary lookups and the
        table can be pickled to worker processes for parallel sweeps.
        """
        if self._table is None:
            from repro.perf.coefficients import CoefficientTable

            self._table = CoefficientTable.from_model(self)
        return self._table
