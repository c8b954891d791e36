"""Materialized programmability coefficients, shared across a sweep.

:class:`~repro.routing.programmability.ProgrammabilityModel` computes the
paper's ``p`` / ``beta`` / ``p̄`` on demand through the path counter, and
its aggregate queries (``flows_programmable_at``, ``max_programmability``)
scan the flow population.  That is the right shape for one-off queries,
but a failure sweep grounds C(M, k) instances over the *same* topology,
counter and flows — every scenario re-asks the same questions.

A :class:`CoefficientTable` materializes every coefficient exactly once:

* ``p`` for every (transit switch, flow) pair,
* ``p̄`` for every programmable pair (``p >= 2``),
* the inverted index ``switch → programmable flows`` (the paper's line-7
  set, O(1) per lookup instead of an O(|flows|) scan),
* per-flow ``max_programmability``.

The table is a plain-dict value object: picklable, so a parallel sweep
ships it to worker processes once, and immutable by convention — it never
touches the counter again after construction.  It is a drop-in source of
coefficients for :func:`repro.fmssm.build.build_instance`, which only
needs ``pbar_pairs(flow)``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.exceptions import FlowError
from repro.flows.flow import Flow
from repro.types import FlowId, NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.routing.path_count import PathCounter
    from repro.routing.programmability import ProgrammabilityModel

__all__ = ["CoefficientTable", "CoefficientArrays"]


def _flow_id(flow: Flow | FlowId) -> FlowId:
    """Accept either a :class:`Flow` or its ``(src, dst)`` id."""
    return flow.flow_id if isinstance(flow, Flow) else flow


class CoefficientTable:
    """Fully materialized ``p`` / ``beta`` / ``p̄`` coefficients.

    Build via :meth:`from_counter` or :meth:`from_model`; the constructor
    takes the already-materialized dicts and is mostly an implementation
    detail.  All query methods accept a :class:`Flow` or a flow id.
    """

    def __init__(
        self,
        flows: dict[FlowId, Flow],
        p: dict[tuple[NodeId, FlowId], int],
        pbar: dict[tuple[NodeId, FlowId], int],
        programmable_at: dict[NodeId, tuple[FlowId, ...]],
        max_pro: dict[FlowId, int],
    ) -> None:
        self._flows = flows
        self._p = p
        self._pbar = pbar
        self._programmable_at = programmable_at
        self._max_pro = max_pro
        #: Per-switch cache of the Flow tuples ``flows_programmable_at``
        #: hands out — PM-style loops ask for the same switch repeatedly.
        self._fpa_cache: dict[NodeId, tuple[Flow, ...]] = {}
        #: Per-flow cache of :meth:`pbar_pairs` — every grounding reads it.
        self._pairs_cache: dict[FlowId, tuple[tuple[NodeId, int], ...]] = {}

    def __getstate__(self) -> dict:
        """Drop the lazy caches when pickling (rebuilt on demand)."""
        state = self.__dict__.copy()
        state["_fpa_cache"] = {}
        state["_pairs_cache"] = {}
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_counter(cls, counter: PathCounter, flows: Iterable[Flow]) -> CoefficientTable:
        """Materialize every coefficient for ``flows`` under ``counter``."""
        flow_map: dict[FlowId, Flow] = {}
        p: dict[tuple[NodeId, FlowId], int] = {}
        pbar: dict[tuple[NodeId, FlowId], int] = {}
        programmable_at: dict[NodeId, list[FlowId]] = {}
        max_pro: dict[FlowId, int] = {}
        for flow in flows:
            if flow.flow_id in flow_map:
                raise FlowError(f"duplicate flow id {flow.flow_id!r}")
            flow_map[flow.flow_id] = flow
            total = 0
            for switch in flow.transit_switches:
                value = counter.count(switch, flow.dst)
                if value <= 0:
                    continue
                p[(switch, flow.flow_id)] = value
                if value >= 2:
                    pbar[(switch, flow.flow_id)] = value
                    programmable_at.setdefault(switch, []).append(flow.flow_id)
                    total += value
            max_pro[flow.flow_id] = total
        return cls(
            flows=flow_map,
            p=p,
            pbar=pbar,
            programmable_at={s: tuple(v) for s, v in programmable_at.items()},
            max_pro=max_pro,
        )

    @classmethod
    def from_model(cls, model: ProgrammabilityModel) -> CoefficientTable:
        """Materialize a :class:`ProgrammabilityModel`'s coefficients."""
        return cls.from_counter(model.counter, model.flows)

    # ------------------------------------------------------------------
    # Flow access
    # ------------------------------------------------------------------
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

    @property
    def n_pairs(self) -> int:
        """Number of programmable (switch, flow) pairs in the table."""
        return len(self._pbar)

    # ------------------------------------------------------------------
    # Paper coefficients (mirror ProgrammabilityModel exactly)
    # ------------------------------------------------------------------
    def p(self, flow: Flow | FlowId, switch: NodeId) -> int:
        """``p_i^l`` — forwarding choices at ``switch`` toward the dst."""
        return self._p.get((switch, _flow_id(flow)), 0)

    def beta(self, flow: Flow | FlowId, switch: NodeId) -> int:
        """``beta_i^l`` — 1 iff the flow transits ``switch`` with ≥ 2 paths."""
        return 1 if (switch, _flow_id(flow)) in self._pbar else 0

    def pbar(self, flow: Flow | FlowId, switch: NodeId) -> int:
        """``p̄_i^l = beta_i^l * p_i^l``."""
        return self._pbar.get((switch, _flow_id(flow)), 0)

    def pbar_pairs(self, flow: Flow | FlowId) -> tuple[tuple[NodeId, int], ...]:
        """``(switch, p̄)`` at the flow's programmable switches, in path order.

        Built once per flow and cached.
        """
        fid = _flow_id(flow)
        cached = self._pairs_cache.get(fid)
        if cached is None:
            resolved = flow if isinstance(flow, Flow) else self.flow(fid)
            pbar = self._pbar
            cached = tuple(
                (s, pbar[(s, fid)])
                for s in resolved.transit_switches
                if (s, fid) in pbar
            )
            self._pairs_cache[fid] = cached
        return cached

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def programmable_switches(self, flow: Flow | FlowId) -> tuple[NodeId, ...]:
        """Transit switches of ``flow`` where ``beta == 1``, in path order."""
        resolved = self._flows[_flow_id(flow)]
        return tuple(
            s for s in resolved.transit_switches if (s, resolved.flow_id) in self._pbar
        )

    def max_programmability(self, flow: Flow | FlowId) -> int:
        """Upper bound on ``pro^l``: every programmable switch in SDN mode."""
        return self._max_pro.get(_flow_id(flow), 0)

    def flows_programmable_at(self, switch: NodeId) -> tuple[Flow, ...]:
        """Flows with ``beta == 1`` at ``switch``, via the inverted index.

        The tuple is built once per switch and cached — the table is
        immutable by convention, so repeated queries (PM's per-switch
        recovery loop, the sweep's shape precomputation) return the same
        object without re-walking the index.
        """
        cached = self._fpa_cache.get(switch)
        if cached is None:
            cached = tuple(
                self._flows[f] for f in self._programmable_at.get(switch, ())
            )
            self._fpa_cache[switch] = cached
        return cached


@dataclass(frozen=True)
class CoefficientArrays:
    """A :class:`CoefficientTable` flattened into dense numpy columns.

    The table's dicts pickle as hundreds of kilobytes of tuple keys; the
    same information fits in a handful of int64/float64 arrays, which
    pickle protocol 5 ships *out of band* — the shared-memory transport
    (:mod:`repro.perf.shm`) parks them in one segment every pool worker
    aliases zero-copy.  :meth:`to_table` rebuilds a table whose dicts
    compare equal to the original, entry for entry and in the original
    ``from_counter`` scan order (flow-major, path order), so grounding
    from a rebuilt table is bit-identical to grounding from the source.

    Only integer node ids are representable; :meth:`from_table` raises
    ``TypeError`` for anything else and the caller falls back to the
    pickle route.

    Layout: flows are indexed ``0..L-1`` in table order, with ``src`` /
    ``dst`` / ``demand`` per flow and paths concatenated in ``path_data``
    delimited by ``path_indptr``.  ``p`` entries (value > 0) are stored
    flow-major in ``p_switch`` / ``p_value`` delimited by ``p_indptr`` —
    the ``p̄`` subset, inverted index and per-flow maxima are all
    recomputed from them exactly as ``from_counter`` does.
    """

    src: "np.ndarray"
    dst: "np.ndarray"
    demand: "np.ndarray"
    path_data: "np.ndarray"
    path_indptr: "np.ndarray"
    p_switch: "np.ndarray"
    p_value: "np.ndarray"
    p_indptr: "np.ndarray"

    @classmethod
    def from_table(cls, table: CoefficientTable) -> CoefficientArrays:
        """Flatten ``table`` into columns (integer node ids only)."""
        import numpy as np

        flows = list(table._flows.values())
        src: list[int] = []
        dst: list[int] = []
        demand: list[float] = []
        path_data: list[int] = []
        path_indptr: list[int] = [0]
        p_switch: list[int] = []
        p_value: list[int] = []
        p_indptr: list[int] = [0]
        p = table._p
        for flow in flows:
            for node in flow.path:
                if not isinstance(node, int) or isinstance(node, bool):
                    raise TypeError(
                        f"CoefficientArrays requires integer node ids, got "
                        f"{node!r} in flow {flow.flow_id!r}"
                    )
            src.append(flow.src)
            dst.append(flow.dst)
            demand.append(float(flow.demand))
            path_data.extend(flow.path)
            path_indptr.append(len(path_data))
            fid = flow.flow_id
            for switch in flow.transit_switches:
                value = p.get((switch, fid))
                if value is None:
                    continue
                p_switch.append(switch)
                p_value.append(value)
            p_indptr.append(len(p_switch))
        return cls(
            src=np.asarray(src, dtype=np.int64),
            dst=np.asarray(dst, dtype=np.int64),
            demand=np.asarray(demand, dtype=np.float64),
            path_data=np.asarray(path_data, dtype=np.int64),
            path_indptr=np.asarray(path_indptr, dtype=np.int64),
            p_switch=np.asarray(p_switch, dtype=np.int64),
            p_value=np.asarray(p_value, dtype=np.int64),
            p_indptr=np.asarray(p_indptr, dtype=np.int64),
        )

    def to_table(self) -> CoefficientTable:
        """Rebuild the table, replaying ``from_counter``'s exact scan."""
        src = self.src.tolist()
        dst = self.dst.tolist()
        demand = self.demand.tolist()
        path_data = self.path_data.tolist()
        path_indptr = self.path_indptr.tolist()
        p_switch = self.p_switch.tolist()
        p_value = self.p_value.tolist()
        p_indptr = self.p_indptr.tolist()

        flow_map: dict[FlowId, Flow] = {}
        p: dict[tuple[NodeId, FlowId], int] = {}
        pbar: dict[tuple[NodeId, FlowId], int] = {}
        programmable_at: dict[NodeId, list[FlowId]] = {}
        max_pro: dict[FlowId, int] = {}
        for i in range(len(src)):
            path = tuple(path_data[path_indptr[i] : path_indptr[i + 1]])
            flow = Flow(src=src[i], dst=dst[i], path=path, demand=demand[i])
            fid = flow.flow_id
            flow_map[fid] = flow
            total = 0
            for j in range(p_indptr[i], p_indptr[i + 1]):
                switch, value = p_switch[j], p_value[j]
                p[(switch, fid)] = value
                if value >= 2:
                    pbar[(switch, fid)] = value
                    programmable_at.setdefault(switch, []).append(fid)
                    total += value
            max_pro[fid] = total
        return CoefficientTable(
            flows=flow_map,
            p=p,
            pbar=pbar,
            programmable_at={s: tuple(v) for s, v in programmable_at.items()},
            max_pro=max_pro,
        )
