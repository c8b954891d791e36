"""Build the linearized IP (problem P′, Section IV-E) from an instance.

Variables
---------
``x[i,j]``    binary — offline switch ``i`` mapped to controller ``j``.
``w[i,j,l]``  binary — flow ``l`` in SDN mode at switch ``i`` under
              controller ``j``: the paper's ``ω = x·y`` (Eqs. 9–11).
              Created only for programmable pairs (``beta = 1``), since
              Eq. (1) forces SDN mode off elsewhere and such pairs
              contribute nothing.
``r``         continuous ≥ 0 — least programmability of recoverable flows.

The paper's per-pair mode variable ``y[i,l]`` is not created: it is
implied as ``y ≡ Σ_j w[i,j,l]``.  Once Eq. (2) and ``w ≤ x`` hold, the
McCormick rows ``w ≤ y`` and ``x + y − w ≤ 1`` cut off no integer point
and leave the LP relaxation's projection onto ``(x, w, r)`` unchanged
(DESIGN §1.1), so only ``w ≤ x`` is kept.

Constraints
-----------
Eq. (2)   each switch maps to at most one controller;
Eqs. (9)–(11)  ``w[i,j,l] <= x[i,j]`` — the one McCormick row kept;
Eq. (12)  controller spare-capacity budget over SDN pairs;
Eq. (13)  ``pro^l >= r`` for every *recoverable* flow (see
          :mod:`repro.fmssm.instance` for why unrecoverable flows are
          excluded);
Eq. (14)  total switch-controller delay bounded by the ideal delay G;
optional  ``r >= 1`` — the full-recovery requirement used by the paper's
          Optimal ("not interrupting active controllers' normal
          operations" while recovering everyone), which makes tight
          instances genuinely infeasible, as in Fig. 6.

Objective: ``max r + lambda * sum(pbar * w)``.
"""

from __future__ import annotations

from repro.fmssm.instance import FMSSMInstance
from repro.lp.model import LinExpr, Model, Var
from repro.types import ControllerId, FlowId, NodeId

__all__ = ["FMSSMVariables", "build_fmssm_model"]


class FMSSMVariables:
    """Handles to the model's variables, keyed by instance ids."""

    def __init__(self) -> None:
        self.x: dict[tuple[NodeId, ControllerId], Var] = {}
        self.w: dict[tuple[NodeId, ControllerId, FlowId], Var] = {}
        self.r: Var | None = None


def build_fmssm_model(
    instance: FMSSMInstance,
    require_full_recovery: bool = False,
    enforce_delay: bool = True,
) -> tuple[Model, FMSSMVariables]:
    """Construct problem P′ for ``instance``.

    Parameters
    ----------
    instance:
        Ground problem data.
    require_full_recovery:
        Add ``r >= 1``, forcing every recoverable flow to be recovered.
    enforce_delay:
        Include Eq. (14); disable for the delay-constraint ablation.
    """
    model = Model(f"fmssm-N{instance.n_switches}-M{instance.n_controllers}")
    handles = FMSSMVariables()

    for switch in instance.switches:
        for controller in instance.controllers:
            handles.x[(switch, controller)] = model.add_var(
                f"x[{switch},{controller}]", binary=True
            )
    for switch, flow_id in instance.pairs:
        for controller in instance.controllers:
            handles.w[(switch, controller, flow_id)] = model.add_var(
                f"w[{switch},{controller},{flow_id}]", binary=True
            )
    recoverable = instance.recoverable_flows
    if recoverable:
        # Valid tight upper bound: r cannot exceed the weakest flow's
        # achievable programmability (keeps the model bounded even when
        # Eq. 13 would otherwise leave r free).
        r_ub = float(min(instance.max_programmability(f) for f in recoverable))
        r_lb = 1.0 if require_full_recovery else 0.0
    else:
        # Nothing is recoverable: r is identically 0 and the full-recovery
        # requirement is vacuous.
        r_ub = 0.0
        r_lb = 0.0
    handles.r = model.add_var("r", lb=r_lb, ub=r_ub)

    # Eq. (2): each switch maps to at most one controller.
    for switch in instance.switches:
        expr = LinExpr.total(
            (1.0, handles.x[(switch, controller)]) for controller in instance.controllers
        )
        model.add_constraint(expr <= 1, name=f"map[{switch}]")

    # Eqs. (9)-(11): only w <= x.  The rows w <= y and x + y - w <= 1
    # hold for the implied y = sum_c w once Eq. (2) and w <= x do.
    for (switch, controller, flow_id), w_var in handles.w.items():
        model.add_constraint(
            LinExpr.from_term(w_var) - handles.x[(switch, controller)] <= 0,
            name=f"wx[{switch},{controller},{flow_id}]",
        )

    # Eq. (12): controller capacity over SDN pairs (beta folded into the
    # variable set — only beta=1 pairs have w variables).  Vacuous when
    # the instance has no programmable pairs at all.
    if instance.pairs:
        for controller in instance.controllers:
            expr = LinExpr.total(
                (1.0, handles.w[(switch, controller, flow_id)])
                for switch, flow_id in instance.pairs
            )
            model.add_constraint(
                expr <= instance.spare[controller], name=f"cap[{controller}]"
            )

    # Eq. (13): pro^l >= r for recoverable flows.
    assert handles.r is not None
    for flow_id in instance.recoverable_flows:
        terms = [
            (float(instance.pbar[(switch, flow_id)]), handles.w[(switch, controller, flow_id)])
            for switch in instance.pairs_of[flow_id]
            for controller in instance.controllers
        ]
        expr = LinExpr.total(terms) - handles.r
        model.add_constraint(expr >= 0, name=f"pro[{flow_id}]")

    # Eq. (14): total propagation delay bounded by the ideal case G.
    if enforce_delay and handles.w:
        expr = LinExpr.total(
            (instance.delay[(switch, controller)], handles.w[(switch, controller, flow_id)])
            for switch, controller, flow_id in handles.w
        )
        model.add_constraint(expr <= instance.ideal_delay_ms, name="delay")

    # Objective: r + lambda * total programmability.
    total_terms = [
        (instance.lam * instance.pbar[(switch, flow_id)], w_var)
        for (switch, _controller, flow_id), w_var in handles.w.items()
    ]
    objective = LinExpr.from_term(handles.r) + LinExpr.total(total_terms)
    model.set_objective(objective, sense="max")

    return model, handles
