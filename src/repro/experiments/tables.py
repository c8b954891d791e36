"""Regeneration of the paper's Table III.

Table III lists, for the default ATT setup, each controller, the switches
in its domain and the number of flows in each switch.  We regenerate the
flow counts from our workload and report them next to the paper's values
so the reproduction gap is visible at a glance.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.scenarios import ExperimentContext

__all__ = ["PAPER_TABLE3_FLOWS", "table3_data"]

#: The paper's Table III "Number of flows" row, keyed by switch id.
PAPER_TABLE3_FLOWS: dict[int, int] = {
    2: 143, 3: 71, 9: 107, 16: 55,
    4: 49, 5: 143, 8: 53, 14: 61,
    0: 81, 1: 49, 6: 89, 7: 97,
    10: 63, 11: 59, 12: 71, 13: 213,
    15: 67, 19: 49, 20: 63,
    17: 125, 18: 49, 21: 81, 22: 111, 23: 49, 24: 57,
}


def table3_data(context: ExperimentContext) -> dict[str, Any]:
    """Regenerate Table III: controller -> switches -> flow counts.

    Returns per-switch measured gamma alongside the paper's value (when
    the switch id exists in the paper's table) plus aggregate totals.
    ``gamma`` and the domain loads come from the context's grounding
    index, the same numbers every grounded instance reads.
    """
    index = context.grounding_index()
    gamma = index.gamma
    rows = []
    for controller_id in context.plane.controller_ids:
        for switch in context.plane.domain(controller_id):
            rows.append(
                {
                    "controller": controller_id,
                    "switch": switch,
                    "label": context.topology.label(switch),
                    "flows": int(gamma.get(switch, 0)),
                    "paper_flows": PAPER_TABLE3_FLOWS.get(switch),
                }
            )
    measured_total = sum(r["flows"] for r in rows)
    paper_total = sum(v for v in PAPER_TABLE3_FLOWS.values())
    domain_loads = index.loads
    capacities = {
        c: context.plane.controller(c).capacity for c in context.plane.controller_ids
    }
    return {
        "rows": rows,
        "measured_total": measured_total,
        "paper_total": paper_total,
        "domain_loads": domain_loads,
        "spare_capacity": {
            c: capacities[c] - domain_loads[c] for c in capacities
        },
    }
