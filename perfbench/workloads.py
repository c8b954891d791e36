"""The benchmark's three workloads, expressed through the public API.

Each workload has a *setup* (build the experiment context and its
coefficient table) and a *sweep* (the figure-data calls a user makes).
The sweep returns the :class:`Step` list it produced so the output check
can inspect every answer.  ``max_workers=None`` is the program's default
route; ``max_workers=1`` is the in-process serial route the traced run
uses.

Figure data is produced exactly as ``failure_figure_data`` /
``fig7_data`` would produce it on their default route: the benchmark
calls ``run_failure_sweep_parallel`` with the same arguments those
functions pass, then hands the results in through ``results=`` /
``results_by_n=``, which keeps the answers available for checking.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: The five algorithms every workload runs, in reporting order.
ALGORITHMS = ("optimal", "pm", "retroflow", "pg", "nearest")
#: Optimal's per-case time limit: the CLI default.
OPTIMAL_TIME_LIMIT_S = 120.0
#: Waxman parameters of the WAN workloads.
WAXMAN_ALPHA, WAXMAN_BETA = 0.6, 0.35


@dataclass
class Step:
    """One figure-data call: its failure depth, algorithms and answers."""

    label: str
    n_failures: int
    algorithms: tuple[str, ...]
    results: list  # list[ScenarioResult]
    data: dict


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> experiment context (the table is materialized by the caller).
    build: Callable[[int], Any]
    #: (context, max_workers, scratch dir) -> steps.
    sweep: Callable[[Any, "int | None", Path], list[Step]]
    #: Failure depths whose scenarios make the PM decision-latency loop.
    depths: tuple[int, ...]
    #: Generator seeds of the recorded inputs; a benchmark seed picks
    #: ``inputs[seed % len(inputs)]``.  att-paper's input is fixed.
    inputs: tuple[int, ...] = (0,)
    #: Whether the traced run repeats the serial pass untraced to measure
    #: tracing overhead (too long on att-paper: calibrated per span there).
    serial_twin: bool = True
    #: Fresh-process sessions per untraced run (medians across them): a
    #: short workload repeats to average out the machine's noise.
    sessions: int = 1

    def input_seed(self, seed: int) -> int:
        return self.inputs[seed % len(self.inputs)]


def _figure_step(ctx, n_failures, max_workers, store=None, label=None) -> Step:
    from repro.experiments import figures, runner

    results = runner.run_failure_sweep_parallel(
        ctx, n_failures, ALGORITHMS, OPTIMAL_TIME_LIMIT_S,
        max_workers=max_workers, store=store,
    )
    data = figures.failure_figure_data(
        ctx, n_failures, ALGORITHMS, OPTIMAL_TIME_LIMIT_S, results=results
    )
    return Step(label or f"fig-{n_failures}", n_failures, ALGORITHMS, results, data)


def build_att(seed: int):
    from repro.experiments import scenarios

    return scenarios.default_att_context()


def sweep_att(ctx, max_workers, scratch: Path) -> list[Step]:
    from repro.experiments import tables

    tables.table3_data(ctx)
    return [_figure_step(ctx, n, max_workers) for n in (1, 2)]


def build_wan(n: int, seed: int):
    """Waxman WAN: first ``n // 8`` nodes host controllers, nearest-site
    domains, every controller sized at twice the heaviest domain load."""
    from repro.experiments import scenarios
    from repro.flows.demands import all_pairs_flows
    from repro.flows.paths import switch_flow_counts
    from repro.topology.generators import waxman_topology
    from repro.topology.partition import nearest_site_partition

    topology = waxman_topology(n, alpha=WAXMAN_ALPHA, beta=WAXMAN_BETA, seed=seed)
    sites = list(range(n // 8))
    domains = nearest_site_partition(topology, sites)
    gamma = switch_flow_counts(all_pairs_flows(topology, weight="hops"))
    capacity = 2 * max(
        sum(gamma.get(s, 0) for s in members) for members in domains.values()
    )
    return scenarios.custom_context(topology, sites, capacity, domains=domains)


def sweep_store_session(ctx, max_workers, scratch: Path) -> list[Step]:
    """``repro-pm --store DIR``: fig 1-3 (writes), fig7 (reads), export 1-3.

    Every step opens its own :class:`SolveStore` on the same directory,
    as separate CLI commands would; the directory starts empty.
    """
    from repro.experiments import figures, runner
    from repro.perf.store import SolveStore

    root = scratch / "store"
    if root.exists():
        shutil.rmtree(root)
    steps = [
        _figure_step(ctx, n, max_workers, SolveStore(root), f"fig-{n}")
        for n in (1, 2, 3)
    ]
    store = SolveStore(root)
    by_n = {
        n: runner.run_failure_sweep_parallel(
            ctx, n, ("optimal", "pm"), OPTIMAL_TIME_LIMIT_S,
            max_workers=max_workers, store=store,
        )
        for n in (1, 2, 3)
    }
    data = figures.fig7_data(ctx, OPTIMAL_TIME_LIMIT_S, results_by_n=by_n)
    steps += [
        Step(f"fig7-{n}", n, ("optimal", "pm"), by_n[n], data) for n in (1, 2, 3)
    ]
    steps += [
        _figure_step(ctx, n, max_workers, SolveStore(root), f"export-{n}")
        for n in (1, 2, 3)
    ]
    return steps


#: The first sixteen Waxman seeds whose every exact solve closes through
#: the PM pre-certificate (no LP, no MILP) — the property the WAN workload
#: is chosen for.  Seeds 2, 8 and 15 leave some solves to the MILP;
#: ``record_reference.py`` re-verifies the rule.
WAN60_INPUTS = (0, 1, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 16, 17, 18)

WORKLOADS: dict[str, Workload] = {
    "att-paper": Workload(
        "att-paper", build_att, sweep_att, (1, 2), serial_twin=False,
    ),
    "wan-store-session": Workload(
        "wan-store-session", lambda seed: build_wan(60, seed), sweep_store_session,
        (1, 2, 3), inputs=WAN60_INPUTS, sessions=2,
    ),
}
