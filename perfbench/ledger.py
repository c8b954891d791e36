"""The per-layer ledger of a traced run, by metric name.

Layer names follow the program's modules (``perf.compile``,
``lp.milp`` …); README.md maps each to the public name it is timed at
and to the end-to-end metric it should move.
"""

from __future__ import annotations

from pathlib import Path

import spans as spans_mod

#: Layers reported with a call count and a self time.
CALL_LAYERS = (
    "fmssm.build", "perf.kernels.prepare", "perf.compile", "pm.solve", "pm.seed",
    "fmssm.optimal", "lp.relax", "lp.milp", "resilience.validate",
    "fmssm.evaluation", "perf.store.get", "perf.store.put",
)
#: Layers reported with a self time only.
SELF_LAYERS = (
    "import", "input", "experiments.context", "perf.coefficients.table",
    "baselines.retroflow", "baselines.pg", "baselines.nearest",
    "experiments.figures", "perf.sweep", "perf.store.canonical",
    "perf.store.decode",
)
#: Every per-layer metric, with its unit, in reporting order.
METRICS: tuple[tuple[str, str], ...] = (
    *((f"{layer}.calls", "count") for layer in CALL_LAYERS),
    *((f"{layer}.self_s", "s") for layer in CALL_LAYERS + SELF_LAYERS),
    ("fmssm.optimal.precert", "count"),
    ("fmssm.optimal.lp_cert", "count"),
    ("fmssm.optimal.milp", "count"),
    ("fmssm.optimal.infeasible", "count"),
    ("fmssm.optimal.certificate_rate", "ratio"),
    ("lp.relax.useful_ratio", "ratio"),
    ("lp.milp.timeouts", "count"),
    ("perf.sweep.speedup_vs_serial", "ratio"),
    ("perf.sweep.payload_bytes", "bytes"),
    ("perf.sweep.encode_s", "s"),
    ("perf.sweep.worker_init_s", "s"),
    ("perf.store.hits", "count"),
    ("perf.store.misses", "count"),
    ("perf.store.dedup", "count"),
    ("perf.store.hit_ratio", "ratio"),
    ("perf.store.bytes", "bytes"),
    ("failed_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_frac", "ratio"),
)


def exact_outcomes(steps) -> dict[str, int]:
    """How each Optimal answer closed, from its ``meta``."""
    out = {"precert": 0, "lp_cert": 0, "milp": 0, "infeasible": 0}
    for step in steps:
        for result in step.results:
            solution = result.solutions.get("optimal")
            if solution is None:
                continue
            if not solution.feasible:
                out["infeasible"] += 1
            elif solution.meta.get("solver") == "precert":
                out["precert"] += 1
            elif solution.meta.get("certificate"):
                out["lp_cert"] += 1
            else:
                out["milp"] += 1
    return out


def store_counts(steps, store_dir: Path) -> dict[str, float]:
    """Store hits/misses/dedup over every step; hit ratio over read steps."""
    from repro.perf.sweep import store_summary

    out = {"hits": 0, "misses": 0, "dedup": 0}
    read_hits = read_total = 0
    for step in steps:
        summary = store_summary(step.results)
        if summary is None:
            continue
        for key in out:
            out[key] += summary[key]
        if not step.label.startswith("fig-"):
            read_hits += summary["hits"]
            read_total += summary["hits"] + summary["misses"]
    out["hit_ratio"] = read_hits / read_total if read_total else 0.0
    out["bytes"] = sum(
        p.stat().st_size for p in store_dir.rglob("*") if p.is_file()
    ) if store_dir.exists() else 0
    return out


def per_layer(tracer, sweep, default, serial, attempted, failed, store_dir,
              milp_timeouts) -> dict[str, tuple[float, str]]:
    """Every :data:`METRICS` entry as ``name -> (value, unit)``.

    ``sweep`` is the traced serial pass, ``default`` the default-route
    pass and ``serial`` the untraced serial pass (``None`` when it is too
    long to repeat; the overhead is then calibrated per span).
    """
    spans = tracer.spans
    rows = spans_mod.ledger(spans)
    own = spans_mod.self_times(spans)
    root = spans[0]
    traced_wall = root[2] - root[1]
    values: dict[str, float] = {}
    for layer in CALL_LAYERS:
        values[f"{layer}.calls"] = rows.get(layer, {}).get("calls", 0)
    for layer in CALL_LAYERS + SELF_LAYERS:
        values[f"{layer}.self_s"] = rows.get(layer, {}).get("self_s", 0.0)

    exact = exact_outcomes(sweep["steps"])
    answers = sum(exact.values())
    for key, count in exact.items():
        values[f"fmssm.optimal.{key}"] = count
    values["fmssm.optimal.certificate_rate"] = (
        (exact["precert"] + exact["lp_cert"]) / answers if answers else 0.0
    )
    relaxations = values["lp.relax.calls"]
    values["lp.relax.useful_ratio"] = exact["lp_cert"] / relaxations if relaxations else 0.0
    values["lp.milp.timeouts"] = milp_timeouts

    if serial is not None:
        overhead = sweep["wall_s"] - serial["wall_s"]
    else:
        sweep_spans = sum(1 for s in spans if s[1] >= sweep["start"])
        overhead = spans_mod.span_cost_s() * sweep_spans
    values["perf.sweep.speedup_vs_serial"] = (
        (sweep["wall_s"] - overhead) / default["wall_s"]
    )
    for key in ("payload_bytes", "encode_s", "worker_init_s"):
        values[f"perf.sweep.{key}"] = default["fanout"][key]
    for key, value in store_counts(sweep["steps"], store_dir).items():
        values[f"perf.store.{key}"] = value

    values["failed_frac"] = failed / attempted
    values["trace.spans"] = len(spans)
    values["trace.overhead_s"] = overhead
    values["trace.unattributed_frac"] = own[0] / traced_wall
    return {name: (values[name], unit) for name, unit in METRICS}
