"""Plain-text rendering of figure/table data.

The benchmarks print these tables so the regenerated results can be read
directly from the benchmark output and compared with the paper.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

__all__ = [
    "render_table",
    "render_figure",
    "render_fig7",
    "render_table3",
]


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned ASCII table."""
    columns = [[str(h)] for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row!r}"
            )
        for i, cell in enumerate(row):
            if isinstance(cell, float):
                columns[i].append(f"{cell:.2f}")
            else:
                columns[i].append(str(cell))
    widths = [max(len(v) for v in col) for col in columns]
    lines = []
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    n_rows = len(columns[0]) - 1
    for r in range(1, n_rows + 1):
        lines.append(
            "  ".join(columns[i][r].ljust(widths[i]) for i in range(len(headers)))
        )
    return "\n".join(lines)


def render_figure(data: dict[str, Any]) -> str:
    """Render a Fig. 4/5/6-style dataset as a sequence of tables."""
    algorithms = data["algorithms"]
    sections = [f"=== {data['n_failures']} controller failure(s): {len(data['cases'])} cases ==="]

    # (a) programmability distribution
    rows = []
    for case in data["cases"]:
        for name in algorithms:
            a = case["algorithms"][name]
            s = a["programmability_summary"]
            rows.append(
                (case["case"], name, s.minimum, s.q1, s.median, s.q3, s.maximum)
            )
    sections.append("(a) path programmability of recovered flows (box stats)")
    sections.append(
        render_table(("case", "algorithm", "min", "q1", "median", "q3", "max"), rows)
    )

    # (b) total programmability relative to RetroFlow
    rows = []
    for case in data["cases"]:
        row: list[Any] = [case["case"]]
        for name in algorithms:
            a = case["algorithms"][name]
            rel = a["total_vs_retroflow"]
            if not a["feasible"]:
                row.append("n/a")
            elif rel is None or rel == float("inf"):
                row.append("inf")
            else:
                row.append(f"{100 * rel:.0f}%")
        rows.append(tuple(row))
    sections.append("(b) total programmability relative to RetroFlow")
    sections.append(render_table(("case", *algorithms), rows))

    # (c) recovered flows
    rows = []
    for case in data["cases"]:
        row = [case["case"]]
        for name in algorithms:
            a = case["algorithms"][name]
            row.append("n/a" if not a["feasible"] else f"{a['recovered_flows_pct']:.1f}%")
        rows.append(tuple(row))
    sections.append("(c) recovered programmable flows")
    sections.append(render_table(("case", *algorithms), rows))

    # (d) recovered switches
    rows = []
    for case in data["cases"]:
        row = [case["case"]]
        for name in algorithms:
            a = case["algorithms"][name]
            row.append(
                "n/a" if not a["feasible"] else f"{a['recovered_switches']}/{a['offline_switches']}"
            )
        rows.append(tuple(row))
    sections.append("(d) recovered offline switches")
    sections.append(render_table(("case", *algorithms), rows))

    # (e) control resource used
    rows = []
    for case in data["cases"]:
        row = [case["case"], data["total_spare"][case["case"]]]
        for name in algorithms:
            a = case["algorithms"][name]
            row.append("n/a" if not a["feasible"] else a["resource_used"])
        rows.append(tuple(row))
    sections.append("(e) control resource used (of total spare)")
    sections.append(render_table(("case", "spare", *algorithms), rows))

    # (f) per-flow communication overhead
    rows = []
    for case in data["cases"]:
        row = [case["case"]]
        for name in algorithms:
            a = case["algorithms"][name]
            row.append(
                "n/a" if not a["feasible"] else f"{a['per_flow_overhead_ms']:.3f}"
            )
        rows.append(tuple(row))
    sections.append("(f) per-flow communication overhead (ms)")
    sections.append(render_table(("case", *algorithms), rows))

    return "\n\n".join(sections)


def render_fig7(data: dict[str, Any]) -> str:
    """Render Fig. 7: PM computation time as % of Optimal."""
    sections = ["=== Fig. 7: PM computation time relative to Optimal ==="]
    for n_failures, rows in data["scenarios"].items():
        table_rows = []
        for r in rows:
            table_rows.append(
                (
                    r["case"],
                    f"{1000 * r['pm_time_s']:.2f}",
                    "n/a" if r["optimal_time_s"] is None else f"{r['optimal_time_s']:.3f}",
                    "n/a" if r["pct"] is None else f"{r['pct']:.2f}%",
                    r.get("optimal_route") or "-",
                )
            )
        mean = data["mean_pct"][n_failures]
        sections.append(
            f"{n_failures} failure(s) — mean PM/Optimal: "
            + ("n/a" if mean is None else f"{mean:.2f}%")
        )
        sections.append(
            render_table(
                ("case", "pm (ms)", "optimal (s)", "pm/optimal", "optimal route"),
                table_rows,
            )
        )
    return "\n\n".join(sections)


def render_table3(data: dict[str, Any]) -> str:
    """Render the regenerated Table III next to the paper's values."""
    rows = [
        (
            r["controller"],
            r["switch"],
            r["label"],
            r["flows"],
            "-" if r["paper_flows"] is None else r["paper_flows"],
        )
        for r in data["rows"]
    ]
    table = render_table(
        ("controller", "switch", "city", "flows (measured)", "flows (paper)"), rows
    )
    footer = (
        f"\ntotal measured={data['measured_total']} vs paper={data['paper_total']}\n"
        f"domain loads: {data['domain_loads']}\n"
        f"spare capacity: {data['spare_capacity']}"
    )
    return "=== Table III: controllers, switches, flows ===\n" + table + footer
