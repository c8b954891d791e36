"""Self-tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import ledger  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from check import check_steps, load_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_and_counts():
    spec = _benchmark_json()
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in end_to_end + per_layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
    # The file names exactly what the code prints, with the same units.
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(ledger.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_self_time_on_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9] > b1 [5, 6], b2 [7, 9]
    rows = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["a1", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b1", 5.0, 6.0, 3],
        ["b2", 7.0, 9.0, 3],
    ]
    assert spans.self_times(rows) == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]
    table = spans.ledger(rows + [["a", 9.5, 10.0, 0]])
    assert table["a"] == {"calls": 2, "self_s": 2.5}
    assert table["root"]["self_s"] == 2.5


def test_tracer_records_parents_and_observers():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    seen = []
    tracer.observers["inner"] = seen.append
    inner = tracer.wrap("inner", lambda x: x + 1)
    with tracer.span("outer"):
        assert inner(1) == 2
    assert [row[0] for row in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0 and seen == [2]


@pytest.fixture(scope="module")
def small_run():
    """wan-store-session input 0, one-failure step, serial route."""
    from workloads import _figure_step

    ctx = WORKLOADS["wan-store-session"].build(0)
    ctx.materialize_table()
    return ctx, [_figure_step(ctx, 1, 1)], load_reference("wan-store-session", 0)


def test_wrappers_are_removed_after_a_traced_run(small_run):
    import importlib

    from repro.baselines import base

    ctx, steps, _ = small_run

    def current():
        names = {}
        for _, target, attr in spans.PATCHES:
            module, _, cls = target.partition(":")
            owner = importlib.import_module(module)
            owner = getattr(owner, cls) if cls else owner
            names[(target, attr)] = vars(owner)[attr]
        for _, name in spans.REGISTRY_PATCHES:
            names[name] = base.get_algorithm(name)
        return names

    before = current()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(current()[key] is not fn for key, fn in before.items())
        from repro.experiments import runner

        runner.run_scenario(ctx, steps[0].results[0].scenario, ("pm", "nearest"))
    finally:
        tracer.uninstall()
    layers = {row[0] for row in tracer.spans}
    assert {"pm.solve", "baselines.nearest", "fmssm.evaluation"} <= layers
    after = current()
    assert all(after[key] is fn for key, fn in before.items())


def test_output_check_passes_and_catches_a_flipped_pair(small_run):
    from repro.fmssm.evaluation import evaluate_solution

    ctx, steps, reference = small_run
    attempted, failures = check_steps(ctx, steps, reference)
    assert attempted == 7 * 5 and failures == []

    for algorithm in ("pm", "optimal"):
        result = steps[0].results[0]
        original = (result.solutions[algorithm], result.evaluations[algorithm])
        solution = original[0]
        flipped = sorted(solution.sdn_pairs)[0]
        corrupt = dataclasses.replace(
            solution, sdn_pairs=set(solution.sdn_pairs) - {flipped}
        )
        instance = ctx.instance(result.scenario)
        result.solutions[algorithm] = corrupt
        result.evaluations[algorithm] = evaluate_solution(instance, corrupt)
        try:
            _, failures = check_steps(ctx, steps, reference)
        finally:
            result.solutions[algorithm], result.evaluations[algorithm] = original
        assert any(algorithm in line for line in failures), algorithm
