"""In-memory span tracer whose wrappers live in the benchmark, not the program.

The traced run replaces, for its duration only, the names callers
resolve — a module attribute, a class attribute, or an entry of the
algorithm registry — with a wrapper that records a span.  Spans are
``[name, start, end, parent]`` rows kept in a list and written out when
the run ends; :meth:`Tracer.uninstall` puts every original back.

A layer's self time is its spans' durations minus the part of each
interval that child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable

#: (layer, "module[:Class]", attribute) — the names wrapped in a traced run.
#: A function imported into several modules is wrapped at every name its
#: callers resolve.
PATCHES: tuple[tuple[str, str, str], ...] = (
    ("perf.coefficients.table", "repro.experiments.scenarios:ExperimentContext",
     "materialize_table"),
    ("experiments.context", "repro.experiments.scenarios", "default_att_context"),
    ("experiments.context", "repro.experiments.scenarios", "custom_context"),
    ("fmssm.build", "repro.experiments.scenarios:ExperimentContext", "instance"),
    ("perf.kernels.prepare", "repro.perf.sweep", "prepare_instance"),
    ("perf.kernels.prepare", "repro.experiments.runner", "prepare_instance"),
    ("perf.compile", "repro.perf.compile", "compile_fmssm"),
    ("pm.seed", "repro.fmssm.optimal", "solve_pm"),
    ("fmssm.optimal", "repro.perf.sweep", "solve_optimal"),
    ("fmssm.optimal", "repro.experiments.runner", "solve_optimal"),
    ("lp.relax", "repro.fmssm.optimal", "solve_form_relaxation"),
    ("lp.milp", "repro.fmssm.optimal", "solve_form_with_highs"),
    ("resilience.validate", "repro.resilience.validate", "check_solution"),
    ("fmssm.evaluation", "repro.perf.sweep", "evaluate_batch"),
    ("fmssm.evaluation", "repro.perf.sweep", "evaluate_solution"),
    ("fmssm.evaluation", "repro.experiments.runner", "evaluate_batch"),
    ("experiments.figures", "repro.experiments.figures", "failure_figure_data"),
    ("experiments.figures", "repro.experiments.figures", "fig7_data"),
    ("experiments.figures", "repro.experiments.tables", "table3_data"),
    ("experiments.figures", "repro.experiments.runner", "run_failure_sweep_parallel"),
    ("perf.sweep", "repro.perf.sweep", "parallel_sweep"),
    ("perf.store.get", "repro.perf.store:SolveStore", "get"),
    ("perf.store.get", "repro.perf.store:SolveStore", "get_arrays"),
    ("perf.store.put", "repro.perf.store:SolveStore", "put"),
    ("perf.store.put", "repro.perf.store:SolveStore", "put_many"),
    ("perf.store.put", "repro.perf.store:SolveStore", "put_arrays"),
    ("perf.store.canonical", "repro.perf.sweep", "canonical_instance"),
    ("perf.store.canonical", "repro.perf.sweep", "solve_key"),
    ("perf.store.decode", "repro.perf.sweep", "decode_record"),
)

#: (layer, registry name) — algorithms resolved through ``get_algorithm``.
REGISTRY_PATCHES: tuple[tuple[str, str], ...] = (
    ("pm.solve", "pm"),
    ("baselines.retroflow", "retroflow"),
    ("baselines.pg", "pg"),
    ("baselines.nearest", "nearest"),
)


def _resolve(target: str) -> Any:
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records nested spans; installs and removes the wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []
        #: Optional per-layer observers of each wrapped call's return value.
        self.observers: dict[str, Callable[[Any], None]] = {}

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = self.clock()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            observe = self.observers.get(name)
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every name in :data:`PATCHES` and :data:`REGISTRY_PATCHES`."""
        from repro.baselines import base

        try:
            for layer, target, attr in PATCHES:
                owner = _resolve(target)
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(layer, original))
                self._undo.append(functools.partial(setattr, owner, attr, original))
            for layer, name in REGISTRY_PATCHES:
                original = base.get_algorithm(name)
                base.register_algorithm(name, self.wrap(layer, original))
                self._undo.append(
                    functools.partial(base.register_algorithm, name, original)
                )
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every wrapped name, last wrapped first."""
        while self._undo:
            self._undo.pop()()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def ledger(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-layer ``{"calls": n, "self_s": seconds}`` over all spans."""
    out: dict[str, dict[str, float]] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
    return out


def span_cost_s(calls: int = 20000) -> float:
    """Calibrated cost of one wrapped call over a bare one (seconds)."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("calibrate", noop)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - start - bare) / calls)
    return max(best, 0.0)
