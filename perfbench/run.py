"""The repository's benchmark: one command, two workloads, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload on the program's default route and
prints the end-to-end metrics; ``--trace 1`` runs the traced serial twin
(``max_workers=1``) and prints the per-layer ledger.  Every run checks
every answer; a solve that raises aborts the run with a non-zero exit.
The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; a full record (machine fingerprint included) is written
under ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fewest PM decision samples per run: ten beyond the 90th percentile.
MIN_DECISION_SAMPLES = 100
#: Shortest span of the consecutive passes (two at least) whose best
#: event is one sample.
GROUP_S = 0.5
#: Fresh-process setups per untraced run: the orchestrator's own, each
#: session's, and setup-only repeats.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
#: Every end-to-end metric, with its unit, in reporting order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pm_decision_ms_p50", "ms"),
    ("pm_decision_ms_p90", "ms"),
    ("solved_frac", "ratio"),
)


def _import_program() -> None:
    """Import everything the workloads call, so later spans hold no imports."""
    import repro  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.perf.compile  # noqa: F401
    import repro.perf.store  # noqa: F401
    import repro.perf.sweep  # noqa: F401
    import repro.resilience.validate  # noqa: F401
    import repro.topology.generators  # noqa: F401


def setup(workload, seed: int, tracer=None):
    """Imports, input generation, context and coefficient table."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with span("import"):
        _import_program()
    if tracer is not None:
        tracer.install()
    with span("input"):
        ctx = workload.build(workload.input_seed(seed))
    ctx.materialize_table()
    return ctx


def _rusage() -> tuple[float, int, int]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, own.ru_maxrss, kids.ru_maxrss


def timed_sweep(workload, ctx, max_workers, scratch: Path) -> dict:
    cpu0, _, _ = _rusage()
    start = time.perf_counter()
    steps = workload.sweep(ctx, max_workers, scratch)
    wall = time.perf_counter() - start
    cpu1, own_kb, kid_kb = _rusage()
    return {
        "steps": steps,
        "start": start,
        "wall_s": wall,
        "cpu_s": cpu1 - cpu0,
        # ru_maxrss is in KiB on Linux: this process + largest reaped worker.
        "peak_rss_mb": (own_kb + kid_kb) / 1024.0,
    }


class DecisionLoop:
    """PM recovery latency per failure event, closed loop, one caller.

    Each event is ``run_scenario(ctx, scenario, ("pm",))`` from an
    ungrounded instance.  A shared host's CPU speed shifts by up to 1.6x,
    for a fraction of a second or for a minute, so one moment's timing
    says more about the host than the program.  A sample is therefore the
    best of one scenario's events over a group of consecutive passes
    (two at least, spanning :data:`GROUP_S`), and over rounds run at several
    points of the run, between the measured sessions (which run in other
    processes, so the loop warms nothing they reuse).
    """

    def __init__(self, workload, ctx, reference: dict) -> None:
        from repro.control.failures import enumerate_failure_scenarios

        self.ctx = ctx
        self.reference = reference
        self.scenarios = [
            s for n in workload.depths
            for s in enumerate_failure_scenarios(ctx.plane, n)
        ]
        self.group = 1
        #: Per round, per pass, one event time per scenario.
        self.rounds: list[list[list[float]]] = []
        self.wrong: set[str] = set()

    def _pass(self) -> list[float]:
        from check import answer_record, same_record
        from repro.experiments import runner

        times = []
        for scenario in self.scenarios:
            # Unground the instance: each event pays for grounding.
            self.ctx._instances.pop(scenario.failed, None)
            t0 = time.perf_counter()
            result = runner.run_scenario(self.ctx, scenario, ("pm",))
            times.append(time.perf_counter() - t0)
            got = json.loads(json.dumps(answer_record("pm", result.evaluations["pm"])))
            if not same_record(got, self.reference.get(scenario.name, {}).get("pm")):
                self.wrong.add(scenario.name)
        return times

    def warm_up(self) -> None:
        """One untimed pass: fills the context's lazy caches."""
        self._pass()

    def round(self, seconds: float) -> None:
        """Whole groups of passes: the first round for ``seconds`` and at
        least :data:`MIN_DECISION_SAMPLES` samples, later rounds as many.
        The first pass of the first round sizes the groups."""
        passes: list[list[float]] = []
        start = time.perf_counter()
        if self.rounds:
            while len(passes) < len(self.rounds[0]):
                passes.append(self._pass())
        else:
            passes.append(self._pass())
            self.group = max(2, math.ceil(GROUP_S / (time.perf_counter() - start)))
            while (len(passes) % self.group
                   or len(passes) // self.group * len(self.scenarios) < MIN_DECISION_SAMPLES
                   or time.perf_counter() - start < seconds):
                passes.append(self._pass())
        self.rounds.append(passes)

    def samples_ms(self) -> list[float]:
        best: list[float] | None = None
        for passes in self.rounds:
            groups = [passes[k:k + self.group] for k in range(0, len(passes), self.group)]
            samples = [min(times) for group in groups for times in zip(*group)]
            best = samples if best is None else list(map(min, best, samples))
        return [1e3 * t for t in best]

    def failures(self) -> list[str]:
        return [f"pm-decision {name}: differs from reference"
                for name in sorted(self.wrong)]


def _child(args, phase: str) -> dict:
    """Run one phase of this workload in a fresh process; its last JSON line."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--phase", phase,
    ]
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _fanout(steps) -> dict:
    """Summed fan-out stats of the default route's sweeps."""
    from repro.perf.sweep import fanout_summary

    out = {"payload_bytes": 0, "encode_s": 0.0, "worker_init_s": 0.0}
    for step in steps:
        summary = fanout_summary(step.results)
        if summary is None:
            continue
        for key in out:
            out[key] += summary.get(key) or 0
    return out


def run_session(args, workload, scratch: Path, reference: dict) -> dict:
    """One measured session in this fresh process: setup, sweep, check."""
    from check import check_steps

    ctx = setup(workload, args.seed)
    setup_s = time.perf_counter() - _T0
    sweep = timed_sweep(workload, ctx, None, scratch)
    attempted, failures = check_steps(ctx, sweep.pop("steps"), reference)
    return {"setup_s": setup_s, **sweep, "attempted": attempted, "failures": failures}


def run_phase(args, workload, scratch: Path, reference: dict) -> dict:
    """Internal phases, each run in a child process of the main run."""
    if args.phase == "setup":
        setup(workload, args.seed)
        return {"setup_s": time.perf_counter() - _T0}
    if args.phase == "session":
        return run_session(args, workload, scratch, reference)
    ctx = setup(workload, args.seed)
    max_workers = None if args.phase == "default" else 1
    sweep = timed_sweep(workload, ctx, max_workers, scratch)
    return {"wall_s": sweep["wall_s"], "fanout": _fanout(sweep["steps"])}


def run_untraced(args, workload, scratch: Path, reference: dict) -> dict:
    """Sessions in fresh processes, decision rounds in between.

    This process sets up too (one setup sample) and runs a decision round
    before the first child and after each child.  The children are
    ``workload.sessions`` measured sessions, then setup-only repeats up to
    :data:`SETUP_SAMPLES` setups in all.  Session metrics are medians.
    """
    ctx = setup(workload, args.seed)
    setups = [time.perf_counter() - _T0]
    loop = DecisionLoop(workload, ctx, reference)
    loop.warm_up()
    phases = ["session"] * workload.sessions
    phases += ["setup"] * (SETUP_SAMPLES - 1 - len(phases))
    loop.round(args.seconds / (len(phases) + 1))
    sessions = []
    for phase in phases:
        child = _child(args, phase)
        setups.append(child["setup_s"])
        if phase == "session":
            sessions.append(child)
        loop.round(0.0)
    samples = loop.samples_ms()
    failures = [line for s in sessions for line in s["failures"]] + loop.failures()
    attempted = sum(s["attempted"] for s in sessions) + len(loop.scenarios)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(s["wall_s"] for s in sessions),
        "cpu_s": statistics.median(s["cpu_s"] for s in sessions),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
        "pm_decision_ms_p50": statistics.median(samples),
        "pm_decision_ms_p90": statistics.quantiles(samples, n=10)[8],
        "solved_frac": 1.0 - len(failures) / attempted,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    detail = {
        "setup_samples_s": setups,
        "sessions": [
            {k: s[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
            for s in sessions
        ],
        "pm_decision_samples": len(samples),
        "pm_decision_passes_per_sample": loop.group,
        "pm_decision_round_p50_ms": [
            1e3 * statistics.median(t for times in r for t in times)
            for r in loop.rounds
        ],
    }
    return {"attempted": attempted, "failures": failures, "metrics": metrics,
            "detail": detail}


def run_traced(args, workload, scratch: Path, reference: dict) -> dict:
    import ledger
    import spans as spans_mod
    from check import check_steps

    default = _child(args, "default")
    serial = _child(args, "serial") if workload.serial_twin else None
    tracer = spans_mod.Tracer()
    timeouts = []
    # A MILP that stops on the time limit returns "timeout" or "feasible".
    tracer.observers["lp.milp"] = lambda result: timeouts.extend(
        [1] if result.status.value in ("timeout", "feasible") else []
    )
    try:
        with tracer.span("run"):
            ctx = setup(workload, args.seed, tracer)
            sweep = timed_sweep(workload, ctx, 1, scratch)
    finally:
        tracer.uninstall()
    attempted, failures = check_steps(ctx, sweep["steps"], reference)
    metrics = ledger.per_layer(
        tracer, sweep, default, serial, attempted, len(failures),
        store_dir=scratch / "store", milp_timeouts=len(timeouts),
    )
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{args.seed}.spans.json"
    spans_path.write_text(json.dumps(tracer.spans))
    detail = {
        "spans": str(spans_path.relative_to(ROOT)),
        "default_route": default,
        "untraced_serial": serial,
        # For comparison with a measured overhead, which host drift between
        # the two serial passes can swamp.
        "trace_overhead_calibrated_s": spans_mod.span_cost_s() * len(tracer.spans),
    }
    return {"attempted": attempted, "failures": failures, "metrics": metrics,
            "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "session", "default", "serial"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    from check import load_reference
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        reference = load_reference(workload.name, workload.input_seed(args.seed))
        if args.phase is not None:
            print(json.dumps(run_phase(args, workload, scratch, reference)))
            return 0
        run = run_traced if args.trace else run_untraced
        outcome = run(args, workload, scratch, reference)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    import fingerprint

    failures = outcome["failures"]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "input_seed": workload.input_seed(args.seed),
        "trace": args.trace,
        "fingerprint": fingerprint.collect(ROOT, args.seed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
        "detail": outcome["detail"],
        "failures": failures[:50],
    }
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    for line in failures[:10]:
        print(f"FAILED {line}")
    print(f"fingerprint {json.dumps(record['fingerprint'], sort_keys=True)}")
    print(f"detail {json.dumps(record['detail'], default=str)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": outcome["attempted"],
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
