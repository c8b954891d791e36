"""Record the reference answers the output check compares against.

    python3 perfbench/record_reference.py WORKLOAD [WORKLOAD ...]

Runs each workload's sweep on the serial route for every recorded input
(``Workload.inputs``) and writes ``perfbench/reference/<workload>.json.gz``.
For the WAN workloads it also re-verifies that every exact solve closed
through the PM pre-certificate, the property their inputs are chosen
for.  Run it only on a commit whose answers are trusted: later runs are
checked against its output.
"""

from __future__ import annotations

import gzip
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from check import check_steps, record_cases, reference_path  # noqa: E402
from ledger import exact_outcomes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def record(name: str) -> None:
    workload = WORKLOADS[name]
    table = {}
    for key in workload.inputs:
        ctx = workload.build(key)
        ctx.materialize_table()
        out = HERE.parent / ".perfbench_out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as scratch:
            steps = workload.sweep(ctx, 1, Path(scratch))
        cases = record_cases(steps)
        # The recorded answers must pass every other part of the check.
        _, failures = check_steps(ctx, steps, cases)
        if failures:
            raise SystemExit(f"{name} input {key}: {failures[:5]}")
        outcomes = exact_outcomes(steps)
        if name.startswith("wan-") and sum(outcomes.values()) != outcomes["precert"]:
            raise SystemExit(f"{name} input {key}: not all pre-certified {outcomes}")
        table[str(key)] = cases
        print(f"{name} input {key}: {len(cases)} cases", flush=True)
    path = reference_path(name)
    path.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(path, "wb", mtime=0) as handle:
        handle.write(json.dumps(table, sort_keys=True).encode())


if __name__ == "__main__":
    for workload_name in sys.argv[1:] or sorted(WORKLOADS):
        record(workload_name)
