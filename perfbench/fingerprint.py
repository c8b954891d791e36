"""Machine and build fingerprint recorded with every benchmark result."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas(module) -> str | None:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` (no git process; absent in exports)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest(root: Path) -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def collect(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": len(affinity) if affinity is not None else None,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas(numpy),
        "blas_scipy": _blas(scipy),
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
        "git_commit": _git_commit(root),
        "source_digest": _source_digest(root),
        "seed": seed,
    }
