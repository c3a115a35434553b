"""Machine and build facts recorded with every benchmark result."""
from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def _git(root: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                             text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_state(root: Path) -> dict:
    """HEAD SHA and dirty flag, or nulls when ``root`` is not a git work tree."""
    top = _git(root, "rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != root.resolve():
        return {"git_sha": None, "git_dirty": None}
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {"git_sha": _git(root, "rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status)}


def machine_facts(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        **git_state(root),
    }
