"""Pinned ``REPRO_*`` knobs and the host record every run carries.

An inherited knob would change the program under test: a stray
``REPRO_CACHE`` serves arena cells from disk, ``REPRO_FAULTS`` injects
crashes, ``REPRO_BATCH`` resizes the link stacks.  :func:`pin_knobs` drops
every inherited ``REPRO_*`` variable and sets the values below; the grid
runners are additionally handed an explicit executor, cache and checkpoint
by the workloads.  This module must not import ``repro`` or NumPy before
:func:`pin_knobs` has run.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

#: Worker processes per workload; every other workload runs serially in-process.
WORKERS = {"tournament-pool": 2}

#: The knob values every workload runs with.
KNOBS = {
    "REPRO_BATCH": "64",
    "REPRO_RETRIES": "2",
    "REPRO_TIMEOUT": "0",
    "REPRO_BACKEND": "numpy",
    "REPRO_SYNC_RETRIES": "3",
    "REPRO_SYNC_TIMEOUT": "4",
}


def pin_knobs(workers: int, environ: "os._Environ[str] | dict[str, str]" = os.environ) -> dict:
    """Remove every inherited ``REPRO_*`` variable, then set :data:`KNOBS`.

    ``REPRO_WORKERS`` is set to ``workers``; ``REPRO_CACHE``,
    ``REPRO_CHECKPOINT``, ``REPRO_FAULTS`` and ``REPRO_SCALE`` stay unset.
    Returns the knobs now in force.
    """
    for key in [k for k in environ if k.startswith("REPRO_")]:
        del environ[key]
    pinned = dict(KNOBS, REPRO_WORKERS=str(workers))
    environ.update(pinned)
    return pinned


def _git(root: str, *args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "-C", root, *args], capture_output=True, text=True, env=env, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        key: {k: deps[key].get(k) for k in ("name", "version")}
        for key in ("blas", "lapack")
        if isinstance(deps.get(key), dict)
    }


def host_record(root: str, loadavg_before: list[float]) -> dict:
    """CPU count and affinity, load before and now, Python/NumPy/BLAS and git state."""
    import numpy as np

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_before": loadavg_before,
        "loadavg_after": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
    }
