"""Parallel execution runtime: supervised pools, caching, checkpoints.

The sweep and link layers are embarrassingly parallel once every packet is
seeded independently (``child_rng(seed, "packet", str(k))``): grid points
and packet chunks can be fanned out over a process pool and merged in
deterministic order, producing *bit-identical* results to a serial run.
This package provides the pieces the analysis layer threads through:

``ParallelExecutor``
    Ordered, fork-based ``map_spec`` — ``runner(payload, item)`` for a
    module-level ``runner`` — over a ``multiprocessing`` pool with a
    serial fallback (the default when ``REPRO_WORKERS`` is unset) —
    *supervised*: per-task wall-clock timeouts (``REPRO_TIMEOUT``),
    bounded retries with deterministic backoff (``REPRO_RETRIES``),
    dead-child detection, and graceful degradation to the serial path
    when the pool is unhealthy.  Terminal failures carry a structured
    taxonomy (``TaskTimeout`` / ``WorkerCrash`` / ``TaskError``).
``ResultCache``
    On-disk memoization of packet-batch statistics keyed by a stable hash
    of (config fingerprint, operating point, seed, packet budget) —
    enabled by ``REPRO_CACHE``.  Entries are checksummed; corrupt files
    are quarantined and recomputed, and ``verify()``/``gc()`` audit and
    clean a cache directory (surfaced as ``repro-bhss cache``).
``SweepCheckpoint``
    Periodic atomic JSON checkpoints of completed grid points, keyed by
    the sweep's canonical spec hash (``REPRO_CHECKPOINT``), enabling
    bit-identical resume of interrupted sweeps.
``run_grid`` / ``run_spec_grid``
    The one grid driver every sweep, scenario, session, network and
    arena run goes through: checkpoint resume of pending items,
    incremental persistence, flush-on-interrupt, completion cleanup and
    ``SweepTiming`` assembly.
``FaultPlan``
    Deterministic fault injection (``REPRO_FAULTS``) used by the chaos
    tests to prove every recovery path above.
``SweepTiming``
    Lightweight instrumentation (per-point wall time, points/sec,
    packets/sec, worker utilization, recovered retries) attached to
    sweep results and surfaced by the benchmark harness; per-layer
    timing lives in ``perfbench`` (see ``perfbench/README.md``).
"""

from repro.runtime.cache import CacheAudit, ResultCache, canonical, resolve_cache, stable_hash
from repro.runtime.checkpoint import SweepCheckpoint, make_checkpoint, resolve_checkpoint_dir
from repro.runtime.errors import TaskError, TaskFailure, TaskTimeout, WorkerCrash
from repro.runtime.executor import (
    MapReport,
    ParallelExecutor,
    resolve_batch,
    resolve_retries,
    resolve_timeout,
    resolve_workers,
    spec_runner_ref,
)
from repro.runtime.faults import FaultPlan, InjectedCrash, inject_faults
from repro.runtime.grid import run_grid, run_spec_grid
from repro.runtime.instrument import SweepTiming

__all__ = [
    "ParallelExecutor",
    "MapReport",
    "ResultCache",
    "CacheAudit",
    "canonical",
    "resolve_cache",
    "stable_hash",
    "SweepCheckpoint",
    "make_checkpoint",
    "resolve_checkpoint_dir",
    "run_grid",
    "run_spec_grid",
    "SweepTiming",
    "TaskFailure",
    "TaskTimeout",
    "WorkerCrash",
    "TaskError",
    "FaultPlan",
    "InjectedCrash",
    "inject_faults",
    "resolve_batch",
    "resolve_retries",
    "resolve_timeout",
    "resolve_workers",
    "spec_runner_ref",
]
