"""The one grid driver behind every sweep, scenario, session, network and arena run.

Each workload family evaluates a grid of independent items (operating
points, links, tournament cells) and needs the same fault-tolerant
contract around that fan-out.  :func:`run_grid` owns it once:

* **resume** — completed items are loaded from the grid's checkpoint
  (:class:`~repro.runtime.checkpoint.SweepCheckpoint`, keyed by a
  canonical hash of the grid's identity) and only the pending ones are
  mapped;
* **persist** — every completion is recorded in the checkpoint from the
  supervisor's ``on_result`` hook, so progress survives a crash;
* **flush-on-interrupt** — any exception (a terminal
  :class:`~repro.runtime.errors.TaskFailure`, ``KeyboardInterrupt``)
  flushes what finished before it propagates;
* **complete** — the checkpoint file is removed once every item is
  merged;
* **timing** — a :class:`~repro.runtime.instrument.SweepTiming` covering
  the whole grid (loaded items report zero seconds).

Every item is evaluated as ``runner(payload, item)`` through the one pool
transport, :meth:`~repro.runtime.executor.ParallelExecutor.map_spec`.
Records merge in grid order whatever order items finished in, and JSON
round-trips them bit-exactly, so a resumed or pooled run is bit-identical
to an uninterrupted serial one.  :func:`run_spec_grid` adds the spec
runners' shared cache argument on top.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.runtime.cache import ResultCache, resolve_cache, stable_hash
from repro.runtime.checkpoint import SweepCheckpoint, make_checkpoint, resolve_checkpoint_dir
from repro.runtime.executor import MapReport, ParallelExecutor, resolve_batch
from repro.runtime.instrument import SweepTiming

__all__ = ["run_grid", "run_spec_grid"]

#: the supervisor's per-completion hook, ``on_result(local_index, value)``
OnResult = Callable[[int, object], None]


def _open_checkpoint(
    checkpoint: "SweepCheckpoint | str | bool | None", key: Callable[[], str], total: int
) -> SweepCheckpoint | None:
    """The grid's checkpoint; ``key`` is only computed when one is active."""
    if checkpoint is False or (checkpoint is None and resolve_checkpoint_dir() is None):
        return None
    if isinstance(checkpoint, SweepCheckpoint):
        return checkpoint
    return make_checkpoint(checkpoint, key(), total)


def run_grid(
    key: Callable[[], str],
    items: Sequence[Any],
    runner: Callable[[Any, Any], Any],
    payload: Any = None,
    executor: ParallelExecutor | None = None,
    *,
    checkpoint: "SweepCheckpoint | str | bool | None" = None,
    packets: int | None = None,
    batch_size: int | None = None,
) -> tuple[list[Any], SweepTiming]:
    """Evaluate ``runner(payload, item)`` over ``items`` with checkpoint/resume.

    The pending items go through ``executor.map_spec`` (default: the
    ``REPRO_WORKERS``-configured ``ParallelExecutor()``).  ``key``
    returns the grid's checkpoint key; it is called only when
    checkpointing is active (``checkpoint``: ``None`` defers to
    ``REPRO_CHECKPOINT``, ``False`` forces off, ``True`` / a string names
    the directory, a ready :class:`SweepCheckpoint` is used as is), so
    grids that cannot be hashed still run uncheckpointed.  An item counts
    as finished when its checkpointed record is a dict.

    Returns the records in grid order and the grid's timing; ``packets``
    and ``batch_size`` are copied into the timing unchanged.
    """
    total = len(items)
    ckpt = _open_checkpoint(checkpoint, key, total)
    loaded: dict[int, Any] = {} if ckpt is None else ckpt.load()
    pending = [i for i in range(total) if not isinstance(loaded.get(i), dict)]
    records: list[Any] = [loaded.get(i) for i in range(total)]
    seconds = [0.0] * total
    report = MapReport(values=(), seconds=(), wall_seconds=0.0, workers=1)
    if pending:
        on_result: OnResult | None = None
        if ckpt is not None:
            active = ckpt

            def _persist(local_index: int, value: object) -> None:
                active.record(pending[local_index], value)

            on_result = _persist
        ex = executor if executor is not None else ParallelExecutor()
        try:
            report = ex.map_spec(runner, payload, [items[i] for i in pending], on_result=on_result)
        except BaseException:
            # Keep whatever finished: an interrupted grid resumes from here.
            if ckpt is not None:
                ckpt.flush()
            raise
        for index, value, secs in zip(pending, report.values, report.seconds):
            records[index] = value
            seconds[index] = secs
    if ckpt is not None:
        ckpt.complete()
    timing = SweepTiming(
        wall_seconds=report.wall_seconds,
        point_seconds=tuple(seconds),
        workers=report.workers,
        packets=packets,
        batch_size=batch_size,
        retries=report.retries,
    )
    return records, timing


def run_spec_grid(
    runner: Callable[[dict, Any], dict],
    payload: dict,
    items: Sequence[Any],
    *,
    key_doc: object,
    packets: int,
    executor: ParallelExecutor | None = None,
    cache: "ResultCache | str | bool | None" = None,
    checkpoint: "SweepCheckpoint | str | bool | None" = None,
) -> tuple[list[dict], SweepTiming]:
    """:func:`run_grid` for the spec runners, which share a result cache.

    Workers receive ``{**payload, "cache": False | <root path>}`` and one
    item per task, and call ``runner(payload, item)``.  ``cache`` is
    resolved here (``None`` defers to ``REPRO_CACHE``, ``True`` is the
    default root) so every worker sees the same store.  The checkpoint
    key is ``stable_hash(key_doc)``; ``packets`` is the per-item packet
    count reported in the timing.
    """
    store = resolve_cache(cache)
    return run_grid(
        lambda: stable_hash(key_doc),
        items,
        runner,
        {**payload, "cache": False if store is None else store.root},
        executor,
        checkpoint=checkpoint,
        packets=packets * len(items),
        batch_size=resolve_batch(),
    )
