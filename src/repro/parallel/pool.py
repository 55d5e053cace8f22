"""Process-pool execution backbone with deterministic seed sharding.

All experiment drivers fan their per-(configuration, replication) work out
through :func:`parallel_map`.  The contract that makes ``--workers N``
results bit-identical to a serial run is simple and strict:

1. **Seeds are derived before dispatch.**  The driver enumerates its work
   items in a fixed serial order and attaches every random input (a
   :class:`numpy.random.SeedSequence` child, spawned in that same order)
   to the item itself.  Workers never draw from shared random state.
2. **Workers are pure.**  A worker function receives one picklable item
   and returns a picklable result that depends only on the item — no
   globals, no files, no wall clock in the result payload.
3. **Results are re-assembled in submission order.**  Whatever order the
   pool completes items in, :func:`parallel_map` returns ``results[k]``
   for item ``k`` — so downstream aggregation (means over graphs, CSV row
   order) is independent of scheduling.

Under these rules a call on a one-worker pool and a call on an
``N``-worker pool produce the *same floats in the same order*: every
call dispatches through the caller's
:class:`~repro.parallel.supervisor.SupervisedPool`, and a one-worker
pool is an in-process loop over the identical items, the reference
behaviour.  The same
three rules make the fault-tolerance layer free: a retried item reruns
the same pure function on the same attached seed, and a journalled item
replays to the same value, so supervision and checkpoint/resume change
*nothing* about the numbers (see ``README.md`` next to this module).

The supervised pool runs on
:class:`concurrent.futures.ProcessPoolExecutor`, so worker functions
must be module-level (picklable by reference).  Wall-clock
fields (mapper ``elapsed_s``) are of course still nondeterministic; the
equivalence guarantee covers every seed-derived quantity.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, TypeVar, Union

import numpy as np

from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .supervisor import SupervisedPool

__all__ = ["parallel_map", "resolve_workers", "spawn_seeds"]

T = TypeVar("T")
R = TypeVar("R")

#: distinguishes "not journalled" from a journalled None result
_MISSING = object()


def resolve_workers(workers: Optional[int], default: int = 1) -> int:
    """Normalize a ``--workers`` request into an effective pool size.

    ``None`` means "use the configured default" (the ``parallel_workers``
    dim of the active :class:`~repro.experiments.config.ScaleConfig`);
    ``0`` or negative means "one worker per CPU".  The result is always
    at least 1.
    """
    if workers is None:
        workers = default
    workers = int(workers)
    if workers <= 0:
        workers = os.cpu_count() or 1
    return max(1, workers)


def spawn_seeds(
    seed: Union[int, np.random.SeedSequence], n: int
) -> List[np.random.SeedSequence]:
    """Spawn ``n`` independent seed-sequence children in serial order.

    This is the sharding half of the contract: call it once, in the
    driver's enumeration order, and attach ``seeds[k]`` to work item
    ``k`` — never spawn inside a worker.
    """
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    return root.spawn(n)


def _observed_call(payload):
    """Run one work item under fresh, item-local observability state.

    Module-level so the pool can pickle it by reference.  The item's
    spans and metrics snapshot ship back with its result; the parent
    merges them **in submission order** (see :func:`parallel_map`), so
    the merged trace structure is identical for any pool size.  Used on
    the serial path too — the parent's tracer is set aside for the call
    — so one-worker and ``N``-worker traces agree lane for lane.
    """
    fn, item = payload
    prev_tracer = _trace.disable()
    prev_registry = _metrics.disable()
    tracer = _trace.enable()
    registry = _metrics.enable()
    try:
        result = fn(item)
    finally:
        _trace.enable(prev_tracer) if prev_tracer is not None else _trace.disable()
        (_metrics.enable(prev_registry) if prev_registry is not None
         else _metrics.disable())
    # worker->parent observability merge: this IS the obs plumbing,
    # not an algorithm reading its own telemetry
    return result, tracer.spans, registry.snapshot()  # repro-lint: disable=OBS001


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    pool: SupervisedPool,
    label: str = "task",
    progress: Optional[Callable[[str], None]] = None,
    journal=None,
) -> List[R]:
    """Map ``fn`` over ``items`` on the caller's ``pool``.

    Returns results in item order regardless of completion order.  Every
    call runs through :meth:`SupervisedPool.run
    <repro.parallel.supervisor.SupervisedPool.run>`; on a one-worker
    pool that is its in-process serial loop — the reference behaviour
    the pooled path must reproduce bit-identically.  The caller owns the
    pool's lifetime and reuses it across batches (a sweep issues one
    call per point); the pool alone decides retries, deadlines and any
    chaos plan.  A failing item is re-raised in the parent as
    :class:`~repro.parallel.supervisor.ItemFailedError` naming the
    (label, item) cell.

    ``journal`` (a :class:`~repro.parallel.journal.SweepJournal` or a
    scoped view) checkpoints completed items under ``"{label}:{index}"``
    keys and, on resume, replays journalled results without recomputing
    them — byte-identical by the seed-sharding contract.
    """
    items = list(items)
    n = len(items)
    if n == 0:
        return []
    # With observability on, every item runs under _observed_call and
    # its spans/metrics are merged back here in submission order (a
    # deterministic structure however the pool schedules).  The wrapped
    # payload changes nothing about the item or its seeds, so results
    # remain bit-identical to an unobserved run.
    observed = _trace.enabled()
    anchor = _trace.get_tracer()._clock() if observed else 0
    call = _observed_call if observed else fn
    payloads = [(fn, item) for item in items] if observed else items

    results: List = [None] * n
    fresh: dict = {}               # index -> (spans, snapshot) this run
    done_count = 0
    pending = list(range(n))
    if journal is not None:
        pending = []
        for k in range(n):
            hit = journal.get(f"{label}:{k}", _MISSING)
            if hit is _MISSING:
                pending.append(k)
            else:
                results[k] = hit
                done_count += 1

    def _complete(pos: int, payload) -> None:
        """Fold one finished item (journal, progress, span bookkeeping)."""
        nonlocal done_count
        k = pending[pos]
        if observed:
            value, spans, snapshot = payload
            fresh[k] = (spans, snapshot)
        else:
            value = payload
        results[k] = value
        if journal is not None:
            # the journal stores the bare value: resume must work
            # whether or not the next run observes
            journal.record(f"{label}:{k}", value)
        done_count += 1
        if progress is not None:
            progress(f"{label} {done_count}/{n}")

    if pending:
        pool.run(call, [payloads[k] for k in pending], indices=pending,
                 total=n, label=label, on_result=_complete)

    if observed:
        _merge_observed(fresh, n, label, anchor)
    return results


def _merge_observed(fresh: dict, n: int, label: str, anchor_ns: int) -> None:
    """Fold per-item ``(spans, metrics)`` pairs into the parent
    tracer/registry in item order (journal-replayed items executed in an
    earlier run and contribute nothing)."""
    tracer = _trace.get_tracer()
    registry = _metrics.get_registry()
    for k in range(n):
        entry = fresh.get(k)
        if entry is None:
            continue
        spans, snapshot = entry
        if tracer is not None:
            tracer.merge(spans, label=f"{label} {k}", anchor_ns=anchor_ns)
        if registry is not None:
            registry.merge(snapshot)

