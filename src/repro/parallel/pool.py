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

Under these rules ``parallel_map(fn, items, workers=1)`` and
``workers=N`` produce the *same floats in the same order*: the serial
path is an in-process loop over the identical items.  Every call, a
one-shot call included, dispatches through one
:class:`~repro.parallel.supervisor.SupervisedPool`, whose serial loop
is that reference.  The same
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
from .faults import FaultPlan, plan_from_env
from .supervisor import RetryPolicy, SupervisedPool

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
    — so ``workers=1`` and ``workers=N`` traces agree lane for lane.
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
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    label: str = "task",
    executor=None,
    policy: Optional[RetryPolicy] = None,
    chaos: Optional[FaultPlan] = None,
    journal=None,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Returns results in item order regardless of completion order.  Every
    call runs through :meth:`SupervisedPool.run
    <repro.parallel.supervisor.SupervisedPool.run>`; with ``workers <= 1``
    (or a single pending item) that is its in-process serial loop — the
    reference behaviour the pool path must reproduce bit-identically.
    A failing item is re-raised in the parent as
    :class:`~repro.parallel.supervisor.ItemFailedError` naming the
    (label, item) cell.

    ``executor`` is a long-lived
    :class:`~repro.parallel.supervisor.SupervisedPool` that a caller
    issuing many small batches (a sweep with one :func:`parallel_map`
    per point) reuses; the caller owns its lifetime and its retry
    policy.  Without one, the call gets a fresh pool of ``workers``
    processes under ``policy``, by default one attempt per item and no
    deadline.  ``chaos`` (or an armed ``REPRO_CHAOS`` environment)
    injects deterministic faults for rehearsal, and a one-shot call
    then defaults to a policy sized to outlast them — see
    :mod:`repro.parallel.faults`.

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
        sub = [payloads[k] for k in pending]
        if executor is not None:
            executor.run(call, sub, indices=pending, total=n,
                         label=label, on_result=_complete)
        else:
            if chaos is None:
                chaos = plan_from_env()
            if policy is None:
                # a one-shot call fails on the first error, with no
                # deadline; an armed chaos plan gets a policy sized to
                # outlast it
                policy = (RetryPolicy(max_attempts=1) if chaos is None
                          else RetryPolicy.for_chaos(chaos))
            workers = min(resolve_workers(workers), len(pending))
            with SupervisedPool(workers, policy=policy, chaos=chaos) as sup:
                sup.run(call, sub, indices=pending, total=n,
                        label=label, on_result=_complete)

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

