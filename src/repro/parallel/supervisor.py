"""Supervised pool execution: retries, timeouts, rebuilds, degradation.

:class:`SupervisedPool` wraps a :class:`~concurrent.futures.ProcessPoolExecutor`
with the failure handling the bare pool lacks:

- **bounded retries with exponential backoff** — a transient worker
  exception requeues the item up to the pool's attempt budget;
  exhaustion raises :class:`ItemFailedError` naming the item;
- **per-item timeouts** — in-flight submissions are capped at the pool
  width so a deadline measures *running* time; a hung worker cannot be
  cancelled through the executor API, so expiry kills the worker
  processes and rebuilds the pool, recharging only the expired item's
  attempt counter;
- **BrokenProcessPool recovery** — a crashed worker (segfault, OOM kill,
  injected SIGKILL) breaks every in-flight future; the supervisor
  rebuilds the executor and resubmits only the outstanding items,
  charging an attempt to the items an armed plan crashed (or, when no
  plan names one, to every broken item);
- **graceful degradation** — after :data:`MAX_POOL_REBUILDS` *consecutive*
  rebuilds without a single completed item, the pool gives up on process
  parallelism and finishes the remaining items in-process.

None of this can change results: every item carries its own
:class:`~numpy.random.SeedSequence` (the seed-sharding contract in
``README.md`` next to this module), so a retried item reruns the same
pure function on the same seed — results are independent of *when,
where, or how many times* an item executes.

The pool has one retry rule.  Without a chaos plan an item gets
:data:`MAX_ATTEMPTS` attempts and no deadline.  With a :class:`FaultPlan`
armed (passed as ``chaos=`` or read from ``REPRO_CHAOS``) it gets
``max(MAX_ATTEMPTS, plan.max_faults + 1)`` attempts and the plan's
``timeout_s`` as its deadline, so an injected hang is cut rather than
slept through.  An item is charged only for its own faults, so the plan
alone can never exhaust its budget.  Supervision is visible only
through observability (``parallel.retries`` / ``parallel.timeouts`` /
``parallel.pool_rebuilds`` counters, a ``parallel.attempts`` histogram,
``parallel.retry`` instants) and, of course, wall-clock time.

The module deliberately reads the monotonic clock and sleeps between
retries — it is control-plane code, never on an algorithm path; the
inline pragmas below mark the sanctioned exemptions from DET002/PAR002.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, List, Optional, Sequence

from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .faults import FaultPlan, plan_from_env

__all__ = ["ItemFailedError", "SupervisedPool"]


#: attempts per item when no chaos plan is armed
MAX_ATTEMPTS = 3
#: backoff before retry ``r`` (0-based): ``BASE * FACTOR**r``, capped at MAX
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 2.0
#: consecutive rebuilds without a completed item before degrading to serial
MAX_POOL_REBUILDS = 3


def backoff_s(retry: int) -> float:
    """Bounded exponential delay before retry number ``retry`` (0-based)."""
    return min(BACKOFF_MAX_S, BACKOFF_BASE_S * BACKOFF_FACTOR ** retry)


class ItemFailedError(RuntimeError):
    """One work item exhausted its retry budget.

    Subclasses :class:`RuntimeError` and embeds the original exception
    text, so existing ``pytest.raises(RuntimeError, match=...)`` style
    handling keeps working while the message now names the offending
    (label, item) cell.
    """

    def __init__(self, label: str, index: int, total: int, attempts: int,
                 cause: BaseException):
        super().__init__(
            f"{label} item {index + 1}/{total} failed after {attempts} "
            f"attempt(s): {cause!r}"
        )
        self.label = label
        self.index = index
        self.total = total
        self.attempts = attempts
        self.cause = cause


def _supervised_call(payload):
    """Worker-side entry: inject any planned fault, then run the item.

    Module-level so the pool pickles it by reference.  The chaos check
    happens *inside the worker* so crash/hang faults genuinely take the
    process down — which is the failure mode being rehearsed.
    """
    fn, item, plan, label, index, attempt = payload
    if plan is not None:
        fault = plan.fault_for(label, index, attempt)
        if fault is not None:
            plan.inject(fault, in_worker=True)
    return fn(item)


def _count(name: str, amount: int = 1) -> None:
    registry = _metrics.get_registry()
    if registry is not None:
        registry.counter(name).inc(amount)


def _observe_attempts(n: int) -> None:
    registry = _metrics.get_registry()
    if registry is not None:
        registry.histogram("parallel.attempts").observe_int(n)


class SupervisedPool:
    """A process pool that survives worker crashes, hangs and flakes.

    The one dispatch path of :func:`repro.parallel.parallel_map`, which
    every call receives as ``pool=``; also usable directly via
    :meth:`run`.  ``chaos`` arms a fault plan, by default the one in
    ``REPRO_CHAOS``, and sets the attempt budget and deadline (see the
    module docstring).  ``workers == 1`` runs in-process with the same
    retry semantics (minus process-level faults); that serial loop is
    the reference the pooled path must reproduce.  Context-managed: the
    owner creates it once per run and every batch reuses the same worker
    processes until one of them has to be killed.
    """

    def __init__(self, workers: int, *, chaos: Optional[FaultPlan] = None):
        self.workers = max(1, int(workers))
        self.chaos = chaos if chaos is not None else plan_from_env()
        if self.chaos is None:
            self.max_attempts, self.timeout_s = MAX_ATTEMPTS, None
        else:
            self.max_attempts = max(MAX_ATTEMPTS, self.chaos.max_faults + 1)
            self.timeout_s = self.chaos.timeout_s
        self._pool = None

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _kill_pool(self) -> None:
        """Tear the executor down hard (workers may be hung or dead)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            # the worker already exited; nothing left to kill
            except (OSError, ValueError):  # repro-lint: disable=EXC001
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    # -- execution ------------------------------------------------------
    def run(
        self,
        fn: Callable,
        payloads: Sequence,
        *,
        indices: Optional[Sequence[int]] = None,
        total: Optional[int] = None,
        label: str = "task",
        on_result: Optional[Callable[[int, object], None]] = None,
    ) -> List:
        """Execute every payload; return results in payload order.

        ``indices``/``total`` carry the items' identities in the caller's
        full sequence (so chaos decisions and error messages name the
        original item even when a resumed run only submits a subset).
        ``on_result(position, result)`` streams completions — in
        completion order — for journalling/progress.
        """
        payloads = list(payloads)
        n = len(payloads)
        if indices is None:
            indices = list(range(n))
        total = n if total is None else total
        results: List = [None] * n
        if n == 0:
            return results
        if self.workers == 1:
            order = range(n)
            self._run_serial(fn, payloads, order, indices, total, label,
                             on_result, results)
        else:
            self._run_pooled(fn, payloads, indices, total, label,
                             on_result, results)
        return results

    # -- serial / degraded path ----------------------------------------
    def _run_serial(self, fn, payloads, order, indices, total, label,
                    on_result, results) -> None:
        for pos in order:
            attempts, value = self._run_one_serial(
                fn, payloads[pos], label, indices[pos], total
            )
            _observe_attempts(attempts)
            results[pos] = value
            if on_result is not None:
                on_result(pos, value)

    def _run_one_serial(self, fn, payload, label, index, total):
        """In-process retry loop for one item; returns (attempts, result)."""
        last: Optional[BaseException] = None
        for attempt in range(self.max_attempts):
            if attempt:
                self._note_retry(label, index, attempt)
                self._sleep_backoff(attempt - 1)
            try:
                if self.chaos is not None:
                    fault = self.chaos.fault_for(label, index, attempt)
                    if fault is not None:
                        # crash/hang are worker-process faults; in-process
                        # only the transient-error band fires
                        self.chaos.inject(fault, in_worker=False)
                return attempt + 1, fn(payload)
            except Exception as exc:  # noqa: BLE001 — every kind retries
                last = exc
        raise ItemFailedError(
            label, index, total, self.max_attempts, last
        ) from last

    # -- pooled path ----------------------------------------------------
    def _run_pooled(self, fn, payloads, indices, total, label,
                    on_result, results) -> None:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        queue = deque((pos, 0) for pos in range(len(payloads)))
        inflight: dict = {}        # future -> (pos, attempt, deadline)
        outstanding = len(payloads)
        consecutive_rebuilds = 0
        degraded = False

        def rebuild(reason: str) -> None:
            nonlocal consecutive_rebuilds, degraded
            _count("parallel.pool_rebuilds")
            _trace.instant("parallel.pool_rebuild", "parallel",
                           {"reason": reason})
            consecutive_rebuilds += 1
            self._kill_pool()
            if consecutive_rebuilds > MAX_POOL_REBUILDS:
                degraded = True

        def requeue_inflight(extra_attempt_for=()) -> None:
            # preserve position order at the head of the queue so retried
            # items go back out before untouched ones
            bumped = set(extra_attempt_for)
            backlog = sorted(
                (pos, attempt + 1 if f in bumped else attempt)
                for f, (pos, attempt, _d) in inflight.items()
            )
            inflight.clear()
            queue.extendleft(reversed(backlog))

        def submit_ready() -> None:
            while queue and len(inflight) < self.workers and not degraded:
                pos, attempt = queue[0]
                payload = (fn, payloads[pos], self.chaos, label,
                           indices[pos], attempt)
                try:
                    fut = self._ensure_pool().submit(_supervised_call, payload)
                except BrokenProcessPool:
                    # pool died between batches; rebuild and retry the submit
                    requeue_inflight()
                    rebuild("submit")
                    continue
                queue.popleft()
                deadline = None
                if self.timeout_s is not None:
                    deadline = (
                        time.monotonic()  # repro-lint: disable=DET002
                        + self.timeout_s
                    )
                inflight[fut] = (pos, attempt, deadline)

        while outstanding and not degraded:
            submit_ready()
            if not inflight:
                if degraded or not queue:
                    break
                continue
            timeout = None
            if self.timeout_s is not None:
                now = time.monotonic()  # repro-lint: disable=DET002
                timeout = max(
                    0.05,
                    min(d for (_p, _a, d) in inflight.values()) - now,
                )
            done, _ = wait(set(inflight), timeout=timeout,
                           return_when=FIRST_COMPLETED)

            if not done:
                # deadline pass: at least one in-flight item overran.  A
                # running call cannot be cancelled, so kill the workers,
                # rebuild, and recharge only the expired items' attempts.
                now = time.monotonic()  # repro-lint: disable=DET002
                expired = [
                    f for f, (_p, _a, d) in inflight.items()
                    if d is not None and d <= now
                ]
                if not expired:
                    continue
                for f in expired:
                    pos, attempt, _d = inflight[f]
                    _count("parallel.timeouts")
                    _trace.instant("parallel.timeout", "parallel",
                                   {"item": indices[pos],
                                    "attempt": attempt + 1})
                    if attempt + 1 >= self.max_attempts:
                        self._kill_pool()
                        cause = TimeoutError(
                            f"no result within {self.timeout_s:g}s"
                        )
                        raise ItemFailedError(
                            label, indices[pos], total,
                            attempt + 1, cause,
                        ) from cause
                requeue_inflight(extra_attempt_for=expired)
                rebuild("timeout")
                continue

            crashed = False
            # an armed plan names the items it crashed; only those are
            # charged, so an item's attempts follow its own faults alone
            culprits = set() if self.chaos is None else {
                f for f, (pos, attempt, _d) in inflight.items()
                if self.chaos.fault_for(label, indices[pos], attempt)
                == "crash"
            }
            # harvest completions first: real progress resets the
            # consecutive-rebuild budget even in a crashing batch
            for fut in [f for f in done if f.exception() is None]:
                pos, attempt, _d = inflight.pop(fut)
                results[pos] = fut.result()
                outstanding -= 1
                consecutive_rebuilds = 0
                _observe_attempts(attempt + 1)
                if on_result is not None:
                    on_result(pos, results[pos])
            for fut in [f for f in done if f in inflight]:
                pos, attempt, _d = inflight.pop(fut)
                exc = fut.exception()
                if isinstance(exc, BrokenProcessPool):
                    # a worker died and broke every in-flight future;
                    # without a planned culprit nobody knows which item
                    # was the trigger — charge all broken ones one attempt
                    crashed = True
                    if culprits and fut not in culprits:
                        queue.appendleft((pos, attempt))
                        continue
                    if attempt + 1 >= self.max_attempts:
                        self._kill_pool()
                        raise ItemFailedError(
                            label, indices[pos], total, attempt + 1, exc
                        ) from exc
                    queue.appendleft((pos, attempt + 1))
                else:
                    # an ordinary exception from the item itself
                    if attempt + 1 >= self.max_attempts:
                        self._kill_pool()
                        raise ItemFailedError(
                            label, indices[pos], total, attempt + 1, exc
                        ) from exc
                    self._note_retry(label, indices[pos], attempt + 1)
                    self._sleep_backoff(attempt)
                    queue.appendleft((pos, attempt + 1))
            if crashed:
                requeue_inflight()
                rebuild("crash")

        if outstanding:
            # degradation: repeated rebuilds made no progress — finish the
            # rest in-process (fresh attempt budget, process faults moot)
            _trace.instant("parallel.degraded", "parallel",
                           {"outstanding": outstanding})
            backlog = sorted({pos for pos, _a in queue}
                             | {pos for (pos, _a, _d) in inflight.values()})
            inflight.clear()
            self._kill_pool()
            self._run_serial(fn, payloads, backlog, indices, total, label,
                             on_result, results)

    # -- shared helpers -------------------------------------------------
    def _note_retry(self, label: str, index: int, attempt: int) -> None:
        _count("parallel.retries")
        _trace.instant("parallel.retry", "parallel",
                       {"label": label, "item": index, "attempt": attempt})

    def _sleep_backoff(self, retry: int) -> None:
        # bounded control-plane wait between retries (never on an
        # algorithm path); BACKOFF_MAX_S caps it
        time.sleep(backoff_s(retry))  # repro-lint: disable=PAR002
