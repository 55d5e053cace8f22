"""Supervised pool execution: retries, timeouts, rebuilds, degradation.

:class:`SupervisedPool` wraps a :class:`~concurrent.futures.ProcessPoolExecutor`
with the failure handling the bare pool lacks:

- **bounded retries with exponential backoff** — a transient worker
  exception requeues the item up to :attr:`RetryPolicy.max_attempts`
  times; exhaustion raises :class:`ItemFailedError` naming the item;
- **per-item timeouts** — in-flight submissions are capped at the pool
  width so a deadline measures *running* time; a hung worker cannot be
  cancelled through the executor API, so expiry kills the worker
  processes and rebuilds the pool, recharging only the expired item's
  attempt counter;
- **BrokenProcessPool recovery** — a crashed worker (segfault, OOM kill,
  injected SIGKILL) breaks every in-flight future; the supervisor
  rebuilds the executor and resubmits only the outstanding items;
- **graceful degradation** — after ``max_pool_rebuilds`` *consecutive*
  rebuilds without a single completed item, the pool gives up on process
  parallelism and finishes the remaining items in-process.

None of this can change results: every item carries its own
:class:`~numpy.random.SeedSequence` (the seed-sharding contract in
``README.md`` next to this module), so a retried item reruns the same
pure function on the same seed — results are independent of *when,
where, or how many times* an item executes.  Supervision is visible only
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
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .faults import FaultPlan

__all__ = ["RetryPolicy", "ItemFailedError", "SupervisedPool"]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard a :class:`SupervisedPool` tries before giving up."""

    max_attempts: int = 3
    timeout_s: Optional[float] = None       # per-item; None = no deadline
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    max_pool_rebuilds: int = 3              # consecutive, without progress

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("RetryPolicy.max_attempts must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("RetryPolicy.timeout_s must be > 0 (or None)")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("RetryPolicy backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("RetryPolicy.backoff_factor must be >= 1")
        if self.max_pool_rebuilds < 0:
            raise ValueError("RetryPolicy.max_pool_rebuilds must be >= 0")

    def backoff_s(self, retry: int) -> float:
        """Bounded exponential delay before retry number ``retry`` (0-based)."""
        return min(self.backoff_max_s,
                   self.backoff_base_s * self.backoff_factor ** retry)

    @classmethod
    def for_chaos(cls, plan: FaultPlan) -> "RetryPolicy":
        """A policy guaranteed to outlast ``plan``'s injected faults."""
        return cls(
            max_attempts=max(3, plan.max_faults + 1),
            timeout_s=plan.timeout_s,
        )


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

    The one dispatch path of :func:`repro.parallel.parallel_map`: a
    caller passes one as ``executor=``, and a call without one runs on
    a fresh pool (``RetryPolicy(max_attempts=1)`` unless told otherwise,
    which fails on the first error with no deadline).  Also usable
    directly via :meth:`run`.  ``workers == 1`` runs in-process with the
    same retry semantics (minus process-level faults); that serial loop
    is the reference the pooled path must reproduce.  Context-managed:
    the owner creates it once per sweep and every batch reuses the same
    worker processes until one of them has to be killed.
    """

    def __init__(self, workers: int, *,
                 policy: Optional[RetryPolicy] = None,
                 chaos: Optional[FaultPlan] = None):
        self.workers = max(1, int(workers))
        self.policy = policy if policy is not None else RetryPolicy()
        self.chaos = chaos
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
        policy = self.policy
        last: Optional[BaseException] = None
        for attempt in range(policy.max_attempts):
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
            label, index, total, policy.max_attempts, last
        ) from last

    # -- pooled path ----------------------------------------------------
    def _run_pooled(self, fn, payloads, indices, total, label,
                    on_result, results) -> None:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        policy = self.policy
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
            if consecutive_rebuilds > policy.max_pool_rebuilds:
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
                if policy.timeout_s is not None:
                    deadline = (
                        time.monotonic()  # repro-lint: disable=DET002
                        + policy.timeout_s
                    )
                inflight[fut] = (pos, attempt, deadline)

        while outstanding and not degraded:
            submit_ready()
            if not inflight:
                if degraded or not queue:
                    break
                continue
            timeout = None
            if policy.timeout_s is not None:
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
                    if attempt + 1 >= policy.max_attempts:
                        self._kill_pool()
                        cause = TimeoutError(
                            f"no result within {policy.timeout_s:g}s"
                        )
                        raise ItemFailedError(
                            label, indices[pos], total,
                            attempt + 1, cause,
                        ) from cause
                requeue_inflight(extra_attempt_for=expired)
                rebuild("timeout")
                continue

            crashed = False
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
                    # a worker died; every in-flight future is broken and
                    # nobody knows which item was the trigger — charge
                    # all broken ones one attempt
                    crashed = True
                    if attempt + 1 >= policy.max_attempts:
                        self._kill_pool()
                        raise ItemFailedError(
                            label, indices[pos], total, attempt + 1, exc
                        ) from exc
                    queue.appendleft((pos, attempt + 1))
                else:
                    # an ordinary exception from the item itself
                    if attempt + 1 >= policy.max_attempts:
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
        delay = self.policy.backoff_s(retry)
        if delay > 0:
            # bounded control-plane wait between retries (never on an
            # algorithm path); RetryPolicy validation caps it
            time.sleep(delay)  # repro-lint: disable=PAR002
