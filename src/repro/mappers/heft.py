"""HEFT (Topcuoglu et al. [6]) and the list-scheduling core of every list
scheduler in this package.

HEFT is the classic list-scheduling baseline of the paper's evaluation:

1. *upward ranks*: ``rank_u(t) = w_mean(t) + max_succ(c_mean(t,s) +
   rank_u(s))`` where ``w_mean`` is the device-averaged execution time and
   ``c_mean`` the device-pair-averaged transfer time;
2. tasks are scheduled in decreasing ``rank_u`` order, each on the device
   minimizing its earliest finish time (EFT) with *insertion-based* slot
   scheduling.

The core (:class:`ListSchedule` plus the :func:`priority_order` driver) is
the one scheduling rule that HEFT, PEFT, CPOP, min-min/max-min and
lookahead HEFT share; each of them keeps only its priority or its device
score.  A task is ready on device ``d`` at ``max(initial transfer, pred
finish + transfer)``; serializing devices expose one insertion-based
timeline per slot; the FPGA does not queue at all but its remaining area is
tracked, and a placement that would overflow it gets ``EFT = inf``.  When no
device has area left, the task falls back to the host with its area
ignored.  Per the paper's critique, these schedulers have no notion of
dataflow streaming: they see only the same-device-transfer-is-free effect.
The final *mapping* (not the internal schedule) is evaluated by the shared
cost model, exactly as in the paper's model-based comparison.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..evaluation.evaluator import MappingEvaluator
from .base import Mapper

__all__ = [
    "HeftMapper",
    "ListSchedule",
    "mean_comm",
    "mean_exec",
    "priority_order",
    "upward_ranks",
]

_INF = float("inf")

#: a device replaces the incumbent of a best-device scan only if its score
#: is lower by more than this, so near-ties keep the lower device index
TIE_BAND = 1e-15

#: where and when one task runs: ``(device, slot, start, finish)``; the slot
#: is -1 on a non-serializing device, the finish ``inf`` where area is short
Placement = Tuple[int, int, float, float]


class ListSchedule:
    """The per-run state of one list-scheduling pass.

    Holds the insertion-based timelines (one sorted busy-interval list per
    slot of a serializing device; non-serializing, FPGA-like devices accept
    any start time but consume area), the area left on each area-bounded
    device, and the ``mapping`` and actual finish times ``aft`` of the
    tasks committed so far.
    """

    def __init__(self, evaluator: MappingEvaluator) -> None:
        platform = evaluator.platform
        model = evaluator.model
        self._slots: List[Optional[List[List[Tuple[float, float]]]]] = [
            [[] for _ in range(dev.slots)] if dev.serializes else None
            for dev in platform.devices
        ]
        # area units left on each area-bounded device (exact sums)
        self._area_left: Dict[int, float] = dict(model.limit_units)
        self._task_area = model.area_units_list
        self._initial = model.initial_rows
        self._pred = model.preds
        self.exec_table = model.exec_table
        self._exec_rows = model.exec_rows
        self.host = platform.host_index
        self.mapping = np.zeros(model.n, dtype=np.int64)
        self.aft = np.zeros(model.n)

    def area_allows(self, task_idx: int, device: int) -> bool:
        if device not in self._area_left:
            return True
        return self._task_area[task_idx] <= self._area_left[device]

    def earliest_start(self, device: int, ready: float, duration: float) -> Tuple[float, int]:
        """Earliest start >= ready on ``device``; returns (start, slot)."""
        slots = self._slots[device]
        if slots is None:
            return ready, -1
        best_start = _INF
        best_slot = 0
        for j, intervals in enumerate(slots):
            # earliest gap of ``duration`` in the sorted busy intervals
            t = ready
            for s, f in intervals:
                if s - t >= duration:
                    break
                if f > t:
                    t = f
            if t < best_start:
                best_start = t
                best_slot = j
        return best_start, best_slot

    def eft(self, i: int, d: int) -> Placement:
        """Insertion-based placement of task ``i`` on device ``d``."""
        if not self.area_allows(i, d):
            return d, -1, _INF, _INF
        return self._place(i, d)

    def _place(self, i: int, d: int) -> Placement:
        ready = self._initial[i][d]
        aft, mapping = self.aft, self.mapping
        for p, trans in self._pred[i]:
            r = aft[p] + trans[mapping[p]][d]
            if r > ready:
                ready = r
        duration = self._exec_rows[i][d]
        start, slot = self.earliest_start(d, ready, duration)
        return d, slot, start, start + duration

    def best(
        self,
        i: int,
        score: Optional[Callable[[int, Placement], float]] = None,
    ) -> Placement:
        """The device with the lowest ``score(i, placement)`` (default: the
        finish time) among those with area left, ties to the lower index
        within :data:`TIE_BAND`.  If no device has area left (or every score
        is ``inf``), the one host fallback: the host, area ignored."""
        pick: Optional[Placement] = None
        pick_key = _INF
        for d in range(len(self._slots)):
            p = self.eft(i, d)
            if p[3] == _INF:
                continue
            key = p[3] if score is None else score(i, p)
            if key < pick_key - TIE_BAND:
                pick, pick_key = p, key
        return pick if pick is not None else self._place(i, self.host)

    def commit(
        self, task_idx: int, device: int, slot: int, start: float, finish: float
    ) -> None:
        self.mapping[task_idx] = device
        self.aft[task_idx] = finish
        slots = self._slots[device]
        if slots is not None:
            bisect.insort(slots[slot], (start, finish))
        if device in self._area_left:
            self._area_left[device] -= self._task_area[task_idx]

    def clone(self) -> "ListSchedule":
        """Cheap copy for tentative scheduling (lookahead): copies only the
        mutable timeline, area, mapping and finish-time state and shares
        the read-only tables."""
        other = object.__new__(ListSchedule)
        other.__dict__.update(self.__dict__)
        other._slots = [
            None if s is None else [list(iv) for iv in s] for s in self._slots
        ]
        other._area_left = dict(self._area_left)
        other.mapping = self.mapping.copy()
        other.aft = self.aft.copy()
        return other

    @property
    def schedule_length(self) -> float:
        return float(self.aft.max(initial=0.0))


def priority_order(
    evaluator: MappingEvaluator,
    priority: Sequence[float],
    pick: Optional[Callable[[List[int]], int]] = None,
) -> Iterator[int]:
    """Ready-list driver: yield every task index once, after all of its
    predecessors have been yielded (and, by the caller, committed).

    The next task is the ready one with the highest ``priority``, ties to
    the lower index; ``pick``, if given, chooses it from the list of ready
    tasks instead (min-min's wave pick).
    """
    g = evaluator.graph
    index = evaluator.model.index
    tasks = evaluator.model.tasks
    waiting = [g.in_degree(t) for t in tasks]
    heap = [(-priority[i], i) for i, k in enumerate(waiting) if k == 0]
    heapq.heapify(heap)
    while heap:
        if pick is None:
            i = heapq.heappop(heap)[1]
        else:
            i = pick([j for _, j in heap])
            heap.remove((-priority[i], i))
            heapq.heapify(heap)
        yield i
        for s in g.successors(tasks[i]):
            j = index[s]
            waiting[j] -= 1
            if waiting[j] == 0:
                heapq.heappush(heap, (-priority[j], j))


def mean_exec(evaluator: MappingEvaluator) -> np.ndarray:
    """Device-averaged execution time per task (HEFT's ``w_mean``)."""
    return evaluator.model.exec_table.mean(axis=1)


def mean_comm(evaluator: MappingEvaluator) -> Dict[Tuple[int, int], float]:
    """Pair-averaged transfer time per edge (HEFT's ``c_mean``).

    Average over all *distinct* device pairs, as in the HEFT paper (the
    same-device case is free and excluded from the average).
    """
    model = evaluator.model
    m = model.m
    out: Dict[Tuple[int, int], float] = {}
    n_pairs = m * (m - 1)
    for i in range(model.n):
        for p, trans in model.preds[i]:
            total = sum(
                trans[du][dv] for du in range(m) for dv in range(m) if du != dv
            )
            out[(p, i)] = total / n_pairs if n_pairs else 0.0
    return out


def upward_ranks(evaluator: MappingEvaluator) -> np.ndarray:
    """HEFT upward ranks over mean execution and communication costs."""
    model = evaluator.model
    w = mean_exec(evaluator)
    c = mean_comm(evaluator)
    g = evaluator.graph
    index = model.index
    rank = np.zeros(model.n)
    for t in reversed(g.topological_order()):
        i = index[t]
        best = 0.0
        for s in g.successors(t):
            j = index[s]
            val = c[(i, j)] + rank[j]
            if val > best:
                best = val
        rank[i] = w[i] + best
    return rank


class HeftMapper(Mapper):
    """HEFT list scheduler used as a mapping algorithm."""

    name = "HEFT"

    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        sched = ListSchedule(evaluator)
        for i in priority_order(evaluator, upward_ranks(evaluator)):
            sched.commit(i, *sched.best(i))
        return sched.mapping, {"schedule_length": sched.schedule_length}
