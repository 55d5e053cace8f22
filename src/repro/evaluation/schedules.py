"""Schedule suites (paper Sec. IV-A).

"For each graph, we determine the makespan of a mapping as the minimum among
all makespans that are computed using a breadth-first schedule and 100
randomly generated schedules."

A *schedule* here is a topological priority order fed to the list simulation
of :class:`repro.evaluation.costmodel.CostModel`.  The suite is generated
once per graph and reused for every mapping, so algorithm comparisons see
identical schedules.

:class:`ScheduleSuite` stores its schedules as one ``(K, n)`` int64 array
of task indices into ``g.tasks()``: row 0 is the breadth-first schedule,
rows 1.. the random ones.  :meth:`CostModel.simulate_min
<repro.evaluation.costmodel.CostModel.simulate_min>` evaluates a mapping
over all rows in one call.

Random schedules are Kahn walks over the successor CSR arrays of
:func:`successor_csr`: the ready list starts with the sources in task
order, each step removes the task at ``rng.integers(len(ready))`` (swap
with the last entry, pop) and appends the successors whose in-degree
drops to zero, in successor order.  With the C kernel loaded the whole
suite is one ``repro_random_orders`` call that draws through the
caller's numpy bit generator (``rng.bit_generator.ctypes``) and
reproduces ``Generator.integers`` exactly: no draw when one task is
ready, otherwise numpy's 32-bit Lemire method with its rejection loop.
Draw-stream contract: the C walk and :func:`random_topological_schedule`
(the Python walk, used under ``REPRO_PURE_PYTHON=1``) give identical
orders and leave ``rng`` in an identical state (pinned by
``tests/test_schedules.py`` for PCG64, MT19937, Philox and SFC64).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.taskgraph import TaskGraph
from ._ckernel import load_ckernel

__all__ = [
    "bfs_schedule",
    "random_topological_schedule",
    "successor_csr",
    "ScheduleSuite",
]


def bfs_schedule(g: TaskGraph) -> List[int]:
    """Breadth-first schedule as task *indices* into ``g.tasks()``."""
    index = {t: i for i, t in enumerate(g.tasks())}
    return [index[t] for t in g.bfs_order()]


def successor_csr(g: TaskGraph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(succ_ptr, succ_dst, indeg)`` int64 arrays in ``g.tasks()`` order.

    The successors of task index ``i`` are
    ``succ_dst[succ_ptr[i]:succ_ptr[i + 1]]``, in ``g.successors`` order.

    This is not the successor CSR of the cost tables
    (:class:`~repro.evaluation.kernel.FlatModel`), which lists successors
    in ascending index: the two orders differ on most non-workflow
    graphs, and this one decides which task the random schedules' Kahn
    walk appends next, so it defines their draw stream.  It is also built
    from the graph alone, before any ``CostModel`` exists.
    """
    tasks = g.tasks()
    index = {t: i for i, t in enumerate(tasks)}
    ptr = [0]
    dst: List[int] = []
    for t in tasks:
        dst += [index[s] for s in g.successors(t)]
        ptr.append(len(dst))
    dst_np = np.asarray(dst, dtype=np.int64)
    # edges are unique, so a task's in-degree is its count in dst
    indeg = np.bincount(dst_np, minlength=len(tasks)).astype(np.int64)
    return np.asarray(ptr, dtype=np.int64), dst_np, indeg


def _kahn_walk(
    ptr: Sequence[int],
    dst: Sequence[int],
    indeg0: Sequence[int],
    rng: np.random.Generator,
) -> List[int]:
    """One random topological order (see the module docstring)."""
    indeg = list(indeg0)
    ready = [i for i, d in enumerate(indeg) if d == 0]
    integers = rng.integers
    order: List[int] = []
    while ready:
        # integers(1) draws nothing, so skipping it keeps the stream
        if len(ready) > 1:
            pos = int(integers(len(ready)))
            ready[pos], ready[-1] = ready[-1], ready[pos]
        t = ready.pop()
        order.append(t)
        for e in range(ptr[t], ptr[t + 1]):
            s = dst[e]
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    return order


def random_topological_schedule(
    g: TaskGraph, rng: np.random.Generator
) -> List[int]:
    """A uniformly random-ish topological order (Kahn with random tie-break)."""
    return _kahn_walk(*(a.tolist() for a in successor_csr(g)), rng)


@dataclass
class ScheduleSuite:
    """A fixed set of schedules; reported makespan = min over the suite.

    ``orders`` is one C-contiguous ``(K, n)`` int64 array, one schedule
    per row.
    """

    orders: np.ndarray

    def __post_init__(self) -> None:
        self.orders = np.ascontiguousarray(self.orders, dtype=np.int64)
        if self.orders.ndim != 2:
            raise ValueError(
                f"orders must be a (K, n) array, got shape {self.orders.shape}"
            )

    @classmethod
    def paper(
        cls,
        g: TaskGraph,
        rng: Optional[np.random.Generator] = None,
        *,
        n_random: int = 100,
    ) -> "ScheduleSuite":
        """BFS + ``n_random`` random schedules (paper default: 100).

        Raises :class:`~repro.graphs.taskgraph.GraphError` (from the BFS)
        if ``g`` has a cycle.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        orders = np.empty((n_random + 1, g.n_tasks), dtype=np.int64)
        orders[0] = bfs_schedule(g)
        ptr, dst, indeg = successor_csr(g)
        ck = load_ckernel()
        if ck is not None:
            orders[1:] = ck.random_orders(ptr, dst, indeg, n_random, rng)
        else:
            csr = ptr.tolist(), dst.tolist(), indeg.tolist()
            for r in range(1, n_random + 1):
                orders[r] = _kahn_walk(*csr, rng)
        return cls(orders)

    @classmethod
    def bfs_only(cls, g: TaskGraph) -> "ScheduleSuite":
        """Only the deterministic breadth-first schedule (fast path)."""
        return cls(np.asarray([bfs_schedule(g)]).reshape(1, g.n_tasks))

    def __len__(self) -> int:
        return len(self.orders)
