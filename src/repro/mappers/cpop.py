"""CPOP — Critical Path On a Processor (Topcuoglu et al. [6]).

The companion algorithm to HEFT from the same paper: tasks on the *critical
path* (maximal ``rank_u + rank_d``) are all pinned to the single processor
that minimizes the path's total execution time; off-path tasks are scheduled
like HEFT (insertion-based earliest finish time), processed in decreasing
``rank_u + rank_d`` priority.  Only the critical path and its pinned
processor live here: a pinned task scores ``inf`` on every other device, and
the ready list, the EFT rule and the host fallback (taken when the pinned
processor has no area left) are the core of :mod:`repro.mappers.heft`.

Included as an extension baseline: like HEFT it has a local view plus one
global decision (the critical-path processor), which makes it an instructive
middle point between HEFT and the decomposition principle — it effectively
maps one special "subgraph" (the critical path) as a unit, but chooses it
statically instead of by model-based search.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..evaluation.evaluator import MappingEvaluator
from .base import Mapper
from .heft import (
    ListSchedule,
    Placement,
    mean_comm,
    mean_exec,
    priority_order,
    upward_ranks,
)

__all__ = ["CpopMapper"]

_INF = float("inf")


def downward_ranks(evaluator: MappingEvaluator) -> np.ndarray:
    """``rank_d(t) = max over preds(rank_d(p) + w_mean(p) + c_mean(p,t))``."""
    model = evaluator.model
    w = mean_exec(evaluator)
    c = mean_comm(evaluator)
    g = evaluator.graph
    index = model.index
    rank = np.zeros(model.n)
    for t in g.topological_order():
        i = index[t]
        best = 0.0
        for p in g.predecessors(t):
            j = index[p]
            val = rank[j] + w[j] + c[(j, i)]
            if val > best:
                best = val
        rank[i] = best
    return rank


class CpopMapper(Mapper):
    """CPOP list scheduler used as a mapping algorithm."""

    name = "CPOP"

    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        model = evaluator.model
        g = evaluator.graph
        index = model.index
        tasks = model.tasks
        n, m = model.n, model.m
        exec_table = model.exec_table

        rank_u = upward_ranks(evaluator)
        rank_d = downward_ranks(evaluator)
        priority = rank_u + rank_d
        cp_value = priority.max()

        # critical path: walk from the entry task along max-priority children
        on_cp = np.zeros(n, dtype=bool)
        # rank tie-break epsilon, unrelated to the area tolerance
        eps = 1e-9 * max(cp_value, 1.0)  # repro-lint: disable=TOL001
        entry = [index[t] for t in g.sources()]
        cur = max(entry, key=lambda i: priority[i])
        on_cp[cur] = True
        while True:
            succs = [index[s] for s in g.successors(tasks[cur])]
            cp_succs = [j for j in succs if priority[j] >= cp_value - eps]
            if not cp_succs:
                break
            cur = cp_succs[0]
            on_cp[cur] = True

        # the critical-path processor minimizes the summed execution time,
        # subject to area feasibility
        limits = model.limit_units
        cp_area = model.area_units[on_cp].sum()
        cp_processor = min(
            (d for d in range(m) if d not in limits or cp_area <= limits[d]),
            key=lambda d: float(exec_table[on_cp, d].sum()),
            default=0,
        )

        def pinned(i: int, p: Placement) -> float:
            return p[3] if not on_cp[i] or p[0] == cp_processor else _INF

        sched = ListSchedule(evaluator)
        for i in priority_order(evaluator, priority):
            sched.commit(i, *sched.best(i, pinned))
        return sched.mapping, {
            "schedule_length": sched.schedule_length,
            "cp_processor": float(cp_processor),
            "cp_tasks": float(on_cp.sum()),
        }
