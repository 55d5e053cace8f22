"""PEFT — Predict Earliest Finish Time (Arabnejad & Barbosa [8]).

PEFT improves on HEFT with an *optimistic cost table* (OCT):

``OCT(t, d)`` is the shortest possible time from ``t``'s completion on
device ``d`` to the end of the graph, assuming every descendant picks its
best device (min instead of HEFT's average):

    OCT(t, d) = max_{s in succ(t)} min_{d'} [ OCT(s, d') + w(s, d')
                                              + c(t, s, d, d') ]

with ``c`` the actual pair transfer (0 for ``d' = d``).  Tasks are scheduled
from a ready list in decreasing ``rank_oct(t) = mean_d OCT(t, d)``; each
task takes the device minimizing the *optimistic* EFT,
``O_EFT(t, d) = EFT(t, d) + OCT(t, d)``.

The paper's evaluation uses PEFT as the stronger list-scheduling baseline
("one of the best-performing HEFT variants for complex systems" [10]).
Only the OCT table and its O_EFT offset live here: the ready list, the EFT
rule, the area check and the host fallback are the list-scheduling core of
:mod:`repro.mappers.heft`.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..evaluation.evaluator import MappingEvaluator
from .base import Mapper
from .heft import ListSchedule, Placement, priority_order

__all__ = ["PeftMapper", "optimistic_cost_table"]

_INF = float("inf")


def optimistic_cost_table(evaluator: MappingEvaluator) -> np.ndarray:
    """The ``(n_tasks, n_devices)`` OCT matrix (0 rows for sink tasks)."""
    model = evaluator.model
    g = evaluator.graph
    index = model.index
    n, m = model.n, model.m
    exec_table = model.exec_table
    # each successor with its edge's transfer table, trans[du][dv]; the
    # max over successors does not depend on their order
    succ_ptr = model.flat.succ_ptr.tolist()
    succ_dst = model.flat.succ_dst.tolist()
    succ_edge = model.flat.succ_edge.tolist()
    trans_rows = model.trans_rows
    oct_table = np.zeros((n, m))
    for t in reversed(g.topological_order()):
        i = index[t]
        succs = [(succ_dst[k], trans_rows[succ_edge[k]])
                 for k in range(succ_ptr[i], succ_ptr[i + 1])]
        if not succs:
            continue
        for d in range(m):
            worst = 0.0
            for j, trans in succs:
                best = _INF
                for d2 in range(m):
                    c = 0.0 if d2 == d else trans[d][d2]
                    val = oct_table[j, d2] + exec_table[j, d2] + c
                    if val < best:
                        best = val
                if best > worst:
                    worst = best
            oct_table[i, d] = worst
    return oct_table


class PeftMapper(Mapper):
    """PEFT list scheduler used as a mapping algorithm."""

    name = "PEFT"

    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        oct_table = optimistic_cost_table(evaluator)

        def o_eft(i: int, p: Placement) -> float:
            return p[3] + oct_table[i, p[0]]

        sched = ListSchedule(evaluator)
        for i in priority_order(evaluator, oct_table.mean(axis=1)):
            sched.commit(i, *sched.best(i, o_eft))
        return sched.mapping, {"schedule_length": sched.schedule_length}
