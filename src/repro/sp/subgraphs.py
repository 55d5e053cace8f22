"""Candidate subgraph sets for decomposition-based mapping (paper Sec. III-B/C).

Two strategies are provided:

- **single-node** (Sec. III-B): every task is its own candidate subgraph;
- **series-parallel** (Sec. III-C): single nodes *plus*, for every inner
  operation of every tree in the SP decomposition forest,

  * series operation  -> all nodes of the operation **except** its start and
    end node (they may have outside edges),
  * parallel operation -> all nodes of the operation **including** start and
    end node (they act as the single input/output of the subgraph).

For the Fig. 1 example this yields exactly the paper's
``S = {{0},...,{5},{1,2,3},{0,1,2,3,4,5}}``.

Candidates are deduplicated and returned in a deterministic order (size, then
sorted members), which keeps the greedy mapping algorithms reproducible.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

import numpy as np

from ..graphs.taskgraph import TaskGraph
from .forest import DecompositionForest, grow_decomposition_forest
from .sptree import SPParallel, SPSeries

__all__ = [
    "single_node_candidates",
    "series_parallel_candidates",
    "candidates_from_forest",
    "schedule_span",
]


def schedule_span(members, pos) -> "tuple[int, int]":
    """``(first, last)`` schedule positions a candidate subgraph occupies.

    ``pos`` maps task index -> position in a fixed schedule order.  Under
    that fixed order, remapping the candidate can only change simulation
    state from ``first`` onward — this is what lets the incremental
    evaluator (:class:`repro.evaluation.delta.DeltaEvaluator`) re-simulate
    just the suffix, and lets callers group moves that share a prefix.
    An empty ``members`` has no span and raises :class:`ValueError`.
    """
    it = iter(members)
    t0 = next(it, None)
    if t0 is None:
        raise ValueError("schedule_span: empty candidate has no span")
    first = last = pos[t0]
    for t in it:
        p = pos[t]
        if p < first:
            first = p
        elif p > last:
            last = p
    return first, last


def _ordered(sets: set, g: TaskGraph) -> List[FrozenSet[int]]:
    pos = {t: i for i, t in enumerate(g.tasks())}.__getitem__
    return sorted(sets, key=lambda s: (len(s), sorted(map(pos, s))))


def single_node_candidates(g: TaskGraph) -> List[FrozenSet[int]]:
    """The single-node decomposition: one candidate per task (Sec. III-B)."""
    return [frozenset({t}) for t in g.tasks()]


def _collect_candidates(op, real_tasks: set, sets: set) -> FrozenSet[int]:
    """Post-order walk adding one candidate per inner operation.

    Returns the node set of ``op``; computing the sets bottom-up (each
    operation unions its children's sets) replaces the original
    per-operation ``op.nodes()`` leaf walks, which re-enumerated every
    leaf edge once per tree level — a measurable cost in the mapper hot
    path now that evaluation itself is cheap.
    """
    if not isinstance(op, (SPSeries, SPParallel)):  # leaf edge
        return frozenset((op.source, op.sink))
    nodes = frozenset().union(
        *(_collect_candidates(c, real_tasks, sets) for c in op.children)
    )
    cand = nodes - {op.source, op.sink} if isinstance(op, SPSeries) else nodes
    cand = cand & real_tasks  # drop virtual/normalization nodes
    if cand:
        sets.add(cand)
    return nodes


def candidates_from_forest(
    g: TaskGraph, forest: DecompositionForest
) -> List[FrozenSet[int]]:
    """Extract the Sec. III-C candidate set from a decomposition forest."""
    real_tasks = set(g.tasks())
    sets = {frozenset({t}) for t in g.tasks()}
    for tree in forest.trees:
        _collect_candidates(tree, real_tasks, sets)
    return _ordered(sets, g)


def series_parallel_candidates(
    g: TaskGraph,
    *,
    rng: Optional[np.random.Generator] = None,
    cut_strategy: str = "random",
) -> List[FrozenSet[int]]:
    """Series-parallel decomposition candidates for an arbitrary DAG.

    Runs Algorithm 1 (:func:`repro.sp.forest.grow_decomposition_forest`) and
    extracts the candidate sets of its forest.  The result always contains
    all single-node subgraphs, so the strategy is a strict superset of the
    single-node decomposition.
    """
    forest = grow_decomposition_forest(g, rng=rng, cut_strategy=cut_strategy)
    return candidates_from_forest(g, forest)
