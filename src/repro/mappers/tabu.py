"""Tabu-search mapper (extension baseline from the MPSoC tradition).

The paper's related work points to the MPSoC mapping literature dominated by
metaheuristics [11], [12]; tabu search is its standard trajectory method.
This implementation searches the same move space as the decomposition
mapper — (subgraph, device) reassignments over single nodes and, optionally,
the series-parallel candidates — with:

- steepest-descent over a random *neighborhood sample* per iteration,
- a tabu list of recently touched (subgraph, device) moves (FIFO tenure),
- the aspiration criterion (tabu moves allowed when they beat the best),
- best-seen tracking, so the result is never worse than the all-CPU start.

Comparing it against the greedy decomposition mapper isolates the value of
the paper's *exhaustive-candidate greedy* loop versus a classic local-search
regime on identical moves.

Neighborhood scans run through prepared-candidate delta evaluation
(:class:`~repro.evaluation.delta.DeltaEvaluator`): every sampled move is a
single-subgraph reassignment off the current mapping — exactly the delta
contract — so each move costs O(affected suffix) instead of a fresh
scratch simulation, with a bound-abort at the best makespan seen in the
current scan (max is monotone, so an aborted move could never have been
selected by an exact scan either).  Seeded trajectories are pinned by
``tests/test_golden.py``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from ..evaluation.delta import DeltaEvaluator
from ..evaluation.evaluator import MappingEvaluator
from ..sp.subgraphs import series_parallel_candidates, single_node_candidates
from .base import Mapper

__all__ = ["TabuSearchMapper"]


class TabuSearchMapper(Mapper):
    """Tabu search over (subgraph, device) moves (see module docstring)."""

    name = "Tabu"

    def __init__(
        self,
        *,
        iterations: int = 400,
        neighborhood: int = 40,
        tenure: int = 25,
        use_subgraph_moves: bool = True,
        cut_strategy: str = "random",
    ) -> None:
        if iterations < 1 or neighborhood < 1 or tenure < 0:
            raise ValueError("invalid tabu parameters")
        self.iterations = iterations
        self.neighborhood = neighborhood
        self.tenure = tenure
        self.use_subgraph_moves = use_subgraph_moves
        self.cut_strategy = cut_strategy
        #: best-seen construction makespan after each iteration (last run)
        self.history_: List[float] = []
        super().__init__()

    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        g = evaluator.graph
        index = evaluator.model.index
        m = evaluator.n_devices

        if self.use_subgraph_moves:
            sets = series_parallel_candidates(
                g, rng=rng, cut_strategy=self.cut_strategy
            )
        else:
            sets = single_node_candidates(g)
        delta = DeltaEvaluator(evaluator.model)
        cands = [
            delta.candidate(
                np.fromiter((index[t] for t in s), dtype=np.int64, count=len(s))
            )
            for s in sets
        ]
        moves: List[Tuple[int, int]] = [
            (k, d) for k in range(len(cands)) for d in range(m)
        ]

        current_ms = delta.reset(evaluator.cpu_mapping())
        mp = delta.base_list  # live view, updated by apply_move
        best = delta.mapping
        best_ms = current_ms

        tabu: deque = deque(maxlen=self.tenure if self.tenure > 0 else None)
        tabu_set = set()
        improved_iters = 0
        history: List[float] = []
        evaluate = delta.evaluate_move

        for _ in range(self.iterations):
            sample_idx = rng.choice(
                len(moves), size=min(self.neighborhood, len(moves)),
                replace=False,
            )
            chosen = None
            chosen_ms = np.inf
            chosen_move = None
            for mi in sample_idx:
                k, d = moves[mi]
                cand = cands[k]
                if all(mp[t] == d for t in cand.members):
                    continue
                # bound at the scan's best: a move whose running makespan
                # reaches chosen_ms returns inf and could not have been
                # selected by an exact scan either (ms is a max)
                ms = evaluate(cand, d, bound=chosen_ms)
                if not np.isfinite(ms):
                    continue
                is_tabu = (k, d) in tabu_set
                # aspiration: a tabu move is admissible if it beats best-seen
                if is_tabu and ms >= best_ms - 1e-12:
                    continue
                if ms < chosen_ms:
                    chosen = cand
                    chosen_ms = ms
                    chosen_move = (k, d)
            if chosen is not None:
                delta.apply_move(
                    chosen.members, chosen_move[1], first_pos=chosen.first_pos
                )
                current_ms = chosen_ms
                if self.tenure > 0:
                    if len(tabu) == tabu.maxlen:
                        tabu_set.discard(tabu[0])
                    tabu.append(chosen_move)
                    tabu_set.add(chosen_move)
                if current_ms < best_ms:
                    best = delta.mapping
                    best_ms = current_ms
                    improved_iters += 1
            history.append(best_ms)
        self.history_ = history
        return best, {
            "iterations": float(self.iterations),
            "improving_steps": float(improved_iters),
            "best_makespan": best_ms,
        }
