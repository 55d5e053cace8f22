"""Simulated-annealing mapper (extension baseline).

A second metaheuristic besides NSGA-II, using the same model-based fitness.
Neighborhood moves mirror the decomposition mapper's move structure:

- *point move*: reassign one random task to a random device;
- *subgraph move* (with probability ``subgraph_move_prob``): reassign one
  random series-parallel candidate subgraph as a whole — this imports the
  paper's key insight into an annealer and is exactly what the ablation
  benchmark toggles to quantify the value of subgraph moves independently
  of the greedy framework.

Geometric cooling; infeasible neighbours (FPGA area) are rejected outright.
The best-seen mapping is returned, so the result is never worse than the
all-CPU start.

Both move kinds reassign one (subgraph, device) pair off the current
mapping, so trial evaluation goes through
:class:`~repro.evaluation.delta.DeltaEvaluator`: O(affected suffix) per
proposal, and a suffix-sized commit on acceptance.  Seeded trajectories
are pinned by ``tests/test_golden.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..evaluation.delta import Candidate, DeltaEvaluator
from ..evaluation.evaluator import MappingEvaluator
from ..sp.subgraphs import series_parallel_candidates
from .base import Mapper

__all__ = ["SimulatedAnnealingMapper"]


class SimulatedAnnealingMapper(Mapper):
    """Simulated annealing over mappings (see module docstring)."""

    name = "Annealing"

    def __init__(
        self,
        *,
        iterations: int = 5000,
        start_temperature: float = 0.25,
        cooling: float = 0.999,
        subgraph_move_prob: float = 0.25,
        use_subgraph_moves: bool = True,
    ) -> None:
        if iterations < 1:
            raise ValueError("need at least one iteration")
        if not 0 < cooling <= 1:
            raise ValueError("cooling must be in (0, 1]")
        self.iterations = iterations
        self.start_temperature = start_temperature
        self.cooling = cooling
        self.subgraph_move_prob = subgraph_move_prob
        self.use_subgraph_moves = use_subgraph_moves
        #: best-seen construction makespan after each iteration (last run)
        self.history_: List[float] = []
        super().__init__()

    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        n = evaluator.n_tasks
        m = evaluator.n_devices
        index = evaluator.model.index

        delta = DeltaEvaluator(evaluator.model)
        sub_cands: List[Candidate] = []
        if self.use_subgraph_moves:
            for s in series_parallel_candidates(evaluator.graph, rng=rng):
                if len(s) > 1:
                    sub_cands.append(delta.candidate(
                        np.fromiter((index[t] for t in s), dtype=np.int64)
                    ))
        point_cands: List[Optional[Candidate]] = [None] * n

        current_ms = delta.reset(evaluator.cpu_mapping())
        best = delta.mapping
        best_ms = current_ms
        # temperature is relative to the baseline makespan
        temp = self.start_temperature * current_ms
        accepted = 0
        history: List[float] = []

        for _ in range(self.iterations):
            if sub_cands and rng.random() < self.subgraph_move_prob:
                cand = sub_cands[int(rng.integers(len(sub_cands)))]
                device = int(rng.integers(m))
            else:
                # the device is drawn before the task index: the draw
                # order is part of every seeded trajectory
                device = int(rng.integers(m))
                t = int(rng.integers(n))
                cand = point_cands[t]
                if cand is None:
                    cand = point_cands[t] = delta.candidate(
                        np.array([t], dtype=np.int64)
                    )
            ms = delta.evaluate_move(cand, device)
            if not np.isfinite(ms):
                temp *= self.cooling
                history.append(best_ms)
                continue
            dms = ms - current_ms
            if dms <= 0 or rng.random() < np.exp(-dms / max(temp, 1e-12)):
                delta.apply_move(cand.members, device, first_pos=cand.first_pos)
                current_ms = ms
                accepted += 1
                if ms < best_ms:
                    best = delta.mapping
                    best_ms = ms
            temp *= self.cooling
            history.append(best_ms)
        self.history_ = history
        return best, {
            "iterations": float(self.iterations),
            "accepted": float(accepted),
            "best_makespan": best_ms,
        }
