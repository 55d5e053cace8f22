"""Min-min and Max-min batch heuristics (Braun et al. [13]).

The paper cites Braun et al.'s comparison of eleven static heuristics for
mapping *independent* tasks; min-min and max-min are its classic batch
algorithms.  The DAG adaptation used here processes the *ready set* in
waves:

- compute, for every ready task, the minimum-completion-time (MCT) device;
- **min-min** commits the ready task with the *smallest* MCT first (small
  tasks pack tightly, large ones risk starving);
- **max-min** commits the *largest* MCT first (front-loads the long poles).

Completion times come from the list-scheduling core of
:mod:`repro.mappers.heft` (same EFT rule, slot timelines, area check and
host fallback as HEFT), and the ready list is its driver with the wave pick
in place of a static priority, so the list-scheduling baselines differ only
in their ordering policy — a clean controlled comparison against the
decomposition principle.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..evaluation.evaluator import MappingEvaluator
from .base import Mapper
from .heft import ListSchedule, priority_order

__all__ = ["MinMinMapper", "MaxMinMapper"]


class _BatchMapper(Mapper):
    """Shared wave machinery; subclasses pick from each wave."""

    #: pick the ready task with the max (True) or min (False) best MCT
    pick_max: bool = False

    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        sched = ListSchedule(evaluator)

        def wave_pick(ready: List[int]) -> int:
            # completion-time row of every ready task for the current wave
            mct = {i: sched.best(i)[3] for i in ready}
            return (max if self.pick_max else min)(
                ready, key=lambda i: (mct[i], i)
            )

        # one wave per task: each wave commits exactly one ready task
        n = evaluator.n_tasks
        for i in priority_order(evaluator, np.zeros(n), wave_pick):
            sched.commit(i, *sched.best(i))
        return sched.mapping, {"schedule_length": sched.schedule_length}


class MinMinMapper(_BatchMapper):
    """Min-min: smallest minimum completion time first."""

    name = "MinMin"
    pick_max = False


class MaxMinMapper(_BatchMapper):
    """Max-min: largest minimum completion time first."""

    name = "MaxMin"
    pick_max = True
