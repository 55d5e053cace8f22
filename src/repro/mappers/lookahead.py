"""Lookahead HEFT (Bittencourt, Sakellariou & Madeira [7]).

The paper cites lookahead variants as the standard attempt to fix HEFT's
"mostly local view": when choosing a device for task ``t``, tentatively
commit each candidate device, then schedule ``t``'s *children* with plain
EFT and pick the device minimizing the maximum child EFT instead of ``t``'s
own EFT.  One level of lookahead multiplies HEFT's cost by roughly
``m * avg_out_degree`` but can dodge decisions that strangle the next layer.

Only the child-lookahead score lives here: it is handed to the best-device
scan of the list-scheduling core in :mod:`repro.mappers.heft`, which also
supplies the ready list, the EFT rule, the trial copies (``clone``) and the
host fallback.  The child scan keeps a strict ``<`` without the core's tie
band.

Included as an extension baseline (not part of the paper's evaluation
roster) — the ablation benchmark compares it against HEFT and the
decomposition mappers.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..evaluation.evaluator import MappingEvaluator
from .base import Mapper
from .heft import ListSchedule, Placement, priority_order, upward_ranks

__all__ = ["LookaheadHeftMapper"]

_INF = float("inf")


class LookaheadHeftMapper(Mapper):
    """HEFT with one level of child lookahead (see module docstring)."""

    name = "LAHEFT"

    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        g = evaluator.graph
        index = evaluator.model.index
        rank = upward_ranks(evaluator)
        children = [
            sorted((index[s] for s in g.successors(t)), key=lambda j: (-rank[j], j))
            for t in evaluator.model.tasks
        ]
        sched = ListSchedule(evaluator)
        devices = range(evaluator.n_devices)

        def lookahead(i: int, p: Placement) -> float:
            """Tentatively commit ``i`` at ``p``, then greedy-EFT its
            children; the score is the latest finish of the lot."""
            trial = sched.clone()
            trial.commit(i, *p)
            score = p[3]
            for c in children[i]:
                c_pick = None
                for d in devices:
                    q = trial.eft(c, d)
                    if q[3] < (_INF if c_pick is None else c_pick[3]):
                        c_pick = q
                if c_pick is None:
                    return _INF
                trial.commit(c, *c_pick)
                score = max(score, c_pick[3])
            return score

        for i in priority_order(evaluator, rank):
            sched.commit(i, *sched.best(i, lookahead if children[i] else None))
        return sched.mapping, {"schedule_length": sched.schedule_length}
