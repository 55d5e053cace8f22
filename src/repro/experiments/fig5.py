"""Fig. 5 — FirstFit decomposition mapping vs the NSGA-II genetic algorithm.

Paper setup: random SP graphs with 5..100 tasks, NSGAII (500 generations,
population 100) against SNFirstFit and SPFirstFit.

Expected shape: NSGAII copes with local minima and often edges out
SingleNode, but is frequently outperformed by SeriesParallel and its
execution time grows steeply (about 30x slower at n = 100).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..graphs.generators import random_sp_graph
from ..mappers import NsgaIIMapper, sn_first_fit, sp_first_fit
from ..parallel import resolve_workers
from ..platform import paper_platform
from .config import get_scale
from .runner import SweepResult, run_sweep

__all__ = ["run"]


def run(
    scale="smoke",
    *,
    seed: int = 5,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal=None,
) -> SweepResult:
    cfg = get_scale(scale)
    platform = paper_platform()

    def make_graphs(x: float, rng: np.random.Generator) -> List:
        return [
            random_sp_graph(int(x), rng) for _ in range(cfg.graphs_per_point)
        ]

    def make_mappers(x: float):
        return [
            sn_first_fit(),
            sp_first_fit(),
            NsgaIIMapper(generations=cfg.nsga_generations),
        ]

    return run_sweep(
        "Fig5 decomposition vs NSGAII",
        "n_tasks",
        cfg.fig5_sizes,
        make_graphs,
        make_mappers,
        platform,
        seed=seed,
        n_random_schedules=cfg.n_random_schedules,
        progress=progress,
        workers=resolve_workers(workers, cfg.parallel_workers),
        journal=journal,
    )

