"""Fig. 6 — NSGA-II quality/time tradeoff over its generation budget.

Paper setup: random SP graphs with 200 nodes (30 graphs); NSGA-II run for
50..500 generations (step 50); SNFirstFit/SPFirstFit shown as reference
lines (their result does not depend on the generation count — the same
fixed graph set is evaluated once per x for reference).

Expected shape: NSGA-II saturates around ~200 generations; even at the
saturation point it remains several times slower than the decomposition
mappers while not beating SeriesParallel.
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
    seed: int = 6,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal=None,
) -> SweepResult:
    cfg = get_scale(scale)
    platform = paper_platform()

    # one fixed graph set for the whole sweep (the x axis varies the GA
    # budget, not the workload)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    graphs = [
        random_sp_graph(cfg.fig6_n_tasks, rng) for _ in range(cfg.fig6_graphs)
    ]

    def make_graphs(x: float, rng_: np.random.Generator) -> List:
        return graphs

    def make_mappers(x: float):
        return [
            sn_first_fit(),
            sp_first_fit(),
            NsgaIIMapper(generations=int(x)),
        ]

    return run_sweep(
        "Fig6 NSGAII generations tradeoff",
        "generations",
        cfg.fig6_generations,
        make_graphs,
        make_mappers,
        platform,
        seed=seed,
        n_random_schedules=cfg.n_random_schedules,
        progress=progress,
        workers=resolve_workers(workers, cfg.parallel_workers),
        journal=journal,
    )

