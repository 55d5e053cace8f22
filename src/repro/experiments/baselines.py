"""Extended baseline roster: every fast mapper in one sweep.

An extension study beyond the paper's roster: compares the decomposition
mappers against the full set of implemented list schedulers and
metaheuristics on random SP graphs.  Useful as a regression radar — if a
refactor quietly degrades one algorithm, this sweep shows it immediately.

Algorithms: HEFT, PEFT, CPOP, Lookahead-HEFT, Min-min, Max-min, tabu
search, simulated annealing, SNFirstFit, SPFirstFit.  (NSGA-II and the
MILPs are excluded here; they have dedicated figures.)

Run:  repro experiment baselines --scale smoke
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..graphs.generators import random_sp_graph
from ..mappers import (
    CpopMapper,
    HeftMapper,
    LookaheadHeftMapper,
    MaxMinMapper,
    MinMinMapper,
    PeftMapper,
    SimulatedAnnealingMapper,
    TabuSearchMapper,
    sn_first_fit,
    sp_first_fit,
)
from ..parallel import resolve_workers
from ..platform import paper_platform
from .config import get_scale
from .runner import SweepResult, run_sweep

__all__ = ["run"]


def run(
    scale="smoke",
    *,
    seed: int = 40,
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
            HeftMapper(),
            PeftMapper(),
            CpopMapper(),
            LookaheadHeftMapper(),
            MinMinMapper(),
            MaxMinMapper(),
            TabuSearchMapper(iterations=200),
            SimulatedAnnealingMapper(iterations=1000),
            sn_first_fit(),
            sp_first_fit(),
        ]

    return run_sweep(
        "Extended baselines",
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

