"""Fig. 7 — almost-series-parallel graphs with conflicting edges.

Paper setup: task graphs with 100 nodes and 0..200 additional randomly
inserted edges (directed along a random topological order, so most are
conflicting); algorithms HEFT, PEFT, NSGAII, SNFirstFit, SPFirstFit.

Expected shape: added data transfers slightly depress every algorithm's
improvement; the series-parallel decomposition *converges towards the
single-node decomposition* as its trees shatter into single edges, and its
execution time grows with the number of conflicting edges (up to ~30 %
above SingleNode at 200 extra edges) while SingleNode's stays flat.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..graphs.generators import random_almost_sp_graph
from ..mappers import (
    HeftMapper,
    NsgaIIMapper,
    PeftMapper,
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
    seed: int = 7,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal=None,
) -> SweepResult:
    cfg = get_scale(scale)
    platform = paper_platform()

    def make_graphs(x: float, rng: np.random.Generator) -> List:
        return [
            random_almost_sp_graph(cfg.fig7_n_tasks, int(x), rng)
            for _ in range(cfg.graphs_per_point)
        ]

    def make_mappers(x: float):
        return [
            HeftMapper(),
            PeftMapper(),
            NsgaIIMapper(generations=cfg.nsga_generations),
            sn_first_fit(),
            sp_first_fit(),
        ]

    return run_sweep(
        "Fig7 almost series-parallel",
        "extra_edges",
        cfg.fig7_extra_edges,
        make_graphs,
        make_mappers,
        platform,
        seed=seed,
        n_random_schedules=cfg.n_random_schedules,
        progress=progress,
        workers=resolve_workers(workers, cfg.parallel_workers),
        journal=journal,
    )

