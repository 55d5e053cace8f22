"""Fig. 4 — decomposition mapping vs HEFT/PEFT on random SP graphs.

Paper setup: sizes 5..200 (step 5), 30 graphs per size; algorithms HEFT,
PEFT, SingleNode, SeriesParallel and their FirstFit variants.

Expected shape: HEFT/PEFT quality *decays* with graph size (their local view
cannot see the global impact of one task's mapping) while the decomposition
mappers stay roughly flat, SeriesParallel about 5 pp above SingleNode;
FirstFit matches the basic variants at a fraction of the execution time, and
SeriesParallel becomes *cheaper* than SingleNode for large graphs (larger
subgraphs replaced at once = fewer iterations).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..graphs.generators import random_sp_graph
from ..mappers import (
    HeftMapper,
    PeftMapper,
    series_parallel,
    single_node,
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
    seed: int = 4,
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
            single_node(),
            series_parallel(),
            sn_first_fit(),
            sp_first_fit(),
        ]

    return run_sweep(
        "Fig4 decomposition vs HEFT PEFT",
        "n_tasks",
        cfg.fig4_sizes,
        make_graphs,
        make_mappers,
        platform,
        seed=seed,
        n_random_schedules=cfg.n_random_schedules,
        progress=progress,
        workers=resolve_workers(workers, cfg.parallel_workers),
        journal=journal,
    )

