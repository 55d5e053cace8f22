"""Fig. 3 — decomposition mapping vs three MILPs on random SP graphs.

Paper setup: random series-parallel graphs with 5..30 tasks (30 graphs per
size); algorithms ``WGDP Time``, ``WGDP Device``, ``ZhouLiu``,
``SingleNode``, ``SeriesParallel``.  ZhouLiu is only run up to 20 tasks
("timed out at a time limit of 5 minutes for graphs that have more than 20
nodes").

Expected shape: ZhouLiu good-but-tiny-scale; WGDP-Time the best MILP but
sharply slowing with size; the decomposition mappers match or beat every
MILP while staying orders of magnitude faster than the time-based ones;
WGDP-Dev is fast but clearly worse.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..graphs.generators import random_sp_graph
from ..mappers import (
    WgdpDeviceMapper,
    WgdpTimeMapper,
    ZhouLiuMapper,
    series_parallel,
    single_node,
)
from ..parallel import resolve_workers
from ..platform import paper_platform
from .config import get_scale
from .runner import SweepResult, run_sweep

__all__ = ["run"]


def run(
    scale="smoke",
    *,
    seed: int = 3,
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
        mappers = [
            WgdpTimeMapper(time_limit_s=cfg.milp_time_limit_s),
            WgdpDeviceMapper(time_limit_s=cfg.milp_time_limit_s),
            single_node(),
            series_parallel(),
        ]
        if x <= cfg.fig3_zhouliu_max:
            mappers.insert(
                2, ZhouLiuMapper(time_limit_s=cfg.zhouliu_time_limit_s)
            )
        return mappers

    return run_sweep(
        "Fig3 decomposition vs MILPs",
        "n_tasks",
        cfg.fig3_sizes,
        make_graphs,
        make_mappers,
        platform,
        seed=seed,
        n_random_schedules=cfg.n_random_schedules,
        progress=progress,
        workers=resolve_workers(workers, cfg.parallel_workers),
        journal=journal,
    )

