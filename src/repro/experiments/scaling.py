"""Empirical complexity of the decomposition mappers (paper Sec. IV-B).

"Generally, on our test data, all decomposition-based mapping strategies
exhibit a quadratic behavior regarding their execution time, although their
theoretical execution time has a cubic dependency on the number of tasks.
[...] the number of iterations in which an improvement occurs is in practice
much smaller than the number of tasks and grows very slowly."

This driver measures mapper wall time over graph size and fits the power-law
exponent ``time ~ n^alpha`` by least squares on log-log data.  The paper's
claim corresponds to ``alpha`` around 2 (and clearly below the worst-case 3)
for both decomposition strategies.

Run:  repro experiment scaling --scale smoke
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..graphs.generators import random_sp_graph
from ..mappers import sn_first_fit, sp_first_fit, single_node, series_parallel
from ..parallel import resolve_workers
from ..platform import paper_platform
from .config import get_scale
from .reporting import format_sweep_table
from .runner import SweepResult, run_sweep

__all__ = ["run", "fit_exponents", "format_report"]


def run(
    scale="smoke",
    *,
    seed: int = 30,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal=None,
) -> SweepResult:
    """Measure mapper wall time over graph size.

    ``journal`` checkpoints completed per-graph work through
    :func:`~repro.experiments.runner.run_sweep` — note only the
    seed-derived columns of a resumed run are meaningful here, since this
    driver's whole point is wall-clock timing.
    """
    cfg = get_scale(scale)
    platform = paper_platform()

    def make_graphs(x: float, rng: np.random.Generator) -> List:
        return [
            random_sp_graph(int(x), rng) for _ in range(cfg.graphs_per_point)
        ]

    def make_mappers(x: float):
        return [single_node(), series_parallel(), sn_first_fit(), sp_first_fit()]

    return run_sweep(
        "Scaling decomposition mappers",
        "n_tasks",
        cfg.fig4_sizes,
        make_graphs,
        make_mappers,
        platform,
        seed=seed,
        n_random_schedules=max(5, cfg.n_random_schedules // 5),
        progress=progress,
        workers=resolve_workers(workers, cfg.parallel_workers),
        journal=journal,
    )


def fit_exponents(result: SweepResult) -> Dict[str, float]:
    """Least-squares power-law exponent of time vs n per algorithm.

    Sizes below 10 tasks are dropped (constant overheads dominate there).
    """
    out: Dict[str, float] = {}
    for series in result.series():
        xs = np.array(series.xs)
        ts = np.array(series.time_s)
        keep = (xs >= 10) & (ts > 0)
        if keep.sum() < 2:
            out[series.name] = float("nan")
            continue
        slope, _ = np.polyfit(np.log(xs[keep]), np.log(ts[keep]), 1)
        out[series.name] = float(slope)
    return out


def format_report(result: SweepResult) -> str:
    """The sweep tables followed by the fitted exponent per algorithm."""
    lines = [format_sweep_table(result), "", "fitted time ~ n^alpha exponents:"]
    lines += [
        f"  {name:>16s}: alpha = {alpha:.2f}"
        for name, alpha in fit_exponents(result).items()
    ]
    return "\n".join(lines)
