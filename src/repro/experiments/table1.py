"""Table I — workflow benchmark families (WfCommons substitute).

Paper setup: the Sukhoroslov-Gorokhovskii benchmark sets (nine families
derived from WfCommons).  For each set the table reports

- row 1: the average positive relative improvement among all graphs,
- row 2: the summed execution time over all graphs, where each graph's time
  is averaged over 10 runs with different (random) parameterizations.

Algorithms: HEFT, PEFT, NSGAII, SNFirstFit, SPFirstFit.  For the ``bwa``
and ``seismology`` sets no algorithm finds a significant acceleration
(data-bound / tiny tasks); the paper omits those rows, we keep them for
verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..graphs.generators import augment_workflow, benchmark_sizes, make_workflow
from ..parallel import SupervisedPool, resolve_workers
from ..platform import paper_platform
from .config import get_scale
from .runner import _improvement_row, _map_graphs, paper_roster

__all__ = ["Table1Result", "run", "format_table"]


@dataclass
class Table1Result:
    """Per-family improvement means, summed execution times and summed
    model-evaluation counts (``total_evaluations`` is not a CSV column;
    unlike the times it depends only on code, seed and scale)."""

    algorithms: List[str]
    improvement: Dict[str, Dict[str, float]] = field(default_factory=dict)
    total_time_s: Dict[str, Dict[str, float]] = field(default_factory=dict)
    total_evaluations: Dict[str, Dict[str, int]] = field(default_factory=dict)

    csv_name = "table1.csv"
    csv_header = ("family", "algorithm", "improvement", "total_time_s")

    def families(self) -> List[str]:
        return list(self.improvement)

    def csv_rows(self):
        for family in self.families():
            for a in self.algorithms:
                yield [
                    family, a, f"{self.improvement[family][a]:.6f}",
                    f"{self.total_time_s[family][a]:.6f}",
                ]


def run(
    scale="smoke",
    *,
    seed: int,
    families: Optional[List[str]] = None,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal=None,
) -> Table1Result:
    """Reproduce Table I, for ``families`` only when given.

    Every (family, size, parameterization) cell gets its seed in a fixed
    order over *all* families, so a subset reproduces the full run's
    rows.  The cell's first two children draw its graph and
    augmentation here in the parent; :func:`runner._map_graphs` hands
    the children after those to the schedule suite and the mappers.
    ``journal`` checkpoints completed cells so an interrupted run
    restarts where it left off (see
    :func:`repro.experiments.registry.open_journal`).
    """
    cfg = get_scale(scale)
    workers = resolve_workers(workers, cfg.parallel_workers)
    every = benchmark_sizes(cfg.table1_sizes_key)
    sizes = every if families is None else {f: every[f] for f in families}
    roster = paper_roster(cfg.table1_generations)
    names = [m.name for m in roster]
    result = Table1Result(algorithms=names)

    root = np.random.SeedSequence(seed)
    graphs, seeds = [], []
    for family, family_seed in zip(sorted(every), root.spawn(len(every))):
        if family not in sizes:
            continue
        for size, size_seed in zip(
            sizes[family], family_seed.spawn(len(sizes[family]))
        ):
            for param_seed in size_seed.spawn(cfg.table1_parameterizations):
                gen_seed, aug_seed = param_seed.spawn(2)
                g = make_workflow(family, size, np.random.default_rng(gen_seed))
                augment_workflow(g, np.random.default_rng(aug_seed))
                graphs.append(g)
                seeds.append(param_seed)
    with SupervisedPool(workers) as pool:
        cells = _map_graphs(
            roster, graphs, seeds, paper_platform(), cfg.n_random_schedules,
            _improvement_row, x=result.csv_name, pool=pool, journal=journal,
            progress=progress, label="table1 cell",
        )

    it = iter(cells)
    for family in sorted(sizes):
        imps: Dict[str, List[float]] = {n: [] for n in names}
        per_graph_time: Dict[str, List[float]] = {n: [] for n in names}
        evals: Dict[str, int] = {n: 0 for n in names}
        for size in sizes[family]:
            times_this_graph: Dict[str, List[float]] = {n: [] for n in names}
            for _ in range(cfg.table1_parameterizations):
                for name, imp, elapsed, n_evals in next(it):
                    imps[name].append(imp)
                    times_this_graph[name].append(elapsed)
                    evals[name] += int(n_evals)
            for name, times in times_this_graph.items():
                per_graph_time[name].append(float(np.mean(times)))
            if progress is not None:
                progress(f"table1: {family} size={size} done")
        result.improvement[family] = {
            k: float(np.mean(v)) for k, v in imps.items()
        }
        result.total_time_s[family] = {
            k: float(np.sum(v)) for k, v in per_graph_time.items()
        }
        result.total_evaluations[family] = evals
    return result


def format_table(result: Table1Result) -> str:
    """Paper-style table: improvement row + total-time row per family."""
    algos = result.algorithms
    widths = [max(len(a), 10) for a in algos]
    head = f"{'set':>14s} | " + " | ".join(
        f"{a:>{w}s}" for a, w in zip(algos, widths)
    )
    lines = ["== Table I workflow benchmark sets ==", head, "-" * len(head)]
    for family in result.families():
        imp = result.improvement[family]
        tot = result.total_time_s[family]
        lines.append(
            f"{family:>14s} | "
            + " | ".join(f"{imp[a] * 100:>{w - 2}.0f} %" for a, w in zip(algos, widths))
        )
        lines.append(
            f"{'':>14s} | "
            + " | ".join(_fmt_time(tot[a], w) for a, w in zip(algos, widths))
        )
    return "\n".join(lines)


def _fmt_time(seconds: float, width: int) -> str:
    if seconds >= 1.0:
        return f"{seconds:>{width - 2}.1f} s"
    return f"{seconds * 1e3:>{width - 3}.0f} ms"

