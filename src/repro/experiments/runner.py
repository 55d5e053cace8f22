"""Experiment runner: sweep mappers over graph collections.

The drivers in :mod:`repro.experiments` (one per paper figure/table) all
follow the same pattern:

1. generate a list of graphs per sweep point (30 per point at paper scale),
2. for every graph build one :class:`MappingEvaluator` (so all algorithms
   see the *same* schedule suite),
3. run every mapper, recording the positive relative improvement and the
   mapper wall-clock time,
4. aggregate per sweep point into :class:`SweepSeries` rows.

Seeds are derived from a root :class:`numpy.random.SeedSequence`, making
every experiment reproducible end to end.  Graphs within a point are
independent work items, so ``run_point``/``run_sweep`` fan them out
through :mod:`repro.parallel` — ``workers=N`` results are bit-identical
to serial ones (see the seed-sharding contract in
``src/repro/parallel/README.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..evaluation.evaluator import MappingEvaluator
from ..graphs.taskgraph import TaskGraph
from ..mappers.base import Mapper
from ..obs import metrics as _obs_metrics
from ..obs import trace as _trace
from ..parallel import SupervisedPool, parallel_map, plan_from_env
from ..platform.platform import Platform
from .metrics import AggregateStats, aggregate

__all__ = ["PointResult", "SweepSeries", "SweepResult", "run_point", "run_sweep"]


@dataclass
class PointResult:
    """Results of all mappers on one sweep point (a set of graphs)."""

    x: float
    improvements: Dict[str, AggregateStats]
    times: Dict[str, AggregateStats]
    evaluations: Dict[str, float]


@dataclass
class SweepSeries:
    """One algorithm's line across the sweep (improvement + time)."""

    name: str
    xs: List[float] = field(default_factory=list)
    improvement: List[float] = field(default_factory=list)
    time_s: List[float] = field(default_factory=list)


@dataclass
class SweepResult:
    """A full sweep: per-point aggregates and per-algorithm series."""

    title: str
    x_label: str
    points: List[PointResult] = field(default_factory=list)

    def series(self) -> List[SweepSeries]:
        names: List[str] = []
        for p in self.points:
            for name in p.improvements:
                if name not in names:
                    names.append(name)
        out = []
        for name in names:
            s = SweepSeries(name)
            for p in self.points:
                if name in p.improvements:
                    s.xs.append(p.x)
                    s.improvement.append(p.improvements[name].mean)
                    s.time_s.append(p.times[name].mean)
            out.append(s)
        return out

    @property
    def csv_name(self) -> str:
        return self.title.lower().replace(" ", "_").replace("/", "-") + ".csv"

    @property
    def csv_header(self) -> List[str]:
        return [self.x_label, "algorithm", "improvement", "time_s", "hit_rate"]

    def csv_rows(self):
        for point in self.points:
            for name, stats in point.improvements.items():
                yield [
                    point.x, name, f"{stats.mean:.6f}",
                    f"{point.times[name].mean:.6f}", f"{stats.hit_rate:.3f}",
                ]


def _point_graph_worker(item) -> List[tuple]:
    """Run every mapper on one graph (one parallel work item).

    Module-level so the process pool can pickle it by reference; all
    randomness comes from the :class:`~numpy.random.SeedSequence`
    carried in the item (seed-sharding contract).
    """
    g, gseed, mappers, platform, n_random_schedules = item
    eval_rng, *mapper_rngs = [
        np.random.default_rng(s) for s in gseed.spawn(1 + len(mappers))
    ]
    evaluator = MappingEvaluator(
        g, platform, rng=eval_rng, n_random_schedules=n_random_schedules
    )
    out = []
    for mapper, rng in zip(mappers, mapper_rngs):
        result = mapper.map(evaluator, rng=rng)
        out.append((
            mapper.name,
            evaluator.relative_improvement(result.mapping),
            result.elapsed_s,
            float(result.n_evaluations),
        ))
    return out


def run_point(
    mappers: Sequence[Mapper],
    graphs: Sequence[TaskGraph],
    platform: Platform,
    *,
    seed=0,
    n_random_schedules: int = 100,
    x: float = 0.0,
    workers: int = 1,
    executor=None,
    journal=None,
) -> PointResult:
    """Run every mapper on every graph of one sweep point.

    ``seed`` may be an int or a :class:`numpy.random.SeedSequence`.
    ``workers > 1`` fans the graphs out across a process pool; seeds are
    spawned per graph before dispatch, so results are identical to a
    serial run.  ``executor`` reuses a caller-owned pool (see
    :func:`repro.parallel.parallel_map`); a
    :class:`~repro.parallel.SupervisedPool` adds retry/timeout/crash
    recovery.  ``journal`` checkpoints per-graph results for resume.
    """
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    graph_seeds = seq.spawn(len(graphs))
    improvements: Dict[str, List[float]] = {m.name: [] for m in mappers}
    times: Dict[str, List[float]] = {m.name: [] for m in mappers}
    evals: Dict[str, List[float]] = {m.name: [] for m in mappers}
    items = [
        (g, gseed, list(mappers), platform, n_random_schedules)
        for g, gseed in zip(graphs, graph_seeds)
    ]
    with _trace.span(
        "experiment.point", "experiment",
        {"x": x, "graphs": len(items)} if _trace.enabled() else None,
    ):
        for rows in parallel_map(_point_graph_worker, items, workers=workers,
                                 executor=executor, journal=journal):
            for name, imp, elapsed, n_evals in rows:
                improvements[name].append(imp)
                times[name].append(elapsed)
                evals[name].append(n_evals)
    registry = _obs_metrics.get_registry()
    if registry is not None:
        registry.counter("experiment.points").inc()
        registry.counter("experiment.graphs").inc(len(items))
    return PointResult(
        x=x,
        improvements={k: aggregate(v) for k, v in improvements.items()},
        times={k: aggregate(v) for k, v in times.items()},
        evaluations={k: float(np.mean(v)) if v else 0.0 for k, v in evals.items()},
    )


def run_sweep(
    title: str,
    x_label: str,
    xs: Sequence[float],
    make_graphs: Callable[[float, np.random.Generator], List[TaskGraph]],
    make_mappers: Callable[[float], Sequence[Mapper]],
    platform: Platform,
    *,
    seed: int = 0,
    n_random_schedules: int = 100,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
    journal=None,
) -> SweepResult:
    """Run a full parameter sweep.

    ``make_graphs(x, rng)`` builds the graph set of a sweep point;
    ``make_mappers(x)`` the algorithms (some figures vary algorithm
    parameters along x, e.g. Fig. 6 sweeps NSGA-II generations).
    ``workers`` sizes the supervised process pool, created once and
    reused across every sweep point (per-point pools would pay
    fork/teardown at each x); the pool retries transient failures,
    times out hung workers and rebuilds after crashes — results are
    unaffected (seed-sharding contract).  ``journal`` (a
    :class:`~repro.parallel.SweepJournal`) checkpoints every completed
    graph under a per-point key scope so an interrupted sweep resumes
    without recomputation.
    """
    result = SweepResult(title=title, x_label=x_label)
    root = np.random.SeedSequence(seed)
    workers = max(1, int(workers))
    with SupervisedPool(workers, chaos=plan_from_env()) as executor:
        for i, (x, sub) in enumerate(zip(xs, root.spawn(len(xs)))):
            gen_seed, point_seed = sub.spawn(2)
            rng = np.random.default_rng(gen_seed)
            graphs = make_graphs(x, rng)
            mappers = make_mappers(x)
            point = run_point(
                mappers,
                graphs,
                platform,
                seed=point_seed,
                n_random_schedules=n_random_schedules,
                x=float(x),
                workers=workers,
                executor=executor,
                journal=journal.scoped(f"point{i}:") if journal is not None
                else None,
            )
            result.points.append(point)
            if progress is not None:
                progress(f"{title}: {x_label}={x} done")
    return result
