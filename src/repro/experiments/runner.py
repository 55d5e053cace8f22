"""Experiment runner: sweep mappers over graph collections.

Every figure sweep follows the protocol of Sec. IV-A of arXiv 2502.19745,
and :func:`run_sweep` is its one implementation:

1. generate a list of graphs per sweep point (30 per point at paper scale),
2. for every graph build one :class:`MappingEvaluator` (so all algorithms
   see the *same* schedule suite),
3. run every mapper, recording the positive relative improvement and the
   mapper wall-clock time,
4. aggregate per sweep point into :class:`SweepSeries` rows.

A study supplies only a :class:`Sweep` declaration (its x axis, graphs
and roster; see :mod:`repro.experiments.sweeps`); :func:`run_sweep`
decides scale, platform, suite size, workers and journal for all of them.

The runtime studies (robustness, replan, contention, topology) are
:class:`Study` declarations run by :func:`run_study`, which likewise
alone decides scale, platform, workers and journal: it maps a set of
graphs once with the study's roster through the same mapping step as a
sweep point (:func:`_map_graphs`, which Table I shares too), then
replays every mapping through the study's cell worker across its axes
and averages each metric over graphs into a :class:`StudyResult`.

Seeds are derived from a root :class:`numpy.random.SeedSequence`, making
every experiment reproducible end to end.  Graphs within a point are
independent work items, so ``run_point``/``run_sweep``/``run_study`` fan
them out through :mod:`repro.parallel` — ``workers=N`` results are
bit-identical to serial ones (see the seed-sharding contract in
``src/repro/parallel/README.md``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..evaluation.evaluator import MappingEvaluator
from ..graphs.generators import random_sp_graph
from ..graphs.taskgraph import TaskGraph
from ..mappers import (
    HeftMapper,
    Mapper,
    NsgaIIMapper,
    PeftMapper,
    sn_first_fit,
    sp_first_fit,
)
from ..obs import metrics as _obs_metrics
from ..obs import trace as _trace
from ..parallel import SupervisedPool, parallel_map, resolve_workers
from ..platform import paper_platform
from ..platform.platform import Platform
from .config import ScaleConfig, get_scale
from .metrics import AggregateStats, aggregate

__all__ = [
    "PointResult",
    "SweepSeries",
    "SweepResult",
    "Sweep",
    "Replay",
    "Study",
    "StudyResult",
    "paper_roster",
    "run_point",
    "run_sweep",
    "run_study",
]


def paper_roster(generations: int) -> List[Mapper]:
    """Table I's algorithms: HEFT, PEFT, NSGA-II, SNFirstFit, SPFirstFit.

    Fig. 7 and the robustness studies compare the same five.
    """
    return [
        HeftMapper(),
        PeftMapper(),
        NsgaIIMapper(generations=generations),
        sn_first_fit(),
        sp_first_fit(),
    ]


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


def _point_graph_worker(item) -> list:
    """Run every mapper of a roster on one graph (one parallel work item).

    Module-level so the process pool can pickle it by reference; all
    randomness comes from the seeds carried in the item, spawned by the
    parent (seed-sharding contract): the first seeds the evaluator's
    schedule suite, one more seeds each mapper.
    ``summarise(evaluator, mapper, result)`` reduces each run to the
    record the caller keeps.
    """
    g, seeds, mappers, platform, n_random_schedules, summarise = item
    eval_rng, *mapper_rngs = [np.random.default_rng(s) for s in seeds]
    evaluator = MappingEvaluator(
        g, platform, rng=eval_rng, n_random_schedules=n_random_schedules
    )
    return [
        summarise(evaluator, mapper, mapper.map(evaluator, rng=rng))
        for mapper, rng in zip(mappers, mapper_rngs)
    ]


def _improvement_row(evaluator, mapper, result) -> tuple:
    """A sweep point's record: improvement, wall-clock time, evaluations."""
    return (
        mapper.name,
        evaluator.relative_improvement(result.mapping),
        result.elapsed_s,
        float(result.n_evaluations),
    )


def _replay_row(evaluator, mapper, result) -> tuple:
    """A runtime study's record: mapping, analytic makespan, area usage."""
    mapping = list(result.mapping)
    model = evaluator.model
    return mapping, model.simulate(mapping), model.area_usage(mapping)


def _map_graphs(mappers, graphs, seeds, platform, n_random_schedules,
                summarise, *, x, pool, journal,
                progress=None, label="task") -> List[list]:
    """Map every graph with the roster: one ``experiment.point``.

    ``seeds[k]`` is graph ``k``'s :class:`~numpy.random.SeedSequence`.
    Its next ``1 + len(mappers)`` children, spawned here in the parent,
    seed the evaluator's schedule suite and then each mapper; a caller
    that drew the graph from the sequence's first children (Table I)
    thereby hands the evaluator and mappers the children after those.
    Traced runs get an ``experiment.point`` span around the mapping and
    bump the ``experiment.points``/``experiment.graphs`` counters.
    """
    items = [
        (g, gseed.spawn(1 + len(mappers)), list(mappers), platform,
         n_random_schedules, summarise)
        for g, gseed in zip(graphs, seeds)
    ]
    with _trace.span(
        "experiment.point", "experiment",
        {"x": x, "graphs": len(items)} if _trace.enabled() else None,
    ):
        out = parallel_map(_point_graph_worker, items, pool=pool,
                           label=label, progress=progress, journal=journal)
    registry = _obs_metrics.get_registry()
    if registry is not None:
        registry.counter("experiment.points").inc()
        registry.counter("experiment.graphs").inc(len(items))
    return out


def run_point(
    mappers: Sequence[Mapper],
    graphs: Sequence[TaskGraph],
    platform: Platform,
    *,
    seed=0,
    n_random_schedules: int = 100,
    x: float = 0.0,
    pool: SupervisedPool,
    journal=None,
) -> PointResult:
    """Run every mapper on every graph of one sweep point.

    ``seed`` may be an int or a :class:`numpy.random.SeedSequence`.
    The graphs fan out across the caller's
    :class:`~repro.parallel.SupervisedPool`; seeds are spawned per graph
    before dispatch, so every pool size gives a serial run's results.
    ``journal`` checkpoints per-graph results for resume.
    """
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    improvements: Dict[str, List[float]] = {m.name: [] for m in mappers}
    times: Dict[str, List[float]] = {m.name: [] for m in mappers}
    evals: Dict[str, List[float]] = {m.name: [] for m in mappers}
    for rows in _map_graphs(
        mappers, graphs, seq.spawn(len(graphs)), platform,
        n_random_schedules, _improvement_row, x=x, pool=pool,
        journal=journal,
    ):
        for name, imp, elapsed, n_evals in rows:
            improvements[name].append(imp)
            times[name].append(elapsed)
            evals[name].append(n_evals)
    return PointResult(
        x=x,
        improvements={k: aggregate(v) for k, v in improvements.items()},
        times={k: aggregate(v) for k, v in times.items()},
        evaluations={k: float(np.mean(v)) if v else 0.0 for k, v in evals.items()},
    )


@dataclass(frozen=True)
class Sweep:
    """One figure sweep, declared: what varies along x and who competes.

    ``xs(cfg)`` gives the sweep points, ``graphs(cfg, x, rng)`` the graph
    set of a point and ``roster(cfg, x)`` its algorithms (some figures
    vary algorithm parameters along x, e.g. Fig. 6 sweeps NSGA-II
    generations).  ``suite(cfg)`` sizes every graph's schedule suite.
    With ``one_graph_set`` the graphs are drawn once, as
    ``graphs(cfg, None, rng)`` from the root seed's first child, and
    every point reuses them.  Calling a declaration runs it through
    :func:`run_sweep`.
    """

    title: str
    x_label: str
    xs: Callable[[ScaleConfig], Sequence[float]]
    graphs: Callable[[ScaleConfig, Optional[float], np.random.Generator],
                     List[TaskGraph]]
    roster: Callable[[ScaleConfig, float], Sequence[Mapper]]
    suite: Callable[[ScaleConfig], int] = attrgetter("n_random_schedules")
    one_graph_set: bool = False

    def __call__(self, scale="smoke", **kwargs) -> SweepResult:
        return run_sweep(self, scale, **kwargs)


def run_sweep(
    sweep: Sweep,
    scale="smoke",
    *,
    seed: int,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal=None,
) -> SweepResult:
    """Run a declared sweep at ``scale`` on the paper platform.

    ``workers`` (default: the scale's ``parallel_workers``) sizes the
    supervised process pool, created once and reused across every sweep
    point (per-point pools would pay fork/teardown at each x); the pool
    retries transient failures and rebuilds after crashes, and under an
    armed ``REPRO_CHAOS`` plan also times out hung workers — results are
    unaffected (seed-sharding contract).
    ``journal`` (a :class:`~repro.parallel.SweepJournal`) checkpoints
    every completed graph under a per-point key scope so an interrupted
    sweep resumes without recomputation.
    """
    cfg = get_scale(scale)
    platform = paper_platform()
    workers = resolve_workers(workers, cfg.parallel_workers)
    n_random_schedules = sweep.suite(cfg)
    xs = sweep.xs(cfg)
    result = SweepResult(title=sweep.title, x_label=sweep.x_label)
    if sweep.one_graph_set:
        shared = sweep.graphs(cfg, None, np.random.default_rng(
            np.random.SeedSequence(seed).spawn(1)[0]
        ))
    root = np.random.SeedSequence(seed)
    with SupervisedPool(workers) as pool:
        for i, (x, sub) in enumerate(zip(xs, root.spawn(len(xs)))):
            gen_seed, point_seed = sub.spawn(2)
            graphs = shared if sweep.one_graph_set else sweep.graphs(
                cfg, x, np.random.default_rng(gen_seed)
            )
            point = run_point(
                sweep.roster(cfg, x),
                graphs,
                platform,
                seed=point_seed,
                n_random_schedules=n_random_schedules,
                x=float(x),
                pool=pool,
                journal=journal.scoped(f"point{i}:") if journal is not None
                else None,
            )
            result.points.append(point)
            if progress is not None:
                progress(f"{sweep.title}: {sweep.x_label}={x} done")
    return result


# ---------------------------------------------------------------------------
# runtime studies: map once, replay every mapping across the study's axes
# ---------------------------------------------------------------------------

class Replay(NamedTuple):
    """One graph's mapping by one algorithm, as a study cell replays it."""

    graph: TaskGraph
    platform: Platform      # replay platform (the nominal one unless reshaped)
    mapping: List[int]
    analytic: float         # analytic makespan on the nominal platform (s)


@dataclass
class StudyResult:
    """A runtime study's rows: key columns, then metrics averaged over graphs.

    Every point carries one attribute per column.  ``keys`` are the CSV
    key columns in CSV order (always including ``"algorithm"``), which is
    also the argument order of :meth:`cell`; rows stay in sweep order.
    """

    title: str
    csv_name: str
    keys: Tuple[str, ...]
    metrics: Tuple[str, ...]
    points: List[SimpleNamespace] = field(default_factory=list)

    @property
    def csv_header(self) -> Tuple[str, ...]:
        return self.keys + self.metrics

    def csv_rows(self):
        for p in self.points:
            yield [getattr(p, k) for k in self.keys] + [
                f"{getattr(p, m):.6f}" for m in self.metrics
            ]

    def axis(self, name: str) -> list:
        """Distinct values of one key column, in row order."""
        return list(dict.fromkeys(getattr(p, name) for p in self.points))

    def algorithms(self) -> List[str]:
        return self.axis("algorithm")

    def cell(self, *key) -> SimpleNamespace:
        for p in self.points:
            if tuple(getattr(p, k) for k in self.keys) == key:
                return p
        raise KeyError(key)


@dataclass(frozen=True)
class Study:
    """One runtime study, declared: which mappings it replays, and how.

    ``n_graphs(cfg)`` SP graphs of ``n_tasks(cfg)`` tasks are mapped once
    by ``roster(cfg)``.  ``axes(cfg)`` names the swept parameters,
    outermost first; at every point, ``cell`` (a module-level worker)
    replays each mapping as the item ``(replay, sim_seed,
    *cell_args(cfg, point))`` and returns one value per metric.
    ``reshape(platform, area_usage)``, when given, builds each mapping's
    replay platform.  ``title(cfg, axes)`` heads the result; ``keys``
    and ``metrics`` are its CSV columns (see :class:`StudyResult`).
    Calling a declaration runs it through :func:`run_study`.
    """

    title: Callable[[ScaleConfig, Dict[str, Sequence]], str]
    csv_name: str
    keys: Tuple[str, ...]
    metrics: Tuple[str, ...]
    roster: Callable[[ScaleConfig], Sequence[Mapper]]
    n_tasks: Callable[[ScaleConfig], int]
    n_graphs: Callable[[ScaleConfig], int]
    axes: Callable[[ScaleConfig], Dict[str, Sequence]]
    cell: Callable[[tuple], Dict[str, float]]
    cell_args: Callable[[ScaleConfig, dict], tuple]
    label: str
    reshape: Optional[Callable[[Platform, Dict[int, float]], Platform]] = None

    def __call__(self, scale="smoke", **kwargs) -> StudyResult:
        return run_study(self, scale, **kwargs)


def run_study(
    study: Study,
    scale="smoke",
    *,
    seed: int,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal=None,
) -> StudyResult:
    """Run a declared runtime study at ``scale`` on the paper platform.

    1. Generate the study's SP graphs.
    2. Map each graph once with the roster (:func:`_map_graphs`); every
       mapping becomes a :class:`Replay`, on the reshaped platform when
       the study reshapes (built once per graph and algorithm).
    3. Cross the axes (outermost first) x algorithms x graphs into cell
       items and run them all with one :func:`parallel_map` (journal
       keys ``"{label}:{index}"``).
    4. Average each metric over graphs into one row per (axis point,
       algorithm).

    ``seed`` spawns graph, map and simulation children.  Each (graph,
    algorithm) pair keeps one simulation seed at every axis point, so
    moving along an axis changes only the swept parameter, never the
    draws; deterministic cells ignore it.  ``workers`` and ``journal``
    act as in :func:`run_sweep`: a resumed run recomputes only
    outstanding cells and emits a byte-identical CSV.
    """
    cfg = get_scale(scale)
    workers = resolve_workers(workers, cfg.parallel_workers)
    platform = paper_platform()
    axes = study.axes(cfg)
    roster = study.roster(cfg)
    n_graphs = study.n_graphs(cfg)
    result = StudyResult(study.title(cfg, axes), study.csv_name,
                         study.keys, study.metrics)
    graph_seed, map_seed, sim_seed = np.random.SeedSequence(seed).spawn(3)
    graphs = [
        random_sp_graph(study.n_tasks(cfg), np.random.default_rng(s))
        for s in graph_seed.spawn(n_graphs)
    ]
    points = [dict(zip(axes, values))
              for values in itertools.product(*axes.values())]
    algorithms = [mapper.name for mapper in roster]

    with SupervisedPool(workers) as pool:
        mapped = _map_graphs(
            roster, graphs, map_seed.spawn(n_graphs), platform,
            cfg.n_random_schedules, _replay_row, x=study.csv_name,
            pool=pool, journal=journal, progress=progress,
            label="roster graph",
        )
        reshape = study.reshape
        replays = [
            [Replay(g, reshape(platform, usage) if reshape else platform,
                    mapping, analytic)
             for mapping, analytic, usage in rows]
            for g, rows in zip(graphs, mapped)
        ]
        sim_seeds = sim_seed.spawn(n_graphs * len(algorithms))
        items = [
            (replays[k][a], sim_seeds[k * len(algorithms) + a],
             *study.cell_args(cfg, point))
            for point in points
            for a in range(len(algorithms))
            for k in range(n_graphs)
        ]
        cells = iter(parallel_map(
            study.cell, items, pool=pool, label=study.label,
            progress=progress, journal=journal,
        ))

    for point in points:
        for algorithm in algorithms:
            rows = list(itertools.islice(cells, n_graphs))
            result.points.append(SimpleNamespace(
                **point, algorithm=algorithm,
                **{m: float(np.mean([r[m] for r in rows]))
                   for m in study.metrics},
            ))
    return result
