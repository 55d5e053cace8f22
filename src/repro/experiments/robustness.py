"""Robustness experiments: noise degradation and failure re-mapping policies.

An extension study beyond the paper's model-based evaluation: every mapper
optimizes the *analytic* makespan, but a mapping that wins under the model
can lose badly once task runtimes jitter — or once a device drops out.
Two studies share one harness:

**Noise sweep** (:func:`run`) — maps each graph with the decomposition
mappers and the HEFT/PEFT/NSGA-II roster, replays every mapping through
the runtime engine (:mod:`repro.runtime`) under increasing lognormal
runtime noise, and reports per noise level how much each algorithm's
promised makespan erodes:

- **degradation** — expected simulated makespan / analytic makespan − 1,
- **p95 degradation** — the tail a latency SLO would care about.

Simulation seeds are derived *once* per (graph, algorithm) and reused at
every noise level, so the degradation curves are paired: moving along the
sigma axis changes only the noise magnitude, never the underlying draws.

**Replan sweep** (:func:`run_replan`) — the policy axis: a device fails
mid-run and the engine rescues stranded work either with the fixed
fallback or by re-running a mapper (decomposition / HEFT / min-min) on
the surviving platform (:mod:`repro.runtime.replan`).  Failure times and
noise draws are paired across policies, so the comparison isolates the
policy effect.

Both drivers fan their per-(configuration, replication) work out through
:mod:`repro.parallel`; ``--workers N`` results are bit-identical to
serial runs.

Run:  repro experiment robustness --scale smoke --csv
      repro experiment replan --workers 4
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..evaluation import MappingEvaluator
from ..graphs.generators import random_sp_graph
from ..mappers import (
    HeftMapper,
    NsgaIIMapper,
    PeftMapper,
    sn_first_fit,
    sp_first_fit,
)
from ..parallel import (
    SupervisedPool,
    parallel_map,
    plan_from_env,
    resolve_workers,
)
from ..platform import paper_platform
from ..runtime import (
    DeviceFailure,
    LognormalNoise,
    NoNoise,
    replicate,
    robustness_report,
)
from .config import get_scale

__all__ = [
    "RobustnessPoint",
    "RobustnessResult",
    "ReplanPoint",
    "ReplanResult",
    "run",
    "run_replan",
    "format_robustness_table",
    "format_replan_table",
]


@dataclass(frozen=True)
class RobustnessPoint:
    """One (noise level, algorithm) cell, aggregated over graphs."""

    sigma: float
    algorithm: str
    analytic_s: float          # mean analytic makespan across graphs (s)
    mean_s: float              # mean simulated makespan across graphs (s)
    degradation: float         # mean of per-graph (mean/analytic - 1)
    p95_degradation: float     # mean of per-graph (p95/analytic - 1)


@dataclass
class RobustnessResult:
    """A full robustness sweep: noise levels x algorithms."""

    title: str
    points: List[RobustnessPoint] = field(default_factory=list)

    csv_name = "robustness_noise_sweep.csv"
    csv_header = ("noise_sigma", "algorithm", "analytic_s", "mean_s",
                  "degradation", "p95_degradation")

    def csv_rows(self):
        for p in self.points:
            yield [p.sigma, p.algorithm, *(f"{v:.6f}" for v in (
                p.analytic_s, p.mean_s, p.degradation, p.p95_degradation))]

    def algorithms(self) -> List[str]:
        seen: Dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.algorithm)
        return list(seen)

    def sigmas(self) -> List[float]:
        return sorted({p.sigma for p in self.points})

    def cell(self, sigma: float, algorithm: str) -> RobustnessPoint:
        for p in self.points:
            if p.sigma == sigma and p.algorithm == algorithm:
                return p
        raise KeyError((sigma, algorithm))


@dataclass(frozen=True)
class ReplanPoint:
    """One (replan policy, algorithm) cell, aggregated over graphs."""

    policy: str
    algorithm: str
    analytic_s: float          # mean no-failure analytic makespan (s)
    mean_s: float              # mean simulated makespan under failure (s)
    degradation: float         # mean of per-graph (mean/analytic - 1)
    p95_degradation: float
    mean_killed: float         # task executions lost per run
    mean_remapped: float       # tasks moved per run


@dataclass
class ReplanResult:
    """A replan-policy sweep: policies x algorithms under device failure."""

    title: str
    points: List[ReplanPoint] = field(default_factory=list)

    csv_name = "replan_policy_sweep.csv"
    csv_header = ("policy", "algorithm", "analytic_s", "mean_s", "degradation",
                  "p95_degradation", "mean_killed", "mean_remapped")

    def csv_rows(self):
        for p in self.points:
            yield [p.policy, p.algorithm, *(f"{v:.6f}" for v in (
                p.analytic_s, p.mean_s, p.degradation, p.p95_degradation,
                p.mean_killed, p.mean_remapped))]

    def algorithms(self) -> List[str]:
        seen: Dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.algorithm)
        return list(seen)

    def policies(self) -> List[str]:
        seen: Dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.policy)
        return list(seen)

    def cell(self, policy: str, algorithm: str) -> ReplanPoint:
        for p in self.points:
            if p.policy == policy and p.algorithm == algorithm:
                return p
        raise KeyError((policy, algorithm))


def _roster(cfg):
    return [
        HeftMapper(),
        PeftMapper(),
        NsgaIIMapper(generations=cfg.nsga_generations),
        sn_first_fit(),
        sp_first_fit(),
    ]


# ---------------------------------------------------------------------------
# parallel work items (module-level: the pool pickles workers by reference)
# ---------------------------------------------------------------------------

def _map_graph_worker(item) -> Tuple[Dict[str, List[int]], Dict[str, float]]:
    """Map one graph with the full roster; returns (mappings, analytics)."""
    graph, platform, cfg, map_child = item
    mappers = _roster(cfg)
    eval_rng, *mapper_rngs = [
        np.random.default_rng(s) for s in map_child.spawn(1 + len(mappers))
    ]
    evaluator = MappingEvaluator(
        graph, platform, rng=eval_rng,
        n_random_schedules=cfg.n_random_schedules,
    )
    mappings: Dict[str, List[int]] = {}
    analytics: Dict[str, float] = {}
    for mapper, rng in zip(mappers, mapper_rngs):
        mapping = list(mapper.map(evaluator, rng=rng).mapping)
        mappings[mapper.name] = mapping
        analytics[mapper.name] = evaluator.model.simulate(mapping)
    return mappings, analytics


def _map_phase(graphs, platform, cfg, map_seed, workers, progress,
               executor=None, journal=None):
    """Map every graph once; the sweeps reuse the mappings."""
    items = [
        (g, platform, cfg, child)
        for g, child in zip(graphs, map_seed.spawn(len(graphs)))
    ]
    out = parallel_map(
        _map_graph_worker, items, workers=workers,
        progress=progress, label="mapped graph", executor=executor,
        journal=journal,
    )
    return [m for m, _ in out], [a for _, a in out]


def _sweep_pool(workers):
    """One supervised pool shared by a driver's map and simulate phases.

    Retries transient failures, times out hung workers, and rebuilds the
    executor after crashes; results are unaffected because every item
    carries its own seeds (seed-sharding contract).
    """
    return SupervisedPool(workers, chaos=plan_from_env())


def _noise_cell_worker(item) -> Tuple[float, float, float, float]:
    """One (sigma, algorithm, graph) replication batch."""
    graph, platform, mapping, analytic, sigma, n, sim_child = item
    report = robustness_report(
        replicate(
            graph, platform, mapping,
            n=n, noise=LognormalNoise(sigma), seed=sim_child,
        ),
        analytic,
    )
    return report.degradation, report.p95_degradation, report.mean, report.analytic


def _replan_cell_worker(item):
    """One (policy, algorithm, graph) replication batch under failure."""
    (graph, platform, mapping, analytic, sigma, n, sim_child,
     frac, device, policy) = item
    noise = LognormalNoise(sigma) if sigma > 0 else NoNoise()
    traces = replicate(
        graph, platform, mapping,
        n=n, noise=noise,
        scenarios=[DeviceFailure(frac * analytic, device=device)],
        seed=sim_child, replan_policy=policy,
    )
    report = robustness_report(traces, analytic)
    killed = float(np.mean([t.n_killed for t in traces]))
    remapped = float(np.mean(
        [sum(j.n_remapped for j in t.jobs) for t in traces]
    ))
    return (report.degradation, report.p95_degradation, report.mean,
            killed, remapped)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def run(
    scale="smoke",
    *,
    seed: int = 77,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal=None,
) -> RobustnessResult:
    """Sweep noise levels; returns mean/p95 degradation per algorithm.

    Per-replication simulation seeds are derived once per (graph,
    algorithm) from ``sim_seed`` and reused at every sigma, so curves
    along the noise axis are paired — seed variance never masquerades as
    a noise effect.

    ``journal`` checkpoints completed cells (see
    :func:`repro.experiments.registry.open_journal`): a resumed run
    recomputes only outstanding cells and emits a byte-identical CSV.
    """
    cfg = get_scale(scale)
    workers = resolve_workers(workers, cfg.parallel_workers)
    platform = paper_platform()
    root = np.random.SeedSequence(seed)
    graph_seed, map_seed, sim_seed = root.spawn(3)

    graphs = [
        random_sp_graph(cfg.robustness_n_tasks, np.random.default_rng(s))
        for s in graph_seed.spawn(cfg.robustness_graphs)
    ]

    with _sweep_pool(workers) as executor:
        # map once per (graph, algorithm); the sweep reuses the mappings
        mappings, analytics = _map_phase(
            graphs, platform, cfg, map_seed, workers, progress, executor,
            journal,
        )
        algorithms = list(mappings[0])

        # one simulation seed per (graph, algorithm), shared by every sigma
        sim_children = sim_seed.spawn(len(graphs) * len(algorithms))
        items = []
        for sigma in cfg.robustness_noise_levels:
            for a, algorithm in enumerate(algorithms):
                for k, graph in enumerate(graphs):
                    items.append((
                        graph, platform,
                        mappings[k][algorithm], analytics[k][algorithm],
                        sigma, cfg.robustness_replications,
                        sim_children[k * len(algorithms) + a],
                    ))
        cells = parallel_map(
            _noise_cell_worker, items, workers=workers,
            progress=progress, label="noise cell", executor=executor,
            journal=journal,
        )

    result = RobustnessResult(
        title=f"Robustness under lognormal runtime noise ({cfg.name})"
    )
    it = iter(cells)
    for sigma in cfg.robustness_noise_levels:
        for algorithm in algorithms:
            rows = [next(it) for _ in graphs]
            result.points.append(RobustnessPoint(
                sigma=sigma,
                algorithm=algorithm,
                analytic_s=float(np.mean([r[3] for r in rows])),
                mean_s=float(np.mean([r[2] for r in rows])),
                degradation=float(np.mean([r[0] for r in rows])),
                p95_degradation=float(np.mean([r[1] for r in rows])),
            ))
        if progress:
            progress(f"sigma={sigma:g} done")
    return result


def run_replan(
    scale="smoke",
    *,
    seed: int = 78,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal=None,
) -> ReplanResult:
    """Sweep re-mapping policies under a mid-run device failure.

    A device (``cfg.replan_device``) fails at
    ``cfg.replan_failure_frac`` of each mapping's analytic makespan;
    every policy replays the *same* seeds, failure instants and noise
    draws, so differences are pure policy effect.
    ``journal`` checkpoints completed cells exactly as in :func:`run`.
    """
    cfg = get_scale(scale)
    workers = resolve_workers(workers, cfg.parallel_workers)
    platform = paper_platform()
    if not 0 <= cfg.replan_device < platform.n_devices:
        raise ValueError(
            f"replan_device {cfg.replan_device} out of range for "
            f"{platform.n_devices}-device platform"
        )
    root = np.random.SeedSequence(seed)
    graph_seed, map_seed, sim_seed = root.spawn(3)

    graphs = [
        random_sp_graph(cfg.robustness_n_tasks, np.random.default_rng(s))
        for s in graph_seed.spawn(cfg.robustness_graphs)
    ]
    with _sweep_pool(workers) as executor:
        mappings, analytics = _map_phase(
            graphs, platform, cfg, map_seed, workers, progress, executor,
            journal,
        )
        algorithms = list(mappings[0])

        # one seed per (graph, algorithm), shared by every policy (paired)
        sim_children = sim_seed.spawn(len(graphs) * len(algorithms))
        items = []
        for policy in cfg.replan_policies:
            for a, algorithm in enumerate(algorithms):
                for k, graph in enumerate(graphs):
                    items.append((
                        graph, platform,
                        mappings[k][algorithm], analytics[k][algorithm],
                        cfg.replan_sigma, cfg.robustness_replications,
                        sim_children[k * len(algorithms) + a],
                        cfg.replan_failure_frac, cfg.replan_device, policy,
                    ))
        cells = parallel_map(
            _replan_cell_worker, items, workers=workers,
            progress=progress, label="replan cell", executor=executor,
            journal=journal,
        )

    result = ReplanResult(
        title=(
            f"Re-mapping policies under device-{cfg.replan_device} failure "
            f"at {cfg.replan_failure_frac:g}x makespan ({cfg.name})"
        )
    )
    it = iter(cells)
    for policy in cfg.replan_policies:
        for algorithm in algorithms:
            rows = [next(it) for _ in graphs]
            result.points.append(ReplanPoint(
                policy=policy,
                algorithm=algorithm,
                analytic_s=float(np.mean([analytics[k][algorithm]
                                          for k in range(len(graphs))])),
                mean_s=float(np.mean([r[2] for r in rows])),
                degradation=float(np.mean([r[0] for r in rows])),
                p95_degradation=float(np.mean([r[1] for r in rows])),
                mean_killed=float(np.mean([r[3] for r in rows])),
                mean_remapped=float(np.mean([r[4] for r in rows])),
            ))
        if progress:
            progress(f"policy={policy} done")
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def format_robustness_table(result: RobustnessResult) -> str:
    """Render the sweep as fixed-width text tables, one per metric."""
    algorithms = result.algorithms()
    widths = [max(len(a), 10) for a in algorithms]
    lines = [f"== {result.title} =="]

    def table(header: str, getter) -> None:
        lines.append(f"-- {header} --")
        head = f"{'noise_sigma':>12s} | " + " | ".join(
            f"{a:>{w}s}" for a, w in zip(algorithms, widths)
        )
        lines.append(head)
        lines.append("-" * len(head))
        for sigma in result.sigmas():
            cells = [
                f"{getter(result.cell(sigma, a)):>{w}.3f}"
                for a, w in zip(algorithms, widths)
            ]
            lines.append(f"{sigma:>12g} | " + " | ".join(cells))

    table("mean degradation (mean/analytic - 1)", lambda p: p.degradation)
    table("p95 degradation (p95/analytic - 1)", lambda p: p.p95_degradation)
    return "\n".join(lines)


def format_replan_table(result: ReplanResult) -> str:
    """Render the policy sweep as fixed-width text tables."""
    algorithms = result.algorithms()
    widths = [max(len(a), 10) for a in algorithms]
    lines = [f"== {result.title} =="]

    def table(header: str, getter) -> None:
        lines.append(f"-- {header} --")
        head = f"{'policy':>14s} | " + " | ".join(
            f"{a:>{w}s}" for a, w in zip(algorithms, widths)
        )
        lines.append(head)
        lines.append("-" * len(head))
        for policy in result.policies():
            cells = [
                f"{getter(result.cell(policy, a)):>{w}.3f}"
                for a, w in zip(algorithms, widths)
            ]
            lines.append(f"{policy:>14s} | " + " | ".join(cells))

    table("mean degradation (mean/analytic - 1)", lambda p: p.degradation)
    table("p95 degradation (p95/analytic - 1)", lambda p: p.p95_degradation)
    table("tasks remapped per run", lambda p: p.mean_remapped)
    return "\n".join(lines)

