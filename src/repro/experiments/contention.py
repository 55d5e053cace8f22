"""Shared-resource contention sweep: cross-job FPGA area and link slots.

The analytic model evaluates one job on an otherwise idle platform; a
serving deployment runs a *stream* of jobs that share the reconfigurable
fabric and the host↔device interconnect.  This extension study measures
what that sharing costs: for each (algorithm, link-slot setting, arrival
period) cell it replays a periodic arrival stream through the runtime
engine (:mod:`repro.runtime`) with the cross-job area ledger and the
FIFO transfer-slot model active, and reports

- **throughput** (jobs/s) and the **latency** distribution,
- **area wait** — seconds tasks waited for FPGA fabric held by other
  in-flight jobs (zero in the analytic, per-job-budget world),
- **link wait** — seconds transfers queued for a busy link slot,
- **energy per job** at the :mod:`repro.evaluation.energy` rates.

To make fabric contention real at every scale, the run platform's FPGA
capacity is sized at ``contention_area_headroom`` (default 1.5x) of one
job's mapped footprint: a single job always fits, two overlapping jobs
cannot both hold their full claim — exactly the situation the per-job
area check of PR 1/2 silently allowed and the ledger now arbitrates.
Runs are deterministic (zero noise), so every cell is one exact engine
replay and ``--workers N`` results are trivially bit-identical to serial.

The **topology axis** (``--topology``, :func:`run_topologies`) replays
the same streams over different interconnect *shapes*: the legacy
single shared pool (``"shared"``) versus per-link slot pools on the
:mod:`repro.platform.topologies` presets (star/mesh/ring/NUMA), with
the swept slot width applied per link.  Mappings are computed once per
graph on the nominal platform and shared across every topology cell, so
divergence between e.g. ``mesh`` and ``shared`` at the same slot count
is purely the resource model: routed transfers queue per link instead
of against one global pool.  With ``--csv`` the results land in
``results/topology_sweep.csv``.

Run:  repro experiment contention --scale smoke --csv
      repro experiment contention --scale smoke --topology mesh
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..evaluation import MappingEvaluator
from ..graphs.generators import random_sp_graph
from ..mappers import HeftMapper, sp_first_fit
from ..parallel import (
    SupervisedPool,
    parallel_map,
    plan_from_env,
    resolve_workers,
)
from ..platform import paper_platform
from ..platform.platform import Platform
from ..platform.topologies import TOPOLOGY_NAMES, with_topology
from ..runtime import RuntimeEngine, periodic_stream, throughput_report
from .config import get_scale

__all__ = [
    "ContentionPoint",
    "ContentionResult",
    "TopologyPoint",
    "TopologyResult",
    "run",
    "run_topologies",
    "format_contention_table",
    "format_topology_table",
]

#: names accepted by ``--topology``: the legacy shared pool + presets
SWEEP_TOPOLOGIES = ("shared",) + TOPOLOGY_NAMES


@dataclass(frozen=True)
class ContentionPoint:
    """One (algorithm, link_slots, period_frac) cell, mean over graphs."""

    algorithm: str
    link_slots: int            # 0 = unlimited (analytic link model)
    period_frac: float         # arrival period / analytic makespan
    jobs_per_second: float
    latency_mean_s: float
    latency_p95_s: float
    area_wait_s: float         # summed FPGA-area waiting per stream
    link_wait_s: float         # summed link-slot queueing per stream
    energy_per_job_j: float
    makespan_s: float          # stream horizon (first arrival -> done)


@dataclass
class ContentionResult:
    """A full contention sweep: algorithms x link slots x arrival rates."""

    title: str
    points: List[ContentionPoint] = field(default_factory=list)

    csv_name = "contention_sweep.csv"
    csv_header = ("algorithm", "link_slots", "period_frac", "jobs_per_second",
                  "latency_mean_s", "latency_p95_s", "area_wait_s",
                  "link_wait_s", "energy_per_job_j", "makespan_s")

    def csv_rows(self):
        for p in self.points:
            yield [p.algorithm, p.link_slots, p.period_frac, *(
                f"{v:.6f}" for v in (
                    p.jobs_per_second, p.latency_mean_s, p.latency_p95_s,
                    p.area_wait_s, p.link_wait_s, p.energy_per_job_j,
                    p.makespan_s))]

    def algorithms(self) -> List[str]:
        seen: Dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.algorithm)
        return list(seen)

    def cell(
        self, algorithm: str, link_slots: int, period_frac: float
    ) -> ContentionPoint:
        for p in self.points:
            if (
                p.algorithm == algorithm
                and p.link_slots == link_slots
                and p.period_frac == period_frac
            ):
                return p
        raise KeyError((algorithm, link_slots, period_frac))


@dataclass(frozen=True)
class TopologyPoint:
    """One (topology, algorithm, link_slots, period_frac) cell."""

    topology: str              # "shared" or a preset topology name
    algorithm: str
    link_slots: int            # slot width (per link for presets); 0 = inf
    period_frac: float
    jobs_per_second: float
    latency_mean_s: float
    latency_p95_s: float
    link_wait_s: float         # summed slot-queue time per stream
    n_link_waits: float        # mean queued-transfer count per stream
    energy_per_job_j: float
    makespan_s: float


@dataclass
class TopologyResult:
    """A topology sweep: interconnect shapes x link slots x arrival rates."""

    title: str
    points: List[TopologyPoint] = field(default_factory=list)

    csv_name = "topology_sweep.csv"
    csv_header = ("topology", "algorithm", "link_slots", "period_frac",
                  "jobs_per_second", "latency_mean_s", "latency_p95_s",
                  "link_wait_s", "n_link_waits", "energy_per_job_j",
                  "makespan_s")

    def csv_rows(self):
        for p in self.points:
            yield [p.topology, p.algorithm, p.link_slots, p.period_frac, *(
                f"{v:.6f}" for v in (
                    p.jobs_per_second, p.latency_mean_s, p.latency_p95_s,
                    p.link_wait_s, p.n_link_waits, p.energy_per_job_j,
                    p.makespan_s))]

    def topologies(self) -> List[str]:
        seen: Dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.topology)
        return list(seen)


def _roster():
    return [HeftMapper(), sp_first_fit()]


def _squeeze_fpga(platform: Platform, usage: Dict[int, float],
                  headroom: float) -> Platform:
    """Size area-capped devices at ``headroom x`` one job's footprint."""
    devices = []
    changed = False
    for d, dev in enumerate(platform.devices):
        used = usage.get(d, 0.0)
        if dev.area_capacity is not None and used > 0.0:
            devices.append(dataclasses.replace(
                dev, area_capacity=used * headroom
            ))
            changed = True
        else:
            devices.append(dev)
    if not changed:
        return platform
    return platform.with_devices(devices)


# ---------------------------------------------------------------------------
# parallel work items (module-level: the pool pickles workers by reference)
# ---------------------------------------------------------------------------

def _map_graph_worker(item):
    """Map one graph with the roster; returns (mappings, analytics, usage)."""
    graph, platform, cfg, map_child = item
    mappers = _roster()
    eval_rng, *mapper_rngs = [
        np.random.default_rng(s) for s in map_child.spawn(1 + len(mappers))
    ]
    evaluator = MappingEvaluator(
        graph, platform, rng=eval_rng,
        n_random_schedules=cfg.n_random_schedules,
    )
    mappings: Dict[str, List[int]] = {}
    analytics: Dict[str, float] = {}
    usages: Dict[str, Dict[int, float]] = {}
    for mapper, rng in zip(mappers, mapper_rngs):
        mapping = list(mapper.map(evaluator, rng=rng).mapping)
        mappings[mapper.name] = mapping
        analytics[mapper.name] = evaluator.model.simulate(mapping)
        usages[mapper.name] = evaluator.model.area_usage(mapping)
    return mappings, analytics, usages


def _contention_cell_worker(item):
    """Replay one deterministic arrival stream; returns the cell metrics."""
    graph, run_platform, mapping, analytic, n_jobs, frac, slots = item
    jobs = periodic_stream(graph, mapping, n_jobs, period=frac * analytic)
    engine = RuntimeEngine(run_platform, link_slots=slots)
    trace = engine.run(jobs)
    rep = throughput_report(trace)
    return (
        rep.jobs_per_second, rep.latency_mean, rep.latency_p95,
        trace.area_wait_time, trace.link_wait_time,
        rep.energy_per_job_j, rep.horizon,
    )


def _topology_cell_worker(item):
    """Replay one stream on a (possibly topology-reshaped) platform.

    ``topology == "shared"`` bounds the legacy single pool via the
    engine's ``link_slots``; a preset name reshapes the platform with
    ``slots`` per link and leaves the engine at its default (per-link
    pools).  ``slots == 0`` is unlimited either way; since ``mesh``
    routes are all direct, its ``slots=0`` cells are bit-identical to
    ``shared`` ``slots=0`` — the sweep's built-in equivalence anchor
    (multi-hop shapes like ``star`` still differ there, through routed
    cost alone).
    """
    graph, base_platform, topology, mapping, analytic, n_jobs, frac, slots \
        = item
    jobs = periodic_stream(graph, mapping, n_jobs, period=frac * analytic)
    if topology == "shared":
        engine = RuntimeEngine(base_platform, link_slots=slots)
    else:
        engine = RuntimeEngine(
            with_topology(base_platform, topology, slots=slots)
        )
    trace = engine.run(jobs)
    rep = throughput_report(trace)
    return (
        rep.jobs_per_second, rep.latency_mean, rep.latency_p95,
        trace.link_wait_time, trace.n_link_waits,
        rep.energy_per_job_j, rep.horizon,
    )


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run(
    scale="smoke",
    *,
    seed: int = 79,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal=None,
) -> ContentionResult:
    """Sweep link-slot settings and arrival rates under shared resources.

    Every cell replays the *same* mapped jobs (mappings are computed once
    per graph on the nominal platform, seeds are derived per graph), so
    moving along the link-slot or period axis changes only the resource
    model, never the workload — differences are pure contention effect.
    ``journal`` checkpoints completed cells (see
    :func:`repro.experiments.registry.open_journal`).
    """
    cfg = get_scale(scale)
    workers = resolve_workers(workers, cfg.parallel_workers)
    platform = paper_platform()
    root = np.random.SeedSequence(seed)
    graph_seed, map_seed = root.spawn(2)

    graphs = [
        random_sp_graph(cfg.contention_n_tasks, np.random.default_rng(s))
        for s in graph_seed.spawn(cfg.contention_graphs)
    ]
    map_items = [
        (g, platform, cfg, child)
        for g, child in zip(graphs, map_seed.spawn(len(graphs)))
    ]
    with SupervisedPool(workers, chaos=plan_from_env()) as executor:
        mapped = parallel_map(
            _map_graph_worker, map_items, workers=workers,
            progress=progress, label="mapped graph", executor=executor,
            journal=journal,
        )
        algorithms = list(mapped[0][0])
        # the squeezed platform depends only on (algorithm, graph): build
        # each once instead of per (link_slots, period) cell
        run_platforms = {
            (algorithm, k): _squeeze_fpga(
                platform, mapped[k][2][algorithm],
                cfg.contention_area_headroom,
            )
            for algorithm in algorithms
            for k in range(len(graphs))
        }

        items = []
        for slots in cfg.contention_link_slots:
            for frac in cfg.contention_period_fracs:
                for algorithm in algorithms:
                    for k, graph in enumerate(graphs):
                        mappings, analytics, _ = mapped[k]
                        items.append((
                            graph, run_platforms[algorithm, k],
                            mappings[algorithm],
                            analytics[algorithm], cfg.contention_jobs,
                            frac, slots,
                        ))
        cells = parallel_map(
            _contention_cell_worker, items, workers=workers,
            progress=progress, label="contention cell", executor=executor,
            journal=journal,
        )

    result = ContentionResult(
        title=(
            f"Shared-resource contention: {cfg.contention_jobs}-job streams, "
            f"{cfg.contention_area_headroom:g}x FPGA headroom ({cfg.name})"
        )
    )
    it = iter(cells)
    for slots in cfg.contention_link_slots:
        for frac in cfg.contention_period_fracs:
            for algorithm in algorithms:
                rows = [next(it) for _ in graphs]
                result.points.append(ContentionPoint(
                    algorithm=algorithm,
                    link_slots=slots,
                    period_frac=frac,
                    jobs_per_second=float(np.mean([r[0] for r in rows])),
                    latency_mean_s=float(np.mean([r[1] for r in rows])),
                    latency_p95_s=float(np.mean([r[2] for r in rows])),
                    area_wait_s=float(np.mean([r[3] for r in rows])),
                    link_wait_s=float(np.mean([r[4] for r in rows])),
                    energy_per_job_j=float(np.mean([r[5] for r in rows])),
                    makespan_s=float(np.mean([r[6] for r in rows])),
                ))
        if progress:
            progress(f"link_slots={slots or 'unlimited'} done")
    return result


def run_topologies(
    scale="smoke",
    *,
    topologies: Optional[List[str]] = None,
    seed: int = 79,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal=None,
) -> TopologyResult:
    """Sweep interconnect shapes under the shared-resource stream model.

    Mappings are computed once per graph on the *nominal* (uniform)
    platform and replayed on every topology, so a cell difference is
    purely the interconnect model: routed effective costs plus per-link
    slot pools versus the legacy shared pool.  ``topologies`` defaults
    to the scale's ``contention_topologies``; arrival periods reuse the
    nominal analytic makespan so the workload is identical everywhere.
    Deterministic (zero noise): serial and ``--workers N`` runs are
    bit-identical.
    """
    cfg = get_scale(scale)
    if topologies is None:
        topologies = list(cfg.contention_topologies)
    for name in topologies:
        if name not in SWEEP_TOPOLOGIES:
            raise ValueError(
                f"unknown topology {name!r} "
                f"(choose from {', '.join(SWEEP_TOPOLOGIES)})"
            )
    workers = resolve_workers(workers, cfg.parallel_workers)
    platform = paper_platform()
    root = np.random.SeedSequence(seed)
    graph_seed, map_seed = root.spawn(2)

    graphs = [
        random_sp_graph(cfg.contention_n_tasks, np.random.default_rng(s))
        for s in graph_seed.spawn(cfg.contention_graphs)
    ]
    map_items = [
        (g, platform, cfg, child)
        for g, child in zip(graphs, map_seed.spawn(len(graphs)))
    ]
    with SupervisedPool(workers, chaos=plan_from_env()) as executor:
        mapped = parallel_map(
            _map_graph_worker, map_items, workers=workers,
            progress=progress, label="mapped graph", executor=executor,
            journal=journal,
        )
        algorithms = list(mapped[0][0])
        run_platforms = {
            (algorithm, k): _squeeze_fpga(
                platform, mapped[k][2][algorithm],
                cfg.contention_area_headroom,
            )
            for algorithm in algorithms
            for k in range(len(graphs))
        }

        items = []
        for topology in topologies:
            for slots in cfg.contention_link_slots:
                for frac in cfg.contention_period_fracs:
                    for algorithm in algorithms:
                        for k, graph in enumerate(graphs):
                            mappings, analytics, _ = mapped[k]
                            items.append((
                                graph, run_platforms[algorithm, k],
                                topology, mappings[algorithm],
                                analytics[algorithm], cfg.contention_jobs,
                                frac, slots,
                            ))
        cells = parallel_map(
            _topology_cell_worker, items, workers=workers,
            progress=progress, label="topology cell", executor=executor,
            journal=journal,
        )

    result = TopologyResult(
        title=(
            f"Interconnect topologies: {cfg.contention_jobs}-job streams, "
            f"{'/'.join(topologies)} ({cfg.name})"
        )
    )
    it = iter(cells)
    for topology in topologies:
        for slots in cfg.contention_link_slots:
            for frac in cfg.contention_period_fracs:
                for algorithm in algorithms:
                    rows = [next(it) for _ in graphs]
                    result.points.append(TopologyPoint(
                        topology=topology,
                        algorithm=algorithm,
                        link_slots=slots,
                        period_frac=frac,
                        jobs_per_second=float(np.mean([r[0] for r in rows])),
                        latency_mean_s=float(np.mean([r[1] for r in rows])),
                        latency_p95_s=float(np.mean([r[2] for r in rows])),
                        link_wait_s=float(np.mean([r[3] for r in rows])),
                        n_link_waits=float(np.mean([r[4] for r in rows])),
                        energy_per_job_j=float(np.mean([r[5] for r in rows])),
                        makespan_s=float(np.mean([r[6] for r in rows])),
                    ))
        if progress:
            progress(f"topology={topology} done")
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def format_contention_table(result: ContentionResult) -> str:
    """Render the sweep as one fixed-width table per algorithm."""
    lines = [f"== {result.title} =="]
    header = (
        f"{'link_slots':>10s} | {'period':>6s} | {'jobs/s':>8s} | "
        f"{'lat p95':>9s} | {'area wait':>9s} | {'link wait':>9s} | "
        f"{'J/job':>8s}"
    )
    for algorithm in result.algorithms():
        lines.append(f"-- {algorithm} --")
        lines.append(header)
        lines.append("-" * len(header))
        for p in result.points:
            if p.algorithm != algorithm:
                continue
            slots = "inf" if p.link_slots == 0 else str(p.link_slots)
            lines.append(
                f"{slots:>10s} | {p.period_frac:>6g} | "
                f"{p.jobs_per_second:>8.2f} | "
                f"{p.latency_p95_s * 1e3:>7.1f}ms | "
                f"{p.area_wait_s * 1e3:>7.1f}ms | "
                f"{p.link_wait_s * 1e3:>7.1f}ms | "
                f"{p.energy_per_job_j:>8.1f}"
            )
    return "\n".join(lines)


def format_topology_table(result: TopologyResult) -> str:
    """Render the topology sweep as one fixed-width table per topology."""
    lines = [f"== {result.title} =="]
    header = (
        f"{'algorithm':>14s} | {'slots':>5s} | {'period':>6s} | "
        f"{'jobs/s':>8s} | {'lat p95':>9s} | {'link wait':>9s} | "
        f"{'queued':>6s} | {'J/job':>8s}"
    )
    for topology in result.topologies():
        lines.append(f"-- {topology} --")
        lines.append(header)
        lines.append("-" * len(header))
        for p in result.points:
            if p.topology != topology:
                continue
            slots = "inf" if p.link_slots == 0 else str(p.link_slots)
            lines.append(
                f"{p.algorithm:>14s} | {slots:>5s} | {p.period_frac:>6g} | "
                f"{p.jobs_per_second:>8.2f} | "
                f"{p.latency_p95_s * 1e3:>7.1f}ms | "
                f"{p.link_wait_s * 1e3:>7.1f}ms | "
                f"{p.n_link_waits:>6.1f} | "
                f"{p.energy_per_job_j:>8.1f}"
            )
    return "\n".join(lines)

