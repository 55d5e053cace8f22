"""The benchmark's workloads: inputs from a seed, and one item at a time.

Every workload is a fixed list of *items* built from the workload seed.
An item is the unit a user waits for (one graph mapped by a roster of
mappers, or one arrival stream replayed by the runtime engine) and is a
pure function of its spec: running it again gives the same mappings,
makespans and counts, which the determinism gate relies on.

``span(name)`` wraps each call into a layer of the library.  The traced
run passes a tracer's span factory; the untraced run passes a no-op.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.evaluation import MappingEvaluator
from repro.evaluation.schedules import ScheduleSuite
from repro.experiments.contention import _squeeze_fpga
from repro.experiments.metrics import positive_improvement
from repro.graphs.generators import (
    augment_workflow,
    benchmark_sizes,
    make_workflow,
    random_almost_sp_graph,
    random_sp_graph,
)
from repro.mappers import (
    DecompositionMapper,
    HeftMapper,
    NsgaIIMapper,
    PeftMapper,
    WgdpDeviceMapper,
    WgdpTimeMapper,
    ZhouLiuMapper,
    series_parallel,
    single_node,
    sn_first_fit,
    sp_first_fit,
)
from repro.platform import paper_platform
from repro.platform.topologies import with_topology
from repro.runtime import RuntimeEngine, periodic_stream
from repro.sp.subgraphs import series_parallel_candidates

WORKLOADS = ("workflows", "sp-graphs", "streams")

MILP_TIME_LIMIT_S = 120.0
#: ZhouLiu's solve time grows fastest with the graph size
ZHOULIU_MAX_N = 5

_NOOP = nullcontext()


def no_span(name: str):
    return _NOOP


@dataclass
class ItemResult:
    """What one item produced, reduced to what the benchmark checks."""

    #: failed output checks, as printable lines (empty when correct)
    problems: List[str] = field(default_factory=list)
    #: positive relative improvement of each mapper run
    improvements: List[float] = field(default_factory=list)
    #: deterministic per-layer counts
    counts: Dict[str, float] = field(default_factory=dict)
    #: hash of every output (mappings, makespans, counts)
    digest: str = ""
    #: (graph, seed) pairs for the traced run's decomposition probe
    probes: list = field(default_factory=list)


def _add(counts: Dict[str, float], key: str, value: float) -> None:
    counts[key] = counts.get(key, 0.0) + float(value)


# ---------------------------------------------------------------------------
# mapping workloads: workflows and sp-graphs
# ---------------------------------------------------------------------------

@dataclass
class MappingSpec:
    label: str
    build: Callable[[np.random.Generator], object]
    roster: tuple
    #: graph, suite, then one seed per roster mapper
    seeds: Tuple[np.random.SeedSequence, ...]


def _check_mapping(ev: MappingEvaluator, mapping, makespan: float) -> List[str]:
    problems = []
    if mapping.shape != (ev.n_tasks,):
        problems.append(f"shape {mapping.shape} != ({ev.n_tasks},)")
    elif mapping.min() < 0 or mapping.max() >= ev.n_devices:
        problems.append("device index out of range")
    elif not ev.is_feasible(mapping):
        problems.append("mapping violates the area constraint")
    if not np.isfinite(makespan):
        problems.append(f"reported makespan {makespan!r} is not finite")
    return problems


def run_mapping_item(spec: MappingSpec, platform, span) -> ItemResult:
    """Build the graph, its schedule suite and evaluator, run every mapper
    and score it the paper's way (Sec. IV-A: min over BFS + 100 random
    schedules, positive improvement over the all-CPU mapping)."""
    out = ItemResult()
    h = hashlib.sha256()
    with span("graphs.generate"):
        g = spec.build(np.random.default_rng(spec.seeds[0]))
    _add(out.counts, "graphs.tasks", len(g))
    with span("evaluation.suite"):
        suite = ScheduleSuite.paper(g, np.random.default_rng(spec.seeds[1]))
    with span("evaluation.build"):
        ev = MappingEvaluator(g, platform, suite=suite)
    with span("evaluation.reported"):
        cpu = ev.cpu_reported_makespan
    for mapper, seed in zip(spec.roster, spec.seeds[2:]):
        name = mapper.name
        with span("mapper." + name):
            res = mapper.map(ev, rng=np.random.default_rng(seed))
        # reported makespan + positive improvement is exactly what
        # MappingEvaluator.relative_improvement computes; the makespan is
        # checked too
        with span("evaluation.reported"):
            makespan = ev.reported_makespan(res.mapping)
        improvement = positive_improvement(cpu, makespan)
        for problem in _check_mapping(ev, res.mapping, makespan):
            out.problems.append(f"{spec.label} {name}: {problem}")
        stats = res.stats
        if stats.get("status", 0.0) != 0.0:
            out.problems.append(
                f"{spec.label} {name}: solver status {stats['status']:g}"
            )
        out.improvements.append(improvement)
        c = out.counts
        _add(c, "evaluation.full_sims", stats.get("n_simulations", 0.0))
        _add(c, "evaluation.delta_evals", stats.get("n_delta_evaluations", 0.0))
        _add(c, "evaluation.batched_evals",
             stats.get("n_batched_evaluations", 0.0))
        _add(c, "evaluation.equivalent_evals",
             stats.get("n_equivalent_evaluations", 0.0))
        _add(c, f"mapper.{name}.evals", res.n_evaluations)
        _add(c, f"mapper.{name}.improvement", improvement)
        _add(c, f"mapper.{name}.runs", 1)
        if "iterations" in stats:
            _add(c, f"mapper.{name}.iterations", stats["iterations"])
        if "status" in stats:
            _add(c, "milp.limit_hits", stats["status"] == 1.0)
            _add(c, "milp.fallbacks", stats.get("fallback", 0.0))
        if (isinstance(mapper, DecompositionMapper)
                and mapper.strategy == "series_parallel"):
            out.probes.append((g, seed))
        h.update(res.mapping.tobytes())
        h.update(repr((name, makespan)).encode())
    h.update(repr(sorted(out.counts.items())).encode())
    out.digest = h.hexdigest()
    return out


def decomposition_probe(g, seed) -> int:
    """Algorithm 1 exactly as the mapper runs it first (same seed)."""
    return len(series_parallel_candidates(g, rng=np.random.default_rng(seed)))


def _workflow_builder(family: str, size: int):
    def build(rng):
        g = make_workflow(family, size, rng)
        augment_workflow(g, rng)
        return g
    return build


class MappingWorkload:
    """Items from ``configs``: (label, graph builder, roster) triples."""

    def __init__(self, name, configs, seed: int) -> None:
        self.name = name
        self.platform = paper_platform()
        root = np.random.SeedSequence([seed, WORKLOADS.index(name)])
        order_seed, *children = root.spawn(1 + len(configs))
        items = [
            MappingSpec(label, build, tuple(roster),
                        tuple(child.spawn(2 + len(roster))))
            for (label, build, roster), child in zip(configs, children)
        ]
        # a fixed shuffled order mixes sizes and families within a pass
        order = np.random.default_rng(order_seed).permutation(len(items))
        self.items = [items[i] for i in order]
        self.setup_improvements: List[float] = []
        self.platform_build_s = 0.0

    def run(self, spec, span) -> ItemResult:
        return run_mapping_item(spec, self.platform, span)


def workflows(seed: int, tiny: bool = False) -> MappingWorkload:
    """Table I cells: every family at its ``small`` sizes, 4 augmentations."""
    sizes = benchmark_sizes("small")
    families = sorted(sizes)[:2] if tiny else sorted(sizes)
    roster = (
        HeftMapper(), PeftMapper(),
        NsgaIIMapper(generations=5 if tiny else 100, population_size=100),
        sn_first_fit(), sp_first_fit(),
    )
    configs = [
        (f"{family}-{size}#{p}", _workflow_builder(family, size), roster)
        for family in families
        for size in (sizes[family][:1] if tiny else sizes[family])
        for p in range(1 if tiny else 4)
    ]
    return MappingWorkload("workflows", configs, seed)


def sp_graphs(seed: int, tiny: bool = False) -> MappingWorkload:
    """Random SP graphs (Fig. 4) and almost-SP graphs (Fig. 7)."""
    shapes = [(50, 0), (100, 0), (150, 0), (200, 0),
              (100, 25), (100, 50), (100, 100)]
    per_shape = 12
    if tiny:
        shapes, per_shape = [(30, 0), (30, 5)], 1

    def builder(n, extra):
        if extra:
            return lambda rng: random_almost_sp_graph(n, extra, rng)
        return lambda rng: random_sp_graph(n, rng)

    roster = (HeftMapper(), PeftMapper(), single_node(), series_parallel(),
              sn_first_fit(), sp_first_fit())
    configs = [
        (f"sp{n}+{extra}#{k}", builder(n, extra), roster)
        for n, extra in shapes for k in range(per_shape)
    ]
    return MappingWorkload("sp-graphs", configs, seed)


def milp_probe(seed: int, tiny: bool = False) -> List[MappingSpec]:
    """Fig. 3: every MILP solved to optimality on a few small SP graphs.

    Solve times spread by an order of magnitude between graphs of one
    size, so no affordable run averages them out across seeds: the MILP
    layer is measured by the traced run of ``sp-graphs`` only, outside
    its items.  The time limit is a safety net, never reached.
    """
    sizes = (5,) if tiny else (5, 6, 8, 10)
    root = np.random.SeedSequence([seed, len(WORKLOADS)])
    specs = []
    for n, child in zip(sizes, root.spawn(len(sizes))):
        roster = (WgdpTimeMapper(time_limit_s=MILP_TIME_LIMIT_S),
                  WgdpDeviceMapper(time_limit_s=MILP_TIME_LIMIT_S))
        if n <= ZHOULIU_MAX_N:
            roster += (ZhouLiuMapper(time_limit_s=MILP_TIME_LIMIT_S),)
        specs.append(MappingSpec(
            f"milp{n}", lambda rng, n=n: random_sp_graph(n, rng), roster,
            tuple(child.spawn(2 + len(roster)))))
    return specs


# ---------------------------------------------------------------------------
# streams: the runtime engine under shared FPGA area and link slots
# ---------------------------------------------------------------------------

STREAM_JOBS = 20
LINK_SLOTS = (0, 2, 1)
PERIOD_FRACS = (1.0, 0.5, 0.25, 0.125)
INTERCONNECTS = ("shared", "star")
AREA_HEADROOM = 1.5


@dataclass
class StreamSpec:
    label: str
    graph: object
    mapping: list
    analytic: float
    platform: object
    shared_slots: Optional[int]   # engine link_slots; None = per-link pools
    period_frac: float


def run_stream_item(spec: StreamSpec, n_jobs: int, span) -> ItemResult:
    """Replay one periodic arrival stream through the runtime engine."""
    out = ItemResult()
    with span("runtime.stream_build"):
        jobs = periodic_stream(spec.graph, spec.mapping, n_jobs,
                               period=spec.period_frac * spec.analytic)
    with span("runtime.engine"):
        if spec.shared_slots is None:
            engine = RuntimeEngine(spec.platform)
        else:
            engine = RuntimeEngine(spec.platform, link_slots=spec.shared_slots)
        trace = engine.run(jobs)
    n_tasks = len(spec.graph)
    if len(trace.jobs) != n_jobs:
        out.problems.append(
            f"{spec.label}: {len(trace.jobs)} of {n_jobs} jobs completed")
    for job in trace.jobs:
        if not np.isfinite(job.completion) or len(job.tasks) != n_tasks:
            out.problems.append(
                f"{spec.label}: job {job.name} ran {len(job.tasks)} of "
                f"{n_tasks} tasks, completion {job.completion!r}")
    latencies = [job.makespan for job in trace.jobs]
    c = out.counts
    _add(c, "runtime.jobs", len(latencies))
    _add(c, "runtime.job_latency_sim_s", sum(latencies))
    _add(c, "runtime.events", len(trace.events))
    _add(c, "runtime.tasks", len(trace.tasks))
    _add(c, "runtime.area_waits", trace.n_area_waits)
    _add(c, "runtime.link_waits", trace.n_link_waits)
    _add(c, "runtime.area_wait_sim_s", trace.area_wait_time)
    _add(c, "runtime.link_wait_sim_s", trace.link_wait_time)
    out.digest = hashlib.sha256(
        repr((latencies, sorted(c.items()))).encode()).hexdigest()
    return out


class StreamWorkload:
    """n=100 SP graphs mapped once by HEFT and SPFirstFit in set-up; each
    item replays one 20-job stream of one (graph, mapping) on one cell of
    link slots x arrival period x interconnect, on an FPGA squeezed to
    1.5x one job's area so that overlapping jobs contend for fabric."""

    name = "streams"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        n_graphs, n_tasks, per_combo = (1, 20, 1) if tiny else (32, 100, 2)
        self.n_jobs = 5 if tiny else STREAM_JOBS
        root = np.random.SeedSequence([seed, WORKLOADS.index(self.name)])
        graph_seed, map_seed, order_seed = root.spawn(3)
        base = paper_platform()
        self.setup_improvements: List[float] = []
        self.platform_build_s = 0.0
        mapped = []
        for gs, ms in zip(graph_seed.spawn(n_graphs), map_seed.spawn(n_graphs)):
            g = random_sp_graph(n_tasks, np.random.default_rng(gs))
            suite_seed, *mapper_seeds = ms.spawn(3)
            ev = MappingEvaluator(
                g, base,
                suite=ScheduleSuite.paper(g, np.random.default_rng(suite_seed)))
            for mapper, s in zip((HeftMapper(), sp_first_fit()), mapper_seeds):
                mapping = mapper.map(ev, rng=np.random.default_rng(s)).mapping
                self.setup_improvements.append(ev.relative_improvement(mapping))
                t0 = time.perf_counter()
                squeezed = _squeeze_fpga(
                    base, ev.model.area_usage(mapping), AREA_HEADROOM)
                platforms = {
                    (net, slots): squeezed if net == "shared"
                    else with_topology(squeezed, net, slots=slots)
                    for net in INTERCONNECTS for slots in LINK_SLOTS
                }
                self.platform_build_s += time.perf_counter() - t0
                mapped.append((mapper.name, g, list(mapping),
                               ev.model.simulate(mapping), platforms))
        cells = [(net, slots, frac) for net in INTERCONNECTS
                 for slots in LINK_SLOTS for frac in PERIOD_FRACS]
        if tiny:
            cells = cells[:: len(cells) // 4]
        # every (cell, mapper) combination runs on ``per_combo`` graphs,
        # assigned round robin so that all graphs are replayed
        combos = [(net, slots, frac, m)
                  for net, slots, frac in cells
                  for m in (0, 1) for _ in range(per_combo)]
        self.items = []
        for k, (net, slots, frac, m) in enumerate(combos):
            graph_k = k % n_graphs
            name, g, mapping, analytic, platforms = mapped[2 * graph_k + m]
            self.items.append(StreamSpec(
                f"{name}@g{graph_k}/{net}/slots{slots}/p{frac:g}",
                g, mapping, analytic, platforms[net, slots],
                slots if net == "shared" else None, frac,
            ))
        order = np.random.default_rng(order_seed).permutation(len(self.items))
        self.items = [self.items[i] for i in order]

    def run(self, spec, span) -> ItemResult:
        return run_stream_item(spec, self.n_jobs, span)


def make_workload(name: str, seed: int, tiny: bool = False):
    if name == "workflows":
        return workflows(seed, tiny)
    if name == "sp-graphs":
        return sp_graphs(seed, tiny)
    if name == "streams":
        return StreamWorkload(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
