"""The figure sweeps of the paper's evaluation and their extensions.

Every study here is one :class:`~repro.experiments.runner.Sweep`
declaration, run by :func:`~repro.experiments.runner.run_sweep` with the
protocol of Sec. IV-A of arXiv 2502.19745: at each sweep point, N graphs,
every algorithm scored on one shared schedule suite per graph, and the
mean positive improvement reported.  A declaration says only what sets
the study apart: its x axis, the graphs of a point and the roster.  The
registry (:data:`repro.experiments.EXPERIMENTS`) names each declaration
and holds its default seed.

Run:  repro experiment fig4 --scale smoke
      (also fig3, fig5..fig7, baselines, scaling, ablation-cuts,
      ablation-gamma and ablation-streaming)
"""

from __future__ import annotations

import dataclasses
from typing import List

from ..evaluation.evaluator import MappingEvaluator
from ..graphs.generators import random_almost_sp_graph, random_sp_graph
from ..mappers import (
    CpopMapper,
    DecompositionMapper,
    HeftMapper,
    LookaheadHeftMapper,
    MaxMinMapper,
    MinMinMapper,
    NsgaIIMapper,
    PeftMapper,
    SimulatedAnnealingMapper,
    TabuSearchMapper,
    WgdpDeviceMapper,
    WgdpTimeMapper,
    ZhouLiuMapper,
    series_parallel,
    single_node,
    sn_first_fit,
    sp_first_fit,
)
from ..platform import Platform, paper_platform
from .runner import Sweep, paper_roster

__all__ = [
    "fig3", "fig4", "fig5", "fig6", "fig7", "baselines", "scaling",
    "ablation_cuts", "ablation_gamma", "ablation_streaming",
]


def _sp_graphs(cfg, x, rng) -> List:
    return [random_sp_graph(int(x), rng) for _ in range(cfg.graphs_per_point)]


def _almost_sp_graphs(cfg, x, rng) -> List:
    return [
        random_almost_sp_graph(cfg.fig7_n_tasks, int(x), rng)
        for _ in range(cfg.graphs_per_point)
    ]


def _fig3_roster(cfg, x) -> List:
    mappers = [
        WgdpTimeMapper(time_limit_s=cfg.milp_time_limit_s),
        WgdpDeviceMapper(time_limit_s=cfg.milp_time_limit_s),
    ]
    if x <= cfg.fig3_zhouliu_max:
        mappers.append(ZhouLiuMapper(time_limit_s=cfg.zhouliu_time_limit_s))
    return mappers + [single_node(), series_parallel()]


fig3 = Sweep(
    "Fig3 decomposition vs MILPs", "n_tasks",
    xs=lambda cfg: cfg.fig3_sizes, graphs=_sp_graphs, roster=_fig3_roster,
)
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

fig4 = Sweep(
    "Fig4 decomposition vs HEFT PEFT", "n_tasks",
    xs=lambda cfg: cfg.fig4_sizes, graphs=_sp_graphs,
    roster=lambda cfg, x: [
        HeftMapper(), PeftMapper(), single_node(), series_parallel(),
        sn_first_fit(), sp_first_fit(),
    ],
)
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

fig5 = Sweep(
    "Fig5 decomposition vs NSGAII", "n_tasks",
    xs=lambda cfg: cfg.fig5_sizes, graphs=_sp_graphs,
    roster=lambda cfg, x: [
        sn_first_fit(), sp_first_fit(),
        NsgaIIMapper(generations=cfg.nsga_generations),
    ],
)
"""Fig. 5 — FirstFit decomposition mapping vs the NSGA-II genetic algorithm.

Paper setup: random SP graphs with 5..100 tasks, NSGAII (500 generations,
population 100) against SNFirstFit and SPFirstFit.

Expected shape: NSGAII copes with local minima and often edges out
SingleNode, but is frequently outperformed by SeriesParallel and its
execution time grows steeply (about 30x slower at n = 100).
"""

fig6 = Sweep(
    "Fig6 NSGAII generations tradeoff", "generations",
    xs=lambda cfg: cfg.fig6_generations,
    graphs=lambda cfg, x, rng: [
        random_sp_graph(cfg.fig6_n_tasks, rng) for _ in range(cfg.fig6_graphs)
    ],
    roster=lambda cfg, x: [
        sn_first_fit(), sp_first_fit(), NsgaIIMapper(generations=int(x)),
    ],
    one_graph_set=True,
)
"""Fig. 6 — NSGA-II quality/time tradeoff over its generation budget.

Paper setup: random SP graphs with 200 nodes (30 graphs); NSGA-II run for
50..500 generations (step 50); SNFirstFit/SPFirstFit shown as reference
lines (their result does not depend on the generation count — the same
fixed graph set is evaluated once per x for reference).

Expected shape: NSGA-II saturates around ~200 generations; even at the
saturation point it remains several times slower than the decomposition
mappers while not beating SeriesParallel.
"""

fig7 = Sweep(
    "Fig7 almost series-parallel", "extra_edges",
    xs=lambda cfg: cfg.fig7_extra_edges, graphs=_almost_sp_graphs,
    roster=lambda cfg, x: paper_roster(cfg.nsga_generations),
)
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

baselines = Sweep(
    "Extended baselines", "n_tasks",
    xs=lambda cfg: cfg.fig5_sizes, graphs=_sp_graphs,
    roster=lambda cfg, x: [
        HeftMapper(), PeftMapper(), CpopMapper(), LookaheadHeftMapper(),
        MinMinMapper(), MaxMinMapper(), TabuSearchMapper(iterations=200),
        SimulatedAnnealingMapper(iterations=1000), sn_first_fit(),
        sp_first_fit(),
    ],
)
"""Extended baseline roster: every fast mapper in one sweep.

An extension study beyond the paper's roster: compares the decomposition
mappers against the full set of implemented list schedulers and
metaheuristics on random SP graphs.  Useful as a regression radar — if a
refactor quietly degrades one algorithm, this sweep shows it immediately.

Algorithms: HEFT, PEFT, CPOP, Lookahead-HEFT, Min-min, Max-min, tabu
search, simulated annealing, SNFirstFit, SPFirstFit.  (NSGA-II and the
MILPs are excluded here; they have dedicated figures.)
"""

scaling = Sweep(
    "Scaling decomposition mappers", "n_tasks",
    xs=lambda cfg: cfg.fig4_sizes, graphs=_sp_graphs,
    roster=lambda cfg, x: [
        single_node(), series_parallel(), sn_first_fit(), sp_first_fit(),
    ],
    suite=lambda cfg: max(5, cfg.n_random_schedules // 5),
)
"""Empirical complexity of the decomposition mappers (paper Sec. IV-B).

"Generally, on our test data, all decomposition-based mapping strategies
exhibit a quadratic behavior regarding their execution time, although their
theoretical execution time has a cubic dependency on the number of tasks.
[...] the number of iterations in which an improvement occurs is in practice
much smaller than the number of tasks and grows very slowly."

This sweep measures mapper wall time over graph size, on a schedule suite
a fifth of the usual size (the quality column is not its point), and
:func:`repro.experiments.scaling.fit_exponents` fits the power-law
exponent ``time ~ n^alpha``.  The paper's claim corresponds to ``alpha``
around 2 (and clearly below the worst-case 3) for both decomposition
strategies.  A resumed (``--checkpoint``) run replays journalled times,
so only its seed-derived columns are meaningful.
"""

# ---------------------------------------------------------------------------
# ablations: each isolates one mechanism of the decomposition approach
# ---------------------------------------------------------------------------

ablation_cuts = Sweep(
    "Ablation cut strategies", "extra_edges",
    xs=lambda cfg: cfg.fig7_extra_edges, graphs=_almost_sp_graphs,
    roster=lambda cfg, x: [
        DecompositionMapper(
            "series_parallel", "first_fit", cut_strategy=strategy,
            name=f"SPFF-{strategy}",
        )
        for strategy in ("random", "first", "smallest", "largest")
    ],
)
"""Cut-choice strategy of Algorithm 1 over conflicting edges.

Paper Fig. 2 discussion: "a well-designed heuristic might exploit this
observation".  Compares random / first / smallest / largest cutting on
almost-SP graphs by the SPFirstFit mapping quality each reaches.
"""

ablation_gamma = Sweep(
    "Ablation gamma threshold", "n_tasks",
    xs=lambda cfg: cfg.fig5_sizes, graphs=_sp_graphs,
    roster=lambda cfg, x: [
        DecompositionMapper("series_parallel", "first_fit", name="Gamma1"),
        *(DecompositionMapper("series_parallel", "gamma", gamma=gamma,
                              name=f"Gamma{gamma:g}")
          for gamma in (1.5, 2.0, 4.0)),
        DecompositionMapper("series_parallel", "basic", name="Basic"),
    ],
)
"""The gamma-threshold look-ahead over graph size.

Paper Sec. III-D / IV-B: "using a gamma-threshold heuristic with
gamma > 1 does not provide a significant benefit in comparison with the
FirstFit variant".  Sweeps gamma in {1, 1.5, 2, 4} plus the basic
variant, reporting quality and evaluation counts.
"""


def _streaming_off(base: Platform) -> Platform:
    """``base`` with every device's ``streaming`` flag cleared."""
    return base.with_devices(
        [dataclasses.replace(d, streaming=False) for d in base.devices]
    )


class _PlatformSwitchMapper(DecompositionMapper):
    """SPFirstFit that maps against a *modified* platform, then reports the
    resulting mapping back in the original evaluator (used to isolate the
    streaming term of the cost model)."""

    def __init__(self, platform: Platform, name: str) -> None:
        super().__init__("series_parallel", "first_fit", name=name)
        self._platform = platform

    def _run(self, evaluator, rng):
        inner = MappingEvaluator(
            evaluator.graph, self._platform, suite=evaluator.suite
        )
        return super()._run(inner, rng)


ablation_streaming = Sweep(
    "Ablation streaming awareness", "n_tasks",
    xs=lambda cfg: cfg.fig5_sizes, graphs=_sp_graphs,
    roster=lambda cfg, x: [
        DecompositionMapper("series_parallel", "first_fit",
                            name="StreamAware"),
        _PlatformSwitchMapper(_streaming_off(paper_platform()),
                              "StreamBlind"),
    ],
)
"""Value of FPGA dataflow streaming over graph size.

The same mapper on the paper platform with streaming on vs off (an
SP-decomposition advantage the paper highlights against streaming-blind
algorithms).  Both variants are *evaluated* on the streaming platform;
the "off" variant only *optimizes* against a streaming-blind model, so
the gap is the value of modeling streaming during mapping construction.
"""
