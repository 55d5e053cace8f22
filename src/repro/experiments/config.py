"""Experiment scales.

Every figure driver runs at one of three scales:

``smoke``
    Minutes-level defaults used by the test-suite and ``pytest benchmarks/``:
    fewer/smaller graphs, fewer random schedules, short MILP time limits,
    fewer GA generations.
``small``
    A denser sweep that already shows every paper trend clearly.
``paper``
    The published experiment dimensions (30 graphs per point, 100 random
    schedules, 5..200 tasks, 500 generations, 5-minute ZhouLiu limit).
    Expect hours of runtime in pure Python.

Select via the ``scale`` argument of each driver, the ``--scale`` CLI flag,
or the ``REPRO_BENCH_SCALE`` environment variable for the benchmark suite.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["ScaleConfig", "SCALES", "get_scale", "bench_scale"]


@dataclass(frozen=True)
class ScaleConfig:
    name: str
    #: graphs per sweep point ("average over 30 ... graphs", Sec. IV-A)
    graphs_per_point: int
    #: random schedules in the evaluation suite (paper: 100)
    n_random_schedules: int

    # Fig. 3 — decomposition vs MILPs on random SP graphs
    fig3_sizes: List[int]
    fig3_zhouliu_max: int           # ZhouLiu only below this size (timeouts)
    zhouliu_time_limit_s: float
    milp_time_limit_s: float

    # Fig. 4 — decomposition vs HEFT/PEFT
    fig4_sizes: List[int]

    # Fig. 5 — decomposition (FirstFit) vs NSGA-II
    fig5_sizes: List[int]
    nsga_generations: int

    # Fig. 6 — NSGA-II generations sweep at fixed size
    fig6_generations: List[int]
    fig6_n_tasks: int
    fig6_graphs: int

    # Fig. 7 — almost-SP graphs with additional edges
    fig7_n_tasks: int
    fig7_extra_edges: List[int]

    # Table I — workflow families
    table1_sizes_key: str           # key into workflows.benchmark_sizes
    table1_parameterizations: int   # random augmentations per graph (paper: 10)
    table1_generations: int

    # Robustness — runtime-engine noise sweep (repro.experiments.robustness)
    robustness_noise_levels: List[float] = field(
        default_factory=lambda: [0.1, 0.3]
    )
    robustness_replications: int = 8
    robustness_n_tasks: int = 30
    robustness_graphs: int = 2

    #: default process-pool size for every experiment driver
    #: (override per run with ``--workers N``; 0 = one worker per CPU)
    parallel_workers: int = 1

    # Replan — online re-mapping policy sweep under device failure
    #: policies compared by the replan axis of the robustness study
    replan_policies: List[str] = field(
        default_factory=lambda: ["fallback", "decomposition", "heft", "minmin"]
    )

    # Contention — shared-resource sweep (repro.experiments.contention):
    # arrival streams under cross-job FPGA area accounting + link slots
    contention_n_tasks: int = 30
    contention_graphs: int = 2
    #: jobs per arrival stream
    contention_jobs: int = 6
    #: link-slot settings swept (0 = unlimited, the analytic link model)
    contention_link_slots: List[int] = field(
        default_factory=lambda: [0, 2, 1]
    )
    #: arrival period as a fraction of the mapping's analytic makespan
    #: (1.0 = back-to-back, smaller = overlapping jobs)
    contention_period_fracs: List[float] = field(
        default_factory=lambda: [1.0, 0.5, 0.25]
    )
    #: interconnect shapes swept by ``--topology`` (and ``run_topologies``):
    #: ``"shared"`` is the legacy single-pool model, the rest are
    #: :data:`repro.platform.topologies.TOPOLOGY_NAMES` presets with the
    #: swept slot width applied per link
    contention_topologies: List[str] = field(
        default_factory=lambda: ["shared", "star", "mesh"]
    )


SCALES: Dict[str, ScaleConfig] = {
    "smoke": ScaleConfig(
        name="smoke",
        graphs_per_point=3,
        n_random_schedules=20,
        fig3_sizes=[6, 10, 14],
        fig3_zhouliu_max=10,
        zhouliu_time_limit_s=15.0,
        milp_time_limit_s=10.0,
        fig4_sizes=[10, 25, 50, 75],
        fig5_sizes=[10, 25, 50],
        nsga_generations=40,
        fig6_generations=[10, 20, 40, 80],
        fig6_n_tasks=40,
        fig6_graphs=2,
        fig7_n_tasks=40,
        fig7_extra_edges=[0, 10, 25, 50],
        table1_sizes_key="smoke",
        table1_parameterizations=2,
        table1_generations=30,
    ),
    "small": ScaleConfig(
        name="small",
        graphs_per_point=10,
        n_random_schedules=50,
        fig3_sizes=[5, 10, 15, 20, 25, 30],
        fig3_zhouliu_max=12,
        zhouliu_time_limit_s=60.0,
        milp_time_limit_s=30.0,
        fig4_sizes=[5, 25, 50, 75, 100, 150, 200],
        fig5_sizes=[5, 25, 50, 75, 100],
        nsga_generations=150,
        fig6_generations=[25, 50, 100, 150, 200, 300],
        fig6_n_tasks=100,
        fig6_graphs=5,
        fig7_n_tasks=100,
        fig7_extra_edges=[0, 25, 50, 100, 150, 200],
        table1_sizes_key="small",
        table1_parameterizations=3,
        table1_generations=100,
        robustness_noise_levels=[0.05, 0.1, 0.2, 0.4],
        robustness_replications=30,
        robustness_n_tasks=60,
        robustness_graphs=5,
        parallel_workers=2,
        contention_n_tasks=60,
        contention_graphs=4,
        contention_jobs=10,
        contention_period_fracs=[1.0, 0.5, 0.25, 0.125],
    ),
    "paper": ScaleConfig(
        name="paper",
        graphs_per_point=30,
        n_random_schedules=100,
        fig3_sizes=list(range(5, 31, 5)),
        fig3_zhouliu_max=20,
        zhouliu_time_limit_s=300.0,
        milp_time_limit_s=120.0,
        fig4_sizes=list(range(5, 201, 5)),
        fig5_sizes=list(range(5, 101, 5)),
        nsga_generations=500,
        fig6_generations=list(range(50, 501, 50)),
        fig6_n_tasks=200,
        fig6_graphs=30,
        fig7_n_tasks=100,
        fig7_extra_edges=list(range(0, 201, 5)),
        table1_sizes_key="paper",
        table1_parameterizations=10,
        table1_generations=500,
        robustness_noise_levels=[0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5],
        robustness_replications=100,
        robustness_n_tasks=100,
        robustness_graphs=10,
        parallel_workers=0,  # one worker per CPU
        contention_n_tasks=100,
        contention_graphs=10,
        contention_jobs=20,
        contention_link_slots=[0, 4, 2, 1],
        contention_period_fracs=[1.0, 0.5, 0.25, 0.125],
        contention_topologies=["shared", "star", "mesh", "ring", "numa"],
    ),
}


def get_scale(scale) -> ScaleConfig:
    """Resolve a scale name or pass a ready-made :class:`ScaleConfig`."""
    if isinstance(scale, ScaleConfig):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
        ) from None


def bench_scale() -> ScaleConfig:
    """Scale used by the pytest benchmark suite (env REPRO_BENCH_SCALE)."""
    return get_scale(os.environ.get("REPRO_BENCH_SCALE", "smoke"))
