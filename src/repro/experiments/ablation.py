"""Ablation experiments for the design choices DESIGN.md calls out.

Three studies, each isolating one mechanism of the decomposition approach:

``cuts``
    Cut-choice strategy of Algorithm 1 (paper Fig. 2 discussion: "a
    well-designed heuristic might exploit this observation").  Compares
    random / first / smallest / largest cutting on almost-SP graphs, both by
    the core fraction retained and by SPFirstFit mapping quality.

``gamma``
    The gamma-threshold look-ahead (paper Sec. III-D / IV-B: "using a
    gamma-threshold heuristic with gamma > 1 does not provide a significant
    benefit in comparison with the FirstFit variant").  Sweeps gamma in
    {1, 1.5, 2, 4} plus the basic variant, reporting quality and evaluation
    counts.

``streaming``
    Value of FPGA dataflow streaming: the same mapper on the paper platform
    with streaming on vs off (an SP-decomposition advantage the paper
    highlights against streaming-blind algorithms).

Run:  repro experiment ablation-cuts --scale smoke
      (also ``ablation-gamma`` and ``ablation-streaming``)
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..graphs.generators import random_almost_sp_graph, random_sp_graph
from ..mappers import DecompositionMapper
from ..parallel import resolve_workers
from ..platform import Platform, paper_platform
from ..platform.device import Device, DeviceKind
from .config import get_scale
from .runner import SweepResult, run_sweep

__all__ = ["run_cuts", "run_gamma", "run_streaming"]


def run_cuts(
    scale="smoke",
    *,
    seed: int = 21,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal=None,
) -> SweepResult:
    """Cut-strategy ablation over an increasing number of conflicting edges."""
    cfg = get_scale(scale)
    platform = paper_platform()
    n_tasks = cfg.fig7_n_tasks

    def make_graphs(x: float, rng: np.random.Generator) -> List:
        return [
            random_almost_sp_graph(n_tasks, int(x), rng)
            for _ in range(cfg.graphs_per_point)
        ]

    def make_mappers(x: float):
        return [
            DecompositionMapper(
                "series_parallel", "first_fit", cut_strategy=strategy,
                name=f"SPFF-{strategy}",
            )
            for strategy in ("random", "first", "smallest", "largest")
        ]

    return run_sweep(
        "Ablation cut strategies",
        "extra_edges",
        cfg.fig7_extra_edges,
        make_graphs,
        make_mappers,
        platform,
        seed=seed,
        n_random_schedules=cfg.n_random_schedules,
        progress=progress,
        workers=resolve_workers(workers, cfg.parallel_workers),
        journal=journal,
    )


def run_gamma(
    scale="smoke",
    *,
    seed: int = 22,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal=None,
) -> SweepResult:
    """gamma-threshold ablation over graph size."""
    cfg = get_scale(scale)
    platform = paper_platform()

    def make_graphs(x: float, rng: np.random.Generator) -> List:
        return [
            random_sp_graph(int(x), rng) for _ in range(cfg.graphs_per_point)
        ]

    def make_mappers(x: float):
        mappers = [
            DecompositionMapper("series_parallel", "first_fit", name="Gamma1"),
        ]
        for gamma in (1.5, 2.0, 4.0):
            mappers.append(
                DecompositionMapper(
                    "series_parallel", "gamma", gamma=gamma,
                    name=f"Gamma{gamma:g}",
                )
            )
        mappers.append(
            DecompositionMapper("series_parallel", "basic", name="Basic")
        )
        return mappers

    return run_sweep(
        "Ablation gamma threshold",
        "n_tasks",
        cfg.fig5_sizes,
        make_graphs,
        make_mappers,
        platform,
        seed=seed,
        n_random_schedules=cfg.n_random_schedules,
        progress=progress,
        workers=resolve_workers(workers, cfg.parallel_workers),
        journal=journal,
    )


def _streaming_off(base: Platform) -> Platform:
    devices = []
    for d in base.devices:
        if d.streaming:
            devices.append(
                Device(
                    name=d.name, kind=d.kind, lane_gops=d.lane_gops,
                    lanes=d.lanes, stream_gops=d.stream_gops,
                    setup_s=d.setup_s, area_capacity=d.area_capacity,
                    serializes=d.serializes, streaming=False, slots=d.slots,
                )
            )
        else:
            devices.append(d)
    return Platform(
        devices, base.bandwidth_gbps.copy(), base.latency_s.copy()
    )


class _PlatformSwitchMapper(DecompositionMapper):
    """SPFirstFit that maps against a *modified* platform, then reports the
    resulting mapping back in the original evaluator (used to isolate the
    streaming term of the cost model)."""

    def __init__(self, platform: Platform, name: str) -> None:
        super().__init__("series_parallel", "first_fit", name=name)
        self._platform = platform

    def _run(self, evaluator, rng):
        from ..evaluation.evaluator import MappingEvaluator

        inner = MappingEvaluator(
            evaluator.graph, self._platform, suite=evaluator.suite
        )
        return super()._run(inner, rng)


def run_streaming(
    scale="smoke",
    *,
    seed: int = 23,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal=None,
) -> SweepResult:
    """Streaming on/off ablation over graph size.

    Both variants are *evaluated* on the streaming platform; the "off"
    variant only *optimizes* against a streaming-blind model, so the gap is
    the value of modeling streaming during mapping construction.
    """
    cfg = get_scale(scale)
    platform = paper_platform()
    off = _streaming_off(platform)

    def make_graphs(x: float, rng: np.random.Generator) -> List:
        return [
            random_sp_graph(int(x), rng) for _ in range(cfg.graphs_per_point)
        ]

    def make_mappers(x: float):
        return [
            DecompositionMapper(
                "series_parallel", "first_fit", name="StreamAware"
            ),
            _PlatformSwitchMapper(off, "StreamBlind"),
        ]

    return run_sweep(
        "Ablation streaming awareness",
        "n_tasks",
        cfg.fig5_sizes,
        make_graphs,
        make_mappers,
        platform,
        seed=seed,
        n_random_schedules=cfg.n_random_schedules,
        progress=progress,
        workers=resolve_workers(workers, cfg.parallel_workers),
        journal=journal,
    )

