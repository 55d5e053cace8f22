"""Ablation benchmarks for the design choices called out in DESIGN.md.

1. **Cut strategy** of Algorithm 1 (paper: "a well-designed heuristic might
   exploit this observation"): random vs first vs smallest vs largest —
   measured by the improvement SPFirstFit reaches on almost-SP graphs.
2. **gamma threshold** of the look-ahead heuristic (paper Sec. IV-B: gamma >
   1 "does not provide a significant benefit" over FirstFit) — improvement
   and evaluation counts for gamma in {1, 1.5, 2, basic}.
3. **Streaming awareness**: mapping quality with the FPGA's streaming
   enabled vs disabled in the cost model (quantifies how much of the
   decomposition advantage comes from dataflow streaming).

The three registry entries (``ablation-cuts``, ``ablation-gamma``,
``ablation-streaming``) run at the bench scale too; at smoke scale every
column except ``time_s`` must equal their committed ``results/`` CSVs.
"""

import numpy as np
import pytest

from repro.evaluation import MappingEvaluator
from repro.experiments import EXPERIMENTS, bench_scale, write_csv
from repro.graphs.generators import random_almost_sp_graph, random_sp_graph
from repro.mappers import DecompositionMapper
from repro.platform import Platform, cpu, fpga, gpu, paper_platform
from repro.sp import CUT_STRATEGIES


@pytest.mark.parametrize(
    "name", ["ablation-cuts", "ablation-gamma", "ablation-streaming"]
)
def test_ablation_sweep_regenerate(name, matches_committed_csv):
    entry = EXPERIMENTS[name]
    result = entry.run(bench_scale())
    print()
    print(entry.format(result))
    matches_committed_csv(write_csv(result))


def _mean_improvement(mapper, graphs, platform, seed=0):
    imps = []
    seq = np.random.SeedSequence(seed)
    for g, s in zip(graphs, seq.spawn(len(graphs))):
        r1, r2 = [np.random.default_rng(c) for c in s.spawn(2)]
        ev = MappingEvaluator(g, platform, rng=r1, n_random_schedules=20)
        res = mapper.map(ev, rng=r2)
        imps.append(ev.relative_improvement(res.mapping))
    return float(np.mean(imps))


@pytest.fixture(scope="module")
def almost_sp_graphs():
    rng = np.random.default_rng(77)
    return [random_almost_sp_graph(40, 15, rng) for _ in range(3)]


@pytest.mark.parametrize("strategy", CUT_STRATEGIES)
def test_ablation_cut_strategy(almost_sp_graphs, strategy):
    platform = paper_platform()
    mapper = DecompositionMapper(
        "series_parallel", "first_fit", cut_strategy=strategy
    )
    imp = _mean_improvement(mapper, almost_sp_graphs, platform)
    print(f"\ncut_strategy={strategy}: improvement={imp:.3f}")
    assert imp >= 0.0


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0])
def test_ablation_gamma_threshold(almost_sp_graphs, gamma):
    platform = paper_platform()
    mapper = DecompositionMapper("series_parallel", "gamma", gamma=gamma)
    imp = _mean_improvement(mapper, almost_sp_graphs, platform)
    print(f"\ngamma={gamma}: improvement={imp:.3f}")
    assert imp >= 0.0


def _no_streaming_platform() -> Platform:
    from repro.platform.device import Device, DeviceKind

    base = paper_platform()
    devices = list(base.devices)
    f = devices[2]
    devices[2] = Device(
        name=f.name,
        kind=DeviceKind.FPGA,
        lane_gops=f.lane_gops,
        stream_gops=f.stream_gops,
        setup_s=f.setup_s,
        area_capacity=f.area_capacity,
        serializes=False,
        streaming=False,  # the ablation: no dataflow overlap on-chip
    )
    return Platform(devices, base.bandwidth_gbps.copy(), base.latency_s.copy())


def test_ablation_streaming_value():
    """How much improvement does FPGA dataflow streaming contribute?"""
    rng = np.random.default_rng(21)
    graphs = [random_sp_graph(40, rng) for _ in range(3)]
    mapper = DecompositionMapper("series_parallel", "first_fit")

    with_streaming = _mean_improvement(mapper, graphs, paper_platform())
    without = _mean_improvement(mapper, graphs, _no_streaming_platform())
    print(f"\nstreaming on: {with_streaming:.3f}  off: {without:.3f}")
    # streaming should never hurt the best achievable mapping
    assert with_streaming >= without - 0.03
