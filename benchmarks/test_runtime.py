"""Micro-benchmarks of the runtime engine's hot paths.

The engine is the substrate every robustness experiment replays mappings
through, so its per-run cost bounds how many replications a sweep can
afford.  Benchmarked: one zero-noise run (the analytic-equivalence path),
one noisy run (adds per-task factor sampling), a full replication batch,
a contended arrival stream, and a mid-run device-failure replan (the
worst case: rollback + full recommit cascade).
"""

import numpy as np
import pytest

from repro.mappers import HeftMapper
from repro.runtime import (
    DeviceFailure,
    LognormalNoise,
    RuntimeEngine,
    periodic_stream,
    replicate,
    simulate_mapping,
)


@pytest.fixture(scope="module")
def mapped(sp_graph_50):
    g, ev = sp_graph_50
    mapping = list(HeftMapper().map(ev).mapping)
    return g, ev, mapping


def test_bench_engine_zero_noise(benchmark, platform, mapped):
    g, _, mapping = mapped
    benchmark(lambda: simulate_mapping(g, platform, mapping))


def test_bench_engine_lognormal_noise(benchmark, platform, mapped):
    g, _, mapping = mapped
    noise = LognormalNoise(0.3, transfer_sigma=0.1)
    benchmark(lambda: simulate_mapping(g, platform, mapping, noise=noise, rng=3))


def test_bench_replicate_batch(benchmark, platform, mapped):
    g, _, mapping = mapped
    benchmark.pedantic(
        lambda: replicate(
            g, platform, mapping, n=20, noise=LognormalNoise(0.2), seed=5
        ),
        rounds=3,
        iterations=1,
    )


def test_bench_arrival_stream(benchmark, platform, mapped):
    g, ev, mapping = mapped
    period = ev.model.simulate(mapping) / 4  # heavy queue contention
    jobs = periodic_stream(g, mapping, 8, period=period)
    engine = RuntimeEngine(platform)
    benchmark(lambda: engine.run(jobs))


def test_bench_failure_replan(benchmark, platform, mapped):
    g, ev, mapping = mapped
    t_fail = 0.5 * ev.model.simulate(mapping)
    benchmark(lambda: simulate_mapping(
        g, platform, mapping, scenarios=[DeviceFailure(t_fail, device=1)]
    ))


def test_robustness_noise_sweep(benchmark):
    """Regenerates robustness_noise_sweep.csv at the bench scale."""
    from repro.experiments import EXPERIMENTS, bench_scale, write_csv

    entry = EXPERIMENTS["robustness"]
    result = benchmark.pedantic(
        lambda: entry.run(bench_scale()), rounds=1, iterations=1
    )
    print()
    print(entry.format(result))
    write_csv(result)

    sigmas = result.axis("noise_sigma")
    for algorithm in result.algorithms():
        lo = result.cell(sigmas[0], algorithm)
        hi = result.cell(sigmas[-1], algorithm)
        # the p95 tail must widen as runtime variability grows
        assert hi.p95_degradation > lo.p95_degradation
        assert hi.p95_degradation > 0.0
