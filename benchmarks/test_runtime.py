"""Bench targets on the runtime engine's hot paths.

Each runs once and checks a deterministic fact: one noisy run (seeded
replay), a replication batch, a contended arrival stream, and a mid-run
device-failure replan (rollback + full recommit cascade).  perfbench's
``streams`` workload times the engine (``runtime.engine_s``).
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


def test_bench_engine_lognormal_noise(platform, mapped):
    g, ev, mapping = mapped
    noise = LognormalNoise(0.3, transfer_sigma=0.1)
    run = lambda: simulate_mapping(g, platform, mapping, noise=noise, rng=3)
    makespan = run().makespan
    assert makespan == run().makespan  # seeded replay
    assert makespan != ev.model.simulate(mapping)


def test_bench_replicate_batch(platform, mapped):
    g, _, mapping = mapped
    traces = replicate(
        g, platform, mapping, n=20, noise=LognormalNoise(0.2), seed=5
    )
    assert len(traces) == 20
    assert len({t.makespan for t in traces}) > 1


def test_bench_arrival_stream(platform, mapped):
    g, ev, mapping = mapped
    solo = ev.model.simulate(mapping)
    jobs = periodic_stream(g, mapping, 8, period=solo / 4)  # heavy contention
    latencies = [j.makespan for j in RuntimeEngine(platform).run(jobs).jobs]
    assert len(latencies) == 8
    assert min(latencies) >= solo
    assert latencies[-1] > latencies[0]  # the queue builds up


def test_bench_failure_replan(platform, mapped):
    g, ev, mapping = mapped
    solo = ev.model.simulate(mapping)
    trace = simulate_mapping(
        g, platform, mapping, scenarios=[DeviceFailure(0.5 * solo, device=1)]
    )
    assert trace.jobs[0].n_remapped > 0
    assert trace.makespan > solo


def test_robustness_noise_sweep():
    """Regenerates robustness_noise_sweep.csv at the bench scale."""
    from repro.experiments import EXPERIMENTS, bench_scale, write_csv

    entry = EXPERIMENTS["robustness"]
    result = entry.run(bench_scale())
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
