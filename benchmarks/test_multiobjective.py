"""Bench targets for the multi-objective extension (paper Sec. V).

Runs the Pareto NSGA-II and the scalarized energy-aware decomposition
mapper, and checks the trade-off shape: lowering alpha must never *increase*
energy, and no point of the Pareto front may dominate another.
"""

import numpy as np

from repro.evaluation import EnergyModel, MappingEvaluator
from repro.graphs.generators import random_sp_graph
from repro.mappers import EnergyAwareDecompositionMapper, ParetoNsgaIIMapper
from repro.platform import paper_platform


def _setup(n=30, seed=17):
    g = random_sp_graph(n, np.random.default_rng(seed))
    ev = MappingEvaluator(
        g, paper_platform(), rng=np.random.default_rng(0),
        n_random_schedules=10,
    )
    return ev, EnergyModel(ev.model)


def test_bench_energy_aware_sweep():
    ev, energy = _setup()

    points = []
    for alpha in (1.0, 0.5, 0.0):
        res = EnergyAwareDecompositionMapper(alpha=alpha).map(
            ev, rng=np.random.default_rng(1)
        )
        points.append((alpha, res.makespan, energy.energy(res.mapping)))
    print()
    for alpha, ms, e in points:
        print(f"  alpha={alpha:4.2f}: {ms * 1e3:8.1f} ms {e:8.1f} J")
    # energy must be non-increasing as alpha decreases
    energies = [e for _, _, e in points]
    assert energies[0] >= energies[-1] - 1e-9
    # makespan must be non-decreasing as alpha decreases
    makespans = [ms for _, ms, _ in points]
    assert makespans[-1] >= makespans[0] - 1e-9


def test_bench_pareto_nsga2():
    ev, energy = _setup()
    mapper = ParetoNsgaIIMapper(generations=30, population_size=40)
    res = mapper.map(ev, rng=np.random.default_rng(2))
    front = mapper.last_front_
    print(f"\n  front: {[(round(m * 1e3, 1), round(e, 1)) for _, m, e in front]}")
    assert res.stats["front_size"] >= 1
    # every front mapping is feasible and no point dominates another
    for i, (_, ms_i, e_i) in enumerate(front):
        for j, (_, ms_j, e_j) in enumerate(front):
            if i != j:
                assert not (ms_i <= ms_j and e_i < e_j) or ms_i < ms_j
