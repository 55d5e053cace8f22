"""Metaheuristic population-batch benchmarks.

The wall-clock medians of the metaheuristic mappers live in
``BENCH_meta.json`` (maintained by ``record.py --suite meta`` and gated
in CI by ``record.py --suite meta --check nsgaii_smoke``); their seeded
trajectories are pinned in ``tests/test_golden.py``.  Here we only check
that the counters prove the population path ran.
"""

import numpy as np
import pytest

from repro.evaluation import MappingEvaluator
from repro.graphs.generators import random_sp_graph
from repro.mappers import NsgaIIMapper
from repro.platform import paper_platform


@pytest.fixture(scope="module")
def bench_graph():
    return random_sp_graph(50, np.random.default_rng(1234))


def _evaluator(g):
    return MappingEvaluator(
        g,
        paper_platform(),
        rng=np.random.default_rng(5),
        n_random_schedules=20,
    )


def test_counters_prove_batch_path(bench_graph):
    """The GA's stats must show the batch path actually ran."""
    ev = _evaluator(bench_graph)
    res = NsgaIIMapper(generations=10, population_size=30).map(
        ev, rng=np.random.default_rng(0)
    )
    assert res.stats["n_batched_evaluations"] > 0
    assert res.stats["batch_size_mean"] > 1.0
    assert res.stats["n_simulations"] == 0.0
