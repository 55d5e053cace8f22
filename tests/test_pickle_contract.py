"""Pickle smoke test: mappers and evaluators survive a round-trip mid-run.

The ``parallel_map`` contract (PR 5) requires every payload shipped to a
worker process to pickle; the cost model strips its ctypes handles in
``__getstate__`` (PR 3/4).  This file pins the *user-facing* surface of
that contract: every public :class:`~repro.mappers.Mapper` subclass can be
pickled after a run (carrying whatever state the run accumulated) and the
clone behaves bit-identically.
"""

import pickle

import numpy as np
import pytest

import repro.mappers as mappers_mod
from repro.evaluation import MappingEvaluator
from repro.graphs import TaskGraph, augment
from repro.mappers import Mapper, MappingResult
from repro.platform import paper_platform

#: every public concrete Mapper subclass, from the package's own __all__
PUBLIC_MAPPERS = sorted(
    (
        name
        for name in mappers_mod.__all__
        if isinstance(getattr(mappers_mod, name), type)
        and issubclass(getattr(mappers_mod, name), Mapper)
        and getattr(mappers_mod, name) is not Mapper
    ),
)

#: MILP-backed mappers: still deterministic, but give the solver a box
MILP_KWARGS = {
    "WgdpDeviceMapper": {"time_limit_s": 10},
    "WgdpTimeMapper": {"time_limit_s": 10},
    "ZhouLiuMapper": {"time_limit_s": 10},
    "NsgaIIMapper": {"generations": 5},
    "ParetoNsgaIIMapper": {"generations": 5},
}


def tiny_evaluator(seed=0):
    g = TaskGraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
    augment(g, np.random.default_rng(3))
    return MappingEvaluator(
        g,
        paper_platform(),
        rng=np.random.default_rng(seed),
        n_random_schedules=8,
    )


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_public_mapper_list_is_nonempty():
    # guards the discovery above against a refactor emptying it silently
    assert len(PUBLIC_MAPPERS) >= 15
    assert "HeftMapper" in PUBLIC_MAPPERS
    assert "DecompositionMapper" in PUBLIC_MAPPERS


@pytest.mark.parametrize("name", PUBLIC_MAPPERS)
def test_mapper_roundtrips_mid_run(name):
    cls = getattr(mappers_mod, name)
    mapper = cls(**MILP_KWARGS.get(name, {}))
    evaluator = tiny_evaluator()
    result = mapper.map(evaluator, rng=np.random.default_rng(42))
    assert isinstance(result, MappingResult)

    # the mapper, with whatever state .map() left behind, must pickle
    clone = roundtrip(mapper)
    assert clone.name == mapper.name

    # the evaluator it just ran against must pickle too, and the clone
    # must score the result identically (bit-for-bit)
    eval_clone = roundtrip(evaluator)
    assert eval_clone.construction_makespan(result.mapping) == \
        evaluator.construction_makespan(result.mapping)

    # deterministic mappers: the clone re-runs to the same mapping
    if name not in MILP_KWARGS:
        rerun = clone.map(tiny_evaluator(), rng=np.random.default_rng(42))
        assert np.array_equal(rerun.mapping, result.mapping)
        assert rerun.makespan == result.makespan


@pytest.mark.parametrize("factory_name", [
    "series_parallel", "single_node", "sn_first_fit", "sp_first_fit",
])
def test_factory_mappers_roundtrip(factory_name):
    mapper = getattr(mappers_mod, factory_name)()
    evaluator = tiny_evaluator()
    result = mapper.map(evaluator, rng=np.random.default_rng(7))
    clone = roundtrip(mapper)
    rerun = clone.map(tiny_evaluator(), rng=np.random.default_rng(7))
    assert np.array_equal(rerun.mapping, result.mapping)


def test_mapping_result_roundtrips():
    evaluator = tiny_evaluator()
    result = mappers_mod.HeftMapper().map(
        evaluator, rng=np.random.default_rng(1)
    )
    clone = roundtrip(result)
    assert np.array_equal(clone.mapping, result.mapping)
    assert clone.makespan == result.makespan
    assert clone.stats == result.stats
