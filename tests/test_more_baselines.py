"""Tests for the CPOP, Min-min/Max-min and tabu-search baselines."""

import numpy as np
import pytest

from repro.graphs import TaskGraph
from repro.graphs.generators import random_sp_graph
from repro.mappers import (
    CpopMapper,
    MaxMinMapper,
    MinMinMapper,
    TabuSearchMapper,
)
from repro.mappers.cpop import downward_ranks
from repro.mappers.heft import upward_ranks
from repro.platform import cpu_only_platform, paper_platform
from tests.conftest import make_evaluator


class TestCpop:
    def test_valid_mapping(self, platform, rng):
        g = random_sp_graph(25, rng)
        ev = make_evaluator(g, platform)
        res = CpopMapper().map(ev, rng=rng)
        assert ev.is_feasible(res.mapping)
        assert res.stats["cp_tasks"] >= 2  # at least entry and exit

    def test_downward_ranks_zero_at_sources(self, small_evaluator):
        rank_d = downward_ranks(small_evaluator)
        g = small_evaluator.graph
        idx = small_evaluator.model.index
        for t in g.sources():
            assert rank_d[idx[t]] == 0.0

    def test_rank_sum_constant_on_critical_path(self, small_evaluator):
        """rank_u + rank_d is maximal and equal along the critical path."""
        ru = upward_ranks(small_evaluator)
        rd = downward_ranks(small_evaluator)
        total = ru + rd
        cp = total.max()
        # at least two tasks (entry, exit of the path) achieve the max
        assert np.sum(np.isclose(total, cp, rtol=1e-9)) >= 2

    def test_critical_path_tasks_share_processor(self, platform):
        g = TaskGraph.from_edges([(0, 1), (1, 2), (2, 3)])  # a pure chain
        from repro.graphs import augment

        augment(g, np.random.default_rng(0))
        ev = make_evaluator(g, platform)
        res = CpopMapper().map(ev)
        # a chain is entirely critical: all tasks on the CP processor
        assert len(set(res.mapping.tolist())) == 1
        assert res.stats["cp_tasks"] == 4

    def test_single_device(self, rng):
        g = random_sp_graph(10, rng)
        ev = make_evaluator(g, cpu_only_platform())
        res = CpopMapper().map(ev)
        assert np.all(res.mapping == 0)


class TestMinMaxMin:
    @pytest.mark.parametrize("factory", [MinMinMapper, MaxMinMapper])
    def test_valid_mapping(self, platform, rng, factory):
        g = random_sp_graph(25, rng)
        ev = make_evaluator(g, platform)
        res = factory().map(ev, rng=rng)
        assert ev.is_feasible(res.mapping)

    @pytest.mark.parametrize("factory", [MinMinMapper, MaxMinMapper])
    def test_deterministic(self, platform, rng, factory):
        g = random_sp_graph(15, rng)
        ev = make_evaluator(g, platform)
        a = factory().map(ev).mapping
        b = factory().map(ev).mapping
        assert np.array_equal(a, b)

    def test_policies_differ_on_wide_graphs(self, platform):
        """Min-min and max-min pick opposite orders: results usually differ."""
        differs = 0
        for seed in range(5):
            g = random_sp_graph(30, np.random.default_rng(seed + 40))
            ev = make_evaluator(g, platform, seed=seed)
            a = MinMinMapper().map(ev).mapping
            b = MaxMinMapper().map(ev).mapping
            differs += not np.array_equal(a, b)
        assert differs >= 1

    def test_respects_area(self, platform):
        g = TaskGraph()
        for i in range(8):
            g.add_task(i, complexity=20.0, parallelizability=0.0,
                       streamability=20.0, area=40.0)
        ev = make_evaluator(g, platform)  # capacity 100 -> at most 2 fit
        for factory in (MinMinMapper, MaxMinMapper):
            res = factory().map(ev)
            assert int(np.sum(res.mapping == 2)) <= 2


class TestTabu:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            TabuSearchMapper(iterations=0)
        with pytest.raises(ValueError):
            TabuSearchMapper(neighborhood=0)

    def test_never_worse_than_cpu(self, platform, rng):
        g = random_sp_graph(15, rng)
        ev = make_evaluator(g, platform, n_random=5)
        res = TabuSearchMapper(iterations=50).map(ev, rng=rng)
        assert res.makespan <= ev.cpu_construction_makespan * (1 + 1e-9)
        assert ev.is_feasible(res.mapping)

    def test_deterministic_for_seed(self, platform):
        g = random_sp_graph(12, np.random.default_rng(0))
        ev = make_evaluator(g, platform, n_random=5)
        mapper = TabuSearchMapper(iterations=60)
        a = mapper.map(ev, rng=np.random.default_rng(3)).mapping
        b = mapper.map(ev, rng=np.random.default_rng(3)).mapping
        assert np.array_equal(a, b)

    def test_finds_improvement(self, platform):
        g = random_sp_graph(20, np.random.default_rng(9))
        ev = make_evaluator(g, platform, n_random=5)
        res = TabuSearchMapper(iterations=200).map(
            ev, rng=np.random.default_rng(1)
        )
        assert ev.relative_improvement(res.mapping) > 0.02

    def test_zero_tenure_allowed(self, platform, rng):
        g = random_sp_graph(10, rng)
        ev = make_evaluator(g, platform, n_random=3)
        res = TabuSearchMapper(iterations=30, tenure=0).map(ev, rng=rng)
        assert ev.is_feasible(res.mapping)

    def test_single_node_moves_only(self, platform, rng):
        g = random_sp_graph(12, rng)
        ev = make_evaluator(g, platform, n_random=3)
        res = TabuSearchMapper(
            iterations=50, use_subgraph_moves=False
        ).map(ev, rng=rng)
        assert ev.is_feasible(res.mapping)
