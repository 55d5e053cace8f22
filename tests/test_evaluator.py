"""Tests for the MappingEvaluator facade."""

import numpy as np
import pytest

from repro.evaluation import INFEASIBLE, MappingEvaluator
from repro.graphs import TaskGraph, augment
from repro.graphs.generators import random_sp_graph
from repro.platform import paper_platform
from tests.conftest import make_evaluator


class TestBasics:
    def test_shapes(self, small_evaluator):
        assert small_evaluator.n_tasks == 6
        assert small_evaluator.n_devices == 3
        assert small_evaluator.cpu_mapping().tolist() == [0] * 6

    def test_cpu_makespans_cached(self, small_evaluator):
        a = small_evaluator.cpu_construction_makespan
        b = small_evaluator.cpu_construction_makespan
        assert a == b > 0
        r = small_evaluator.cpu_reported_makespan
        assert r <= a * (1 + 1e-12)  # min over suite includes BFS

    def test_reported_never_above_construction(self, platform, rng):
        g = random_sp_graph(25, rng)
        ev = make_evaluator(g, platform, n_random=20)
        for _ in range(5):
            m = rng.integers(0, 3, size=ev.n_tasks)
            if not ev.is_feasible(m):
                continue
            assert ev.reported_makespan(m) <= ev.construction_makespan(m) * (
                1 + 1e-12
            )

    def test_evaluation_counter(self, small_evaluator):
        before = small_evaluator.n_evaluations
        small_evaluator.construction_makespan(small_evaluator.cpu_mapping())
        assert small_evaluator.n_evaluations == before + 1


class TestImprovement:
    def test_cpu_mapping_zero_improvement(self, small_evaluator):
        assert small_evaluator.relative_improvement(
            small_evaluator.cpu_mapping()
        ) == 0.0

    def test_improvement_in_unit_range(self, platform, rng):
        g = random_sp_graph(20, rng)
        ev = make_evaluator(g, platform)
        for _ in range(10):
            m = rng.integers(0, 3, size=ev.n_tasks)
            assert 0.0 <= ev.relative_improvement(m) < 1.0

    def test_deterioration_truncated_to_zero(self, platform):
        # a graph of purely sequential tasks: any GPU offload hurts
        g = TaskGraph()
        g.add_task(0, complexity=5.0, parallelizability=0.0)
        g.add_task(1, complexity=5.0, parallelizability=0.0)
        g.add_edge(0, 1, data_mb=500.0)
        ev = make_evaluator(g, platform)
        worse = np.array([0, 1])
        assert ev.reported_makespan(worse) > ev.cpu_reported_makespan
        assert ev.relative_improvement(worse) == 0.0

    def test_infeasible_mapping_zero_improvement(self, platform):
        g = TaskGraph()
        g.add_task(0, complexity=1.0, area=1e6)
        g.add_task(1, complexity=1.0)
        g.add_edge(0, 1)
        ev = make_evaluator(g, platform)
        m = np.array([2, 0])
        assert ev.reported_makespan(m) == INFEASIBLE
        assert ev.relative_improvement(m) == 0.0


class TestSuiteSharing:
    def test_same_suite_for_all_mappings(self, platform, rng):
        g = random_sp_graph(15, rng)
        ev = MappingEvaluator(
            g, platform, rng=np.random.default_rng(0), n_random_schedules=7
        )
        assert len(ev.suite) == 8
        # reported makespan is deterministic given the fixed suite
        m = rng.integers(0, 3, size=ev.n_tasks)
        if ev.is_feasible(m):
            assert ev.reported_makespan(m) == ev.reported_makespan(m)
