"""Tests for the Mapper base class and trivial mappers."""

import numpy as np
import pytest

from repro.mappers import AllOnDeviceMapper, BestRandomMapper, RandomMapper
from repro.mappers.base import Mapper
from tests.conftest import make_evaluator
from repro.graphs.generators import random_sp_graph
from repro.platform import paper_platform


class BrokenShapeMapper(Mapper):
    name = "BrokenShape"

    def _run(self, evaluator, rng):
        return np.zeros(evaluator.n_tasks + 1, dtype=np.int64), {}


class BrokenRangeMapper(Mapper):
    name = "BrokenRange"

    def _run(self, evaluator, rng):
        m = np.zeros(evaluator.n_tasks, dtype=np.int64)
        m[0] = 99
        return m, {}


class TestValidation:
    def test_wrong_shape_rejected(self, small_evaluator):
        with pytest.raises(ValueError, match="shape"):
            BrokenShapeMapper().map(small_evaluator)

    def test_out_of_range_rejected(self, small_evaluator):
        with pytest.raises(ValueError, match="out of range"):
            BrokenRangeMapper().map(small_evaluator)

    def test_result_contents(self, small_evaluator):
        res = AllOnDeviceMapper(0).map(small_evaluator)
        assert res.makespan == pytest.approx(
            small_evaluator.cpu_construction_makespan
        )
        assert res.elapsed_s >= 0.0
        assert res.mapping.dtype == np.int64


class TestTrivialMappers:
    def test_all_on_device(self, small_evaluator):
        res = AllOnDeviceMapper(1).map(small_evaluator)
        assert set(res.mapping.tolist()) <= {0, 1}

    def test_all_on_invalid_device(self, small_evaluator):
        with pytest.raises(ValueError):
            AllOnDeviceMapper(9).map(small_evaluator)

    def test_all_on_fpga_falls_back_when_infeasible(self, platform):
        from repro.graphs import TaskGraph

        g = TaskGraph()
        for i in range(5):
            g.add_task(i, complexity=10.0, area=50.0)
        ev = make_evaluator(g, platform)  # 250 area > 100 capacity
        res = AllOnDeviceMapper(2).map(ev)
        assert np.all(res.mapping == 0)

    def test_random_mapper_feasible(self, platform, rng):
        g = random_sp_graph(15, rng)
        ev = make_evaluator(g, platform)
        res = RandomMapper().map(ev, rng=rng)
        assert ev.is_feasible(res.mapping)

    def test_best_random_improves_over_single_random(self, platform):
        g = random_sp_graph(20, np.random.default_rng(1))
        ev = make_evaluator(g, platform, n_random=5)
        single = RandomMapper().map(ev, rng=np.random.default_rng(2))
        best = BestRandomMapper(k=50).map(ev, rng=np.random.default_rng(2))
        assert best.makespan <= ev.construction_makespan(single.mapping) * (
            1 + 1e-9
        )

    def test_best_random_never_worse_than_cpu(self, platform, rng):
        g = random_sp_graph(15, rng)
        ev = make_evaluator(g, platform)
        res = BestRandomMapper(k=10).map(ev, rng=rng)
        assert res.makespan <= ev.cpu_construction_makespan * (1 + 1e-9)


class TestStatsOnAReusedEvaluator:
    def test_second_run_reports_the_same_stats(self, platform):
        """A run's stats do not depend on what earlier runs left on the
        evaluator: every counter, ``n_equivalent_evaluations``
        included, is the run's own before/after difference."""
        from repro.mappers import single_node

        g = random_sp_graph(150, np.random.default_rng(3))
        ev = make_evaluator(g, platform)
        first = single_node().map(ev)
        second = single_node().map(ev)
        assert second.stats == first.stats
        assert second.n_evaluations == first.n_evaluations
        np.testing.assert_array_equal(second.mapping, first.mapping)
