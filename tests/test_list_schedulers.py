"""Tests for the HEFT and PEFT baselines and for the list-scheduling core
that all six list schedulers share."""

import dataclasses

import numpy as np
import pytest

from repro.graphs import TaskGraph, augment
from repro.graphs.generators import random_sp_graph
from repro.mappers import (
    CpopMapper,
    HeftMapper,
    LookaheadHeftMapper,
    MaxMinMapper,
    MinMinMapper,
    PeftMapper,
)
from repro.mappers.heft import ListSchedule, mean_comm, mean_exec, upward_ranks
from repro.mappers.peft import optimistic_cost_table
from repro.platform import Platform, cpu_only_platform, paper_platform
from tests.conftest import make_evaluator

LIST_SCHEDULERS = [
    HeftMapper,
    PeftMapper,
    CpopMapper,
    MinMinMapper,
    MaxMinMapper,
    LookaheadHeftMapper,
]


class TestHeftInternals:
    def test_mean_exec_shape(self, small_evaluator):
        w = mean_exec(small_evaluator)
        assert w.shape == (6,)
        assert np.all(w > 0)

    def test_mean_comm_excludes_same_device(self, small_evaluator):
        c = mean_comm(small_evaluator)
        assert len(c) == small_evaluator.graph.n_edges
        assert all(v > 0 for v in c.values())

    def test_upward_ranks_decrease_along_edges(self, small_evaluator):
        rank = upward_ranks(small_evaluator)
        g = small_evaluator.graph
        idx = small_evaluator.model.index
        for u, v in g.edges():
            assert rank[idx[u]] > rank[idx[v]]


class TestHeftMapping:
    def test_valid_mapping(self, platform, rng):
        g = random_sp_graph(25, rng)
        ev = make_evaluator(g, platform)
        res = HeftMapper().map(ev, rng=rng)
        assert res.mapping.shape == (25,)
        assert ev.is_feasible(res.mapping)

    def test_single_device_platform_maps_everything_to_it(self, rng):
        g = random_sp_graph(10, rng)
        ev = make_evaluator(g, cpu_only_platform())
        res = HeftMapper().map(ev, rng=rng)
        assert np.all(res.mapping == 0)

    def test_respects_fpga_area(self, platform):
        # every task is hugely FPGA-attractive but the area fits only a few
        g = TaskGraph()
        for i in range(10):
            g.add_task(
                i,
                complexity=20.0,
                parallelizability=0.0,
                streamability=20.0,
                area=30.0,  # capacity 100 -> at most 3 fit
            )
        for i in range(9):
            g.add_edge(i, i + 1, data_mb=1.0)
        ev = make_evaluator(g, platform)
        res = HeftMapper().map(ev)
        on_fpga = int(np.sum(res.mapping == 2))
        assert on_fpga <= 3
        assert ev.is_feasible(res.mapping)

    def test_prefers_gpu_for_parallel_hot_task(self, platform):
        """One huge perfectly-parallel task with tiny I/O must go to the GPU."""
        g = TaskGraph()
        g.add_task(0, complexity=0.1)
        g.add_task(1, complexity=500.0, parallelizability=1.0, streamability=1.0)
        g.add_task(2, complexity=0.1)
        g.add_edge(0, 1, data_mb=100.0)
        g.add_edge(1, 2, data_mb=100.0)
        ev = make_evaluator(g, platform)
        res = HeftMapper().map(ev)
        assert res.mapping[1] == 1  # the GPU


class TestPeft:
    def test_oct_zero_for_sinks(self, small_evaluator):
        oct_table = optimistic_cost_table(small_evaluator)
        g = small_evaluator.graph
        idx = small_evaluator.model.index
        for t in g.sinks():
            assert np.all(oct_table[idx[t]] == 0.0)
        assert np.all(oct_table >= 0.0)

    def test_oct_nondecreasing_towards_source(self, small_evaluator):
        """rank_oct must grow along reversed edges (more graph left to run)."""
        oct_table = optimistic_cost_table(small_evaluator)
        rank = oct_table.mean(axis=1)
        g = small_evaluator.graph
        idx = small_evaluator.model.index
        for u, v in g.edges():
            assert rank[idx[u]] > rank[idx[v]] - 1e-12

    def test_valid_mapping(self, platform, rng):
        g = random_sp_graph(30, rng)
        ev = make_evaluator(g, platform)
        res = PeftMapper().map(ev, rng=rng)
        assert ev.is_feasible(res.mapping)
        assert res.stats["schedule_length"] > 0

    def test_respects_fpga_area(self, platform):
        g = TaskGraph()
        for i in range(10):
            g.add_task(
                i, complexity=20.0, parallelizability=0.0,
                streamability=20.0, area=30.0,
            )
        for i in range(9):
            g.add_edge(i, i + 1, data_mb=1.0)
        ev = make_evaluator(g, platform)
        res = PeftMapper().map(ev)
        assert int(np.sum(res.mapping == 2)) <= 3

    def test_deterministic(self, platform, rng):
        g = random_sp_graph(20, rng)
        ev = make_evaluator(g, platform)
        a = PeftMapper().map(ev).mapping
        b = PeftMapper().map(ev).mapping
        assert np.array_equal(a, b)


class TestComparative:
    def test_both_beat_nothing_rarely_but_run_fast(self, platform):
        """On average over seeds, HEFT/PEFT find some improvement."""
        imps_h, imps_p = [], []
        for seed in range(5):
            g = random_sp_graph(30, np.random.default_rng(seed))
            ev = make_evaluator(g, platform, seed=seed, n_random=10)
            imps_h.append(
                ev.relative_improvement(HeftMapper().map(ev).mapping)
            )
            imps_p.append(
                ev.relative_improvement(PeftMapper().map(ev).mapping)
            )
        assert np.mean(imps_h) > 0.0
        assert np.mean(imps_p) > 0.0


def _rank_tie_graph():
    """Task 1 has zero work and a free out-edge, so on a zero-latency
    platform ``rank_u[1] == rank_u[0]`` although 1 is a parent of 0;
    sorting by ``(-rank_u, index)`` puts the child 0 first."""
    g = TaskGraph()
    for t in range(4):
        g.add_task(t, complexity=5.0, parallelizability=0.5)
    g.add_edge(2, 1, data_mb=0.0)
    g.add_edge(1, 0, data_mb=0.0)
    g.add_edge(3, 0, data_mb=100.0)
    base = paper_platform()
    return g, Platform(base.devices, base.bandwidth_gbps, np.zeros((3, 3)))


@pytest.mark.parametrize("factory", LIST_SCHEDULERS, ids=lambda f: f.name)
class TestListSchedulingCore:
    def test_commit_order_is_topological(self, factory, monkeypatch):
        g, plat = _rank_tie_graph()
        ev = make_evaluator(g, plat)
        rank = upward_ranks(ev)
        assert rank[0] == rank[1]
        commits = {}
        real_commit = ListSchedule.commit

        def record(sched, task_idx, *placement):
            commits.setdefault(sched, []).append(task_idx)
            real_commit(sched, task_idx, *placement)

        monkeypatch.setattr(ListSchedule, "commit", record)
        factory().map(ev)
        # lookahead trial copies commit too; the real pass commits all four
        (order,) = [o for o in commits.values() if sorted(o) == [0, 1, 2, 3]]
        pos = {t: k for k, t in enumerate(order)}
        idx = ev.model.index
        for u, v in g.edges():
            assert pos[idx[u]] < pos[idx[v]], (u, v, order)

    def test_host_fallback_when_every_device_is_out_of_area(self, factory):
        plat = paper_platform()
        capped = Platform(
            [dataclasses.replace(d, area_capacity=15.0) for d in plat.devices],
            plat.bandwidth_gbps,
            plat.latency_s,
        )
        g = TaskGraph()
        for t in range(6):
            g.add_task(t, complexity=5.0, streamability=4.0, area=10.0)
        for t in range(5):
            g.add_edge(t, t + 1)
        res = factory().map(make_evaluator(g, capped))
        assert res.mapping.shape == (6,)
        assert np.isfinite(res.stats["schedule_length"])
