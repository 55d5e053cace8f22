"""Tests for schedule traces and the ASCII Gantt renderer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import (
    INFEASIBLE,
    CostModel,
    render_gantt,
    simulate_trace,
)
from repro.graphs import TaskGraph
from repro.graphs.generators import random_almost_sp_graph, random_sp_graph
from repro.platform import paper_platform


@pytest.fixture()
def model(rng):
    g = random_sp_graph(15, rng)
    return CostModel(g, paper_platform())


class TestTraceConsistency:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(3, 30),
        k=st.integers(0, 10),
        seed=st.integers(0, 2**31),
    )
    def test_trace_makespan_equals_simulate(self, n, k, seed):
        """The trace must reproduce the hot-path simulation exactly."""
        rng = np.random.default_rng(seed)
        g = random_almost_sp_graph(n, k, rng)
        model = CostModel(g, paper_platform())
        mapping = rng.integers(0, 3, size=n)
        if not model.is_feasible(mapping):
            mapping = np.zeros(n, dtype=int)
        trace = simulate_trace(model, mapping)
        assert trace.makespan == pytest.approx(
            model.simulate(mapping), rel=1e-12
        )

    def test_trace_records_every_task(self, model):
        mapping = np.zeros(model.n, dtype=int)
        trace = simulate_trace(model, mapping)
        assert len(trace.tasks) == model.n
        assert {t.index for t in trace.tasks} == set(range(model.n))

    def test_trace_respects_precedence(self, model):
        rng = np.random.default_rng(1)
        mapping = rng.integers(0, 3, size=model.n)
        if not model.is_feasible(mapping):
            mapping = np.zeros(model.n, dtype=int)
        trace = simulate_trace(model, mapping)
        by_index = {t.index: t for t in trace.tasks}
        for i in range(model.n):
            for p, _ in model.preds[i]:
                # a consumer can start before its producer *finishes* only by
                # streaming, never before the producer *starts*
                assert by_index[i].start >= by_index[p].start - 1e-12

    def test_infeasible_trace(self):
        g = TaskGraph()
        g.add_task(0, complexity=1.0, area=1e6)
        model = CostModel(g, paper_platform())
        trace = simulate_trace(model, [2])
        assert trace.makespan == INFEASIBLE
        assert trace.tasks == []

    def test_waited_accounts_contention(self):
        # two independent heavy tasks on the single-slot GPU: one must wait
        g = TaskGraph()
        g.add_task(0, complexity=10.0, parallelizability=1.0)
        g.add_task(1, complexity=10.0, parallelizability=1.0)
        model = CostModel(g, paper_platform())
        trace = simulate_trace(model, [1, 1])
        assert trace.total_wait() > 0.0

    def test_streamed_flag(self):
        g = TaskGraph()
        g.add_task(0, complexity=5.0, streamability=5.0, area=1.0)
        g.add_task(1, complexity=5.0, streamability=5.0, area=1.0)
        g.add_edge(0, 1, data_mb=100.0)
        model = CostModel(g, paper_platform())
        trace = simulate_trace(model, [2, 2])
        flags = {t.index: t.streamed for t in trace.tasks}
        assert flags[1] is True
        assert flags[0] is False

    def test_device_busy_totals(self, model):
        mapping = np.zeros(model.n, dtype=int)
        trace = simulate_trace(model, mapping)
        assert trace.device_busy[0] == pytest.approx(
            model.exec_table[:, 0].sum()
        )
        assert trace.device_busy[1] == 0.0

    def test_by_device_filter(self, model):
        mapping = np.zeros(model.n, dtype=int)
        mapping[0] = 1
        if not model.is_feasible(mapping):
            pytest.skip("unexpected infeasibility")
        trace = simulate_trace(model, mapping)
        assert len(trace.by_device(1)) == 1


class TestGantt:
    def test_renders_all_device_rows(self, model):
        mapping = np.zeros(model.n, dtype=int)
        trace = simulate_trace(model, mapping)
        text = render_gantt(trace, model, width=50)
        assert "epyc7351p.0" in text
        assert "ms" in text

    def test_streamed_tasks_use_stream_char(self):
        g = TaskGraph()
        g.add_task(0, complexity=8.0, streamability=6.0, area=1.0)
        g.add_task(1, complexity=8.0, streamability=6.0, area=1.0)
        g.add_edge(0, 1, data_mb=100.0)
        model = CostModel(g, paper_platform())
        trace = simulate_trace(model, [2, 2])
        text = render_gantt(trace, model, width=40)
        assert "≈" in text

    def test_empty_trace(self):
        g = TaskGraph()
        g.add_task(0, complexity=1.0, area=1e6)
        model = CostModel(g, paper_platform())
        trace = simulate_trace(model, [2])
        assert "empty or infeasible" in render_gantt(trace, model)
