"""Unit tests for the TaskGraph substrate."""

import itertools
import subprocess
import sys

import numpy as np
import pytest

from repro.graphs import DEFAULT_DATA_MB, GraphError, TaskGraph
from repro.graphs.generators import random_almost_sp_graph


class TestConstruction:
    def test_add_task_and_params(self):
        g = TaskGraph()
        g.add_task(7, complexity=3.0, parallelizability=0.5, streamability=2.0, area=4.0)
        p = g.params(7)
        assert (p.complexity, p.parallelizability, p.streamability, p.area) == (
            3.0,
            0.5,
            2.0,
            4.0,
        )

    def test_re_add_task_updates_params(self):
        g = TaskGraph()
        g.add_task(1, complexity=1.0)
        g.add_task(1, complexity=9.0)
        assert g.params(1).complexity == 9.0
        assert g.n_tasks == 1

    def test_add_edge_creates_endpoints(self):
        g = TaskGraph()
        g.add_edge(0, 1)
        assert g.has_task(0) and g.has_task(1)
        assert g.data_mb(0, 1) == DEFAULT_DATA_MB

    def test_add_edge_rejects_self_loop(self):
        g = TaskGraph()
        with pytest.raises(GraphError):
            g.add_edge(3, 3)

    def test_duplicate_edge_overwrites_data(self):
        g = TaskGraph()
        g.add_edge(0, 1, data_mb=10)
        g.add_edge(0, 1, data_mb=20)
        assert g.n_edges == 1
        assert g.data_mb(0, 1) == 20

    def test_remove_edge_and_task(self):
        g = TaskGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        g.remove_edge(0, 2)
        assert not g.has_edge(0, 2)
        g.remove_task(1)
        assert g.n_tasks == 2 and g.n_edges == 0

    def test_remove_missing_raises(self):
        g = TaskGraph.from_edges([(0, 1)])
        with pytest.raises(GraphError):
            g.remove_edge(1, 0)
        with pytest.raises(GraphError):
            g.remove_task(99)

    def test_set_data_mb(self):
        g = TaskGraph.from_edges([(0, 1)])
        g.set_data_mb(0, 1, 5.0)
        assert g.data_mb(0, 1) == 5.0
        with pytest.raises(GraphError):
            g.set_data_mb(1, 0, 5.0)


class TestInspection:
    def test_degrees_and_neighbors(self, fig1_graph):
        assert fig1_graph.out_degree(0) == 2
        assert fig1_graph.in_degree(3) == 2
        assert set(fig1_graph.successors(1)) == {3, 2}
        assert set(fig1_graph.predecessors(5)) == {3, 4}

    def test_sources_and_sinks(self, fig1_graph):
        assert fig1_graph.sources() == [0]
        assert fig1_graph.sinks() == [5]

    def test_input_mb_source_default(self, fig1_graph):
        assert fig1_graph.input_mb(0) == DEFAULT_DATA_MB
        assert fig1_graph.input_mb(3) == 2 * DEFAULT_DATA_MB

    def test_container_protocol(self, fig1_graph):
        assert 0 in fig1_graph
        assert 99 not in fig1_graph
        assert len(fig1_graph) == 6
        assert list(iter(fig1_graph)) == fig1_graph.tasks()

    def test_repr(self, fig1_graph):
        assert "n_tasks=6" in repr(fig1_graph)


class TestOrders:
    def test_topological_order_valid(self, fig2_graph):
        order = fig2_graph.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        for u, v in fig2_graph.edges():
            assert pos[u] < pos[v]

    def test_topological_order_detects_cycle(self):
        g = TaskGraph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 0)
        with pytest.raises(GraphError):
            g.topological_order()
        assert not g.is_dag()

    def test_bfs_levels_longest_path_semantics(self, fig1_graph):
        levels = fig1_graph.bfs_levels()
        level_of = {t: i for i, lvl in enumerate(levels) for t in lvl}
        # node 4's only pred is 0, but 5 must sit after 3 (longest path)
        assert level_of[0] == 0
        assert level_of[5] == max(level_of.values())
        assert level_of[3] > level_of[2]

    def test_bfs_order_is_topological(self, fig2_graph):
        order = fig2_graph.bfs_order()
        pos = {t: i for i, t in enumerate(order)}
        for u, v in fig2_graph.edges():
            assert pos[u] < pos[v]

    def test_longest_path_length(self, fig1_graph, chain_graph):
        assert chain_graph.longest_path_length() == 4
        assert fig1_graph.longest_path_length() == 4  # 0-1-2-3-5

    def test_descendants(self, fig1_graph):
        assert fig1_graph.descendants(1) == {2, 3, 5}
        assert fig1_graph.descendants(5) == set()


class TestTransformation:
    def test_copy_independent(self, fig1_graph):
        c = fig1_graph.copy()
        c.add_edge(0, 5)
        assert not fig1_graph.has_edge(0, 5)
        assert c.n_edges == fig1_graph.n_edges + 1

    def test_subgraph(self, fig1_graph):
        sub = fig1_graph.subgraph([1, 2, 3])
        assert sorted(sub.tasks()) == [1, 2, 3]
        assert set(sub.edges()) == {(1, 3), (1, 2), (2, 3)}

    def test_normalized_no_change_for_single_terminals(self, fig1_graph):
        g, src, snk = fig1_graph.normalized()
        assert (src, snk) == (0, 5)
        assert g.n_tasks == fig1_graph.n_tasks

    def test_normalized_adds_virtual_nodes(self):
        g = TaskGraph.from_edges([(0, 2), (1, 2), (2, 3), (2, 4)])
        norm, src, snk = g.normalized()
        assert norm.sources() == [src]
        assert norm.sinks() == [snk]
        assert norm.n_tasks == 7  # 5 original + virtual source + virtual sink
        assert norm.params(src).complexity == 0.0
        assert norm.data_mb(src, 0) == 0.0

    def test_transitive_reduction(self):
        g = TaskGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        red = g.transitive_reduction()
        assert not red.has_edge(0, 2)
        assert red.has_edge(0, 1) and red.has_edge(1, 2)
        assert red.n_tasks == 3

    def test_transitive_reduction_brute_force(self):
        """Keep exactly the edges with no other path between their ends."""
        removed = 0
        for seed in range(6):
            g = random_almost_sp_graph(14, 6, np.random.default_rng(seed))
            red = g.transitive_reduction()
            assert red.tasks() == g.tasks()

            def other_path(u, v):
                return any(
                    w == v or v in g.descendants(w)
                    for w in g.successors(u)
                    if w != v
                )

            expected = [e for e in g.edges() if not other_path(*e)]
            assert red.edges() == expected
            removed += g.n_edges - len(expected)
            for u, v in expected:
                assert red.data_mb(u, v) == g.data_mb(u, v)
            # same reachability as the original graph
            for u, v in itertools.permutations(g.tasks(), 2):
                assert (v in red.descendants(u)) == (v in g.descendants(u))
        assert removed > 0

    def test_relabeled_topological_ids(self):
        g = TaskGraph.from_edges([(10, 5), (5, 7), (10, 7)])
        r, remap = g.relabeled()
        assert sorted(r.tasks()) == [0, 1, 2]
        assert remap[10] == 0
        pos = {t: i for i, t in enumerate(r.topological_order())}
        for u, v in r.edges():
            assert pos[u] < pos[v]


class TestValidation:
    def test_validate_ok(self, fig1_graph):
        fig1_graph.validate()

    def test_validate_empty(self):
        with pytest.raises(GraphError):
            TaskGraph().validate()

    def test_validate_bad_parallelizability(self):
        g = TaskGraph()
        g.add_task(0, parallelizability=1.5)
        with pytest.raises(GraphError):
            g.validate()

    def test_validate_bad_streamability(self):
        g = TaskGraph()
        g.add_task(0, streamability=0.0)
        with pytest.raises(GraphError):
            g.validate()

    @pytest.mark.parametrize("area", [-1.0, float("nan"), float("inf")])
    def test_validate_bad_area(self, area):
        g = TaskGraph()
        g.add_task(0, area=area)
        with pytest.raises(GraphError):
            g.validate()


class TestInterop:
    def test_import_does_not_load_networkx(self):
        """networkx is optional: only the conversions below import it."""
        code = "import sys, repro; assert 'networkx' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_networkx_roundtrip(self, fig1_graph):
        nx = pytest.importorskip("networkx")
        fig1_graph.add_task(0, complexity=2.5, parallelizability=0.3)
        nxg = fig1_graph.to_networkx()
        assert isinstance(nxg, nx.DiGraph)
        back = TaskGraph.from_networkx(nxg)
        assert sorted(back.tasks()) == sorted(fig1_graph.tasks())
        assert set(back.edges()) == set(fig1_graph.edges())
        assert back.params(0).complexity == 2.5

    def test_from_edges_uniform_data(self):
        g = TaskGraph.from_edges([(0, 1), (1, 2)], data_mb=7.0)
        assert g.data_mb(0, 1) == 7.0
        assert g.data_mb(1, 2) == 7.0
