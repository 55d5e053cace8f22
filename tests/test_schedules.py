"""Tests for schedule generation (BFS + random topological suites) and
the one-call reported makespan over a suite, on both kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import (
    INFEASIBLE,
    CostModel,
    MappingEvaluator,
    ScheduleSuite,
    bfs_schedule,
    random_topological_schedule,
)
from repro.evaluation import schedules as schedules_mod
from repro.evaluation._ckernel import load_ckernel
from repro.evaluation.schedules import successor_csr
from repro.graphs import TaskGraph, augment
from repro.graphs.generators import (
    augment_workflow,
    make_workflow,
    random_almost_sp_graph,
    random_sp_graph,
)
from repro.mappers import HeftMapper, sp_first_fit


def assert_topological(g, order_indices):
    tasks = g.tasks()
    pos = {tasks[i]: k for k, i in enumerate(order_indices)}
    assert len(pos) == g.n_tasks
    for u, v in g.edges():
        assert pos[u] < pos[v]


class TestBfs:
    def test_topological(self, fig2_graph):
        assert_topological(fig2_graph, bfs_schedule(fig2_graph))

    def test_level_order(self, fig1_graph):
        order = bfs_schedule(fig1_graph)
        tasks = fig1_graph.tasks()
        level = {t: i for i, lvl in enumerate(fig1_graph.bfs_levels()) for t in lvl}
        seen_levels = [level[tasks[i]] for i in order]
        assert seen_levels == sorted(seen_levels)


class TestRandom:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 40),
        k=st.integers(0, 20),
        seed=st.integers(0, 2**31),
    )
    def test_always_topological(self, n, k, seed):
        rng = np.random.default_rng(seed)
        g = random_almost_sp_graph(n, k, rng, augmented=False)
        order = random_topological_schedule(g, rng)
        assert_topological(g, order)

    def test_deterministic_for_seed(self, fig2_graph):
        a = random_topological_schedule(fig2_graph, np.random.default_rng(1))
        b = random_topological_schedule(fig2_graph, np.random.default_rng(1))
        assert a == b

    def test_varies_across_draws(self, rng):
        g = random_almost_sp_graph(30, 0, rng, augmented=False)
        orders = {
            tuple(random_topological_schedule(g, rng)) for _ in range(10)
        }
        assert len(orders) > 1


class TestSuite:
    def test_paper_suite_size(self, fig1_graph):
        suite = ScheduleSuite.paper(fig1_graph, np.random.default_rng(0))
        assert len(suite) == 101
        for order in suite.orders:
            assert_topological(fig1_graph, order)

    def test_custom_random_count(self, fig1_graph):
        suite = ScheduleSuite.paper(
            fig1_graph, np.random.default_rng(0), n_random=5
        )
        assert len(suite) == 6

    def test_bfs_only(self, fig1_graph):
        suite = ScheduleSuite.bfs_only(fig1_graph)
        assert len(suite) == 1
        assert suite.orders[0].tolist() == bfs_schedule(fig1_graph)


# ---------------------------------------------------------------------------
# exactness of the C walk and of the one-call reported makespan
# ---------------------------------------------------------------------------

HAVE_CKERNEL = load_ckernel() is not None
needs_c = pytest.mark.skipif(not HAVE_CKERNEL, reason="no C compiler available")

#: the walks under test: the Python walk always, the C walk when loaded
WALKS = ["python"] + (["c"] if HAVE_CKERNEL else [])
#: ``CostModel(use_ckernel=...)`` values: the Python kernel always, the C
#: kernel when loaded
MODES = [False] + ([True] if HAVE_CKERNEL else [])
MODE_IDS = ["python"] + (["ckernel"] if HAVE_CKERNEL else [])

BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64]


def walk_orders(walk, g, k, rng):
    """``k`` random orders of ``g`` from the named walk, as a (k, n) array."""
    ptr, dst, indeg = successor_csr(g)
    if walk == "c":
        return load_ckernel().random_orders(ptr, dst, indeg, k, rng)
    return np.array([random_topological_schedule(g, rng) for _ in range(k)],
                    dtype=np.int64).reshape(k, g.n_tasks)


def same_state(a, b):
    """Bit-generator states are equal (MT19937 carries an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def isolated_tasks(n):
    g = TaskGraph()
    for t in range(n):
        g.add_task(t)
    return g


def shape_graphs():
    sp_rng = np.random.default_rng(7)
    graphs = {
        "one_task": isolated_tasks(1),
        "only_sources": isolated_tasks(12),
        "sp_n2": random_sp_graph(2, sp_rng),
        "sp_n40": random_sp_graph(40, sp_rng),
        "almost_sp_n60": random_almost_sp_graph(60, 8, sp_rng),
    }
    for family in ("montage", "cycles", "epigenomics"):
        wf_rng = np.random.default_rng(3)
        g = make_workflow(family, 40, wf_rng)
        augment_workflow(g, wf_rng)
        graphs[family] = g
    return graphs


SHAPES = shape_graphs()


class TestWalkExactness:
    @needs_c
    @pytest.mark.parametrize("bitgen", BIT_GENERATORS,
                             ids=lambda b: b.__name__)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_c_walk_equals_python_walk(self, bitgen, shape):
        g = SHAPES[shape]
        rng_py = np.random.Generator(bitgen(2024))
        rng_c = np.random.Generator(bitgen(2024))
        want = walk_orders("python", g, 25, rng_py)
        got = walk_orders("c", g, 25, rng_c)
        assert np.array_equal(got, want)
        assert same_state(rng_c.bit_generator.state,
                          rng_py.bit_generator.state)
        # the streams stay in step after the walk
        assert rng_c.integers(2**62) == rng_py.integers(2**62)

    @pytest.mark.parametrize("walk", WALKS)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_orders_are_topological(self, walk, shape):
        g = SHAPES[shape]
        for order in walk_orders(walk, g, 10, np.random.default_rng(1)):
            assert_topological(g, order)

    @pytest.mark.parametrize("walk", WALKS)
    def test_one_ready_task_draws_nothing(self, walk, chain_graph):
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        orders = walk_orders(walk, chain_graph, 3, rng)
        assert orders.tolist() == [[0, 1, 2, 3, 4]] * 3
        assert same_state(rng.bit_generator.state, before)

    @pytest.mark.parametrize("walk", WALKS)
    def test_lemire_rejection_matches_numpy(self, walk):
        """PCG64(12345) advanced by 61701936 yields a 32-bit draw that
        ``integers(100)`` rejects: its leftover (x * 100 mod 2**32) is
        below 2**32 mod 100, so numpy draws again."""
        def fresh():
            return np.random.PCG64(12345).advance(61701936)

        x = fresh().random_raw() & 0xFFFFFFFF   # PCG64's first 32-bit draw
        assert (x * 100) & 0xFFFFFFFF < (1 << 32) % 100
        assert (x * 100) >> 32 == 93            # the pick without rejection
        numpy_rng = np.random.Generator(fresh())
        assert numpy_rng.integers(100) == 68
        walk_rng = np.random.Generator(fresh())
        # 100 sources: the first step draws integers(100), swaps the pick
        # with the last entry and pops it
        order = walk_orders(walk, isolated_tasks(100), 1, walk_rng)[0]
        assert order[0] == 68

    @pytest.mark.parametrize("walk", WALKS)
    def test_suite_rows_follow_the_walk(self, walk, monkeypatch):
        """``ScheduleSuite.paper``: row 0 is the BFS, the rest is one walk
        continuing on the caller's rng."""
        if walk == "python":
            monkeypatch.setattr(schedules_mod, "load_ckernel", lambda: None)
        g = SHAPES["sp_n40"]
        suite = ScheduleSuite.paper(g, np.random.default_rng(4), n_random=6)
        assert suite.orders.dtype == np.int64 and suite.orders.shape == (7, 40)
        assert suite.orders[0].tolist() == bfs_schedule(g)
        want = walk_orders("python", g, 6, np.random.default_rng(4))
        assert np.array_equal(suite.orders[1:], want)


class TestGuards:
    @needs_c
    def test_random_orders_rejects_bad_buffers(self):
        ck = load_ckernel()
        ptr, dst, indeg = successor_csr(SHAPES["sp_n40"])
        rng = np.random.default_rng(0)
        for bad in (
            (ptr.astype(np.int32), dst, indeg),
            (ptr[:-1], dst, indeg),
            (ptr, dst[::2], indeg),
            (ptr, dst, indeg.reshape(1, -1)),
            (ptr, dst + 100, indeg),             # successor out of range
            (ptr[::-1].copy(), dst, indeg),      # decreasing offsets
        ):
            with pytest.raises(ValueError):
                ck.random_orders(*bad, 2, rng)

    @needs_c
    def test_random_orders_rejects_a_cycle(self):
        ptr = np.array([0, 1, 2], dtype=np.int64)
        dst = np.array([1, 0], dtype=np.int64)
        indeg = np.array([1, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="cycle"):
            load_ckernel().random_orders(ptr, dst, indeg, 1,
                                         np.random.default_rng(0))

    @needs_c
    def test_span_min_rejects_bad_buffers(self, platform):
        model = CostModel(SHAPES["sp_n40"], platform, use_ckernel=True)
        orders = ScheduleSuite.paper(model.graph, np.random.default_rng(0),
                                     n_random=3).orders
        mapping = np.zeros(model.n, dtype=np.int64)
        ws = (model._ws_start, model._ws_finish, model._ws_avail)
        for bad_mapping, bad_orders in (
            (mapping.astype(np.int32), orders),
            (mapping[:-1], orders),
            (mapping, orders[:, :-1]),
            (mapping, orders.astype(np.float64)),
            (mapping, np.asfortranarray(orders)),
            (mapping, orders[::2]),
            (mapping + platform.n_devices, orders),   # device out of range
            (mapping - 1, orders),
            (mapping, orders + model.n),              # task out of range
        ):
            with pytest.raises(ValueError):
                model._ck.span_min(model._ck_ctx, bad_mapping, bad_orders, *ws)


class TestReportedMakespan:
    @staticmethod
    def loop_minimum(model, mapping, orders):
        """The per-order loop the one-call path replaces."""
        if not model.is_feasible(mapping):
            return INFEASIBLE
        return min(model.simulate(mapping, order, check_feasibility=False)
                   for order in orders)

    @pytest.fixture(scope="class")
    def case(self):
        g = random_sp_graph(60, np.random.default_rng(11))
        augment(g, np.random.default_rng(12))
        return g, ScheduleSuite.paper(g, np.random.default_rng(13))

    def mappings(self, g, platform):
        ev = MappingEvaluator(g, platform, suite=ScheduleSuite.bfs_only(g))
        fpga_dev = next(iter(platform.area_capacities()))
        return {
            "cpu": ev.cpu_mapping(),
            "heft": HeftMapper().map(ev, rng=np.random.default_rng(0)).mapping,
            "sp_first_fit": sp_first_fit().map(
                ev, rng=np.random.default_rng(0)).mapping,
            "all_fpga": np.full(ev.n_tasks, fpga_dev, dtype=np.int64),
        }

    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    def test_one_call_equals_loop_minimum(self, case, platform, use_ckernel):
        g, suite = case
        model = CostModel(g, platform, use_ckernel=use_ckernel)
        mappings = self.mappings(g, platform)
        assert not model.is_feasible(mappings["all_fpga"])
        for name, mapping in mappings.items():
            want = self.loop_minimum(model, mapping, suite.orders)
            for form in (mapping, list(mapping)):
                assert model.simulate_min(form, suite.orders) == want, name
        assert model.simulate_min(mappings["all_fpga"], suite.orders) \
            == INFEASIBLE

    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    def test_ties_at_the_minimum(self, case, platform, use_ckernel):
        g, suite = case
        model = CostModel(g, platform, use_ckernel=use_ckernel)
        mapping = self.mappings(g, platform)["heft"]
        assert model.is_feasible(mapping)
        per_order = [model.simulate(mapping, o) for o in suite.orders]
        best = int(np.argmin(per_order))
        # the best order three times, around and after worse ones
        rows = [best, 0, best, 1, best, 2]
        orders = np.ascontiguousarray(suite.orders[rows])
        assert model.simulate_min(mapping, orders) == per_order[best]
        # worst first: every schedule beats or ties the bound it gets
        worst_first = np.argsort(per_order, kind="stable")[::-1]
        orders = np.ascontiguousarray(suite.orders[worst_first])
        assert model.simulate_min(mapping, orders) == per_order[best]
        # a chain has one topological order: every row ties
        chain = TaskGraph.from_edges([(t, t + 1) for t in range(9)])
        augment(chain, np.random.default_rng(5))
        chain_model = CostModel(chain, platform, use_ckernel=use_ckernel)
        chain_suite = ScheduleSuite.paper(chain, np.random.default_rng(5),
                                          n_random=8)
        assert len(np.unique(chain_suite.orders, axis=0)) == 1
        cpu = np.zeros(10, dtype=np.int64)
        assert chain_model.simulate_min(cpu, chain_suite.orders) \
            == chain_model.simulate(cpu)

    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    def test_evaluator_counts_k_simulations(self, case, platform,
                                            use_ckernel):
        g, suite = case
        ev = MappingEvaluator(g, platform, suite=suite)
        ev.model = CostModel(g, platform, use_ckernel=use_ckernel)
        mapping = ev.cpu_mapping()
        before = ev.model.n_simulations
        ms = ev.reported_makespan(mapping)
        assert ev.model.n_simulations - before == len(suite) == 101
        assert ms == self.loop_minimum(ev.model, mapping, suite.orders)
        infeasible = self.mappings(g, platform)["all_fpga"]
        before = ev.model.n_simulations
        assert ev.reported_makespan(infeasible) == INFEASIBLE
        assert ev.model.n_simulations == before
