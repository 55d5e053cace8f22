"""Tests for the model-based makespan evaluation (the paper's cost function).

Includes hand-computed micro-scenarios exercising every mechanism: device
slot contention, inter-device transfers, FPGA streaming overlap, host I/O
for sources/sinks and area feasibility — plus hypothesis-checked bounds.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import INFEASIBLE, CostModel, FlatModel
from repro.graphs import DEFAULT_DATA_MB, TaskGraph
from repro.graphs.generators import (
    WORKFLOW_FAMILIES,
    fig2_graph,
    make_workflow,
    random_almost_sp_graph,
    random_forkjoin_graph,
    random_layered_graph,
    random_pipeline_graph,
    random_sp_graph,
)
from repro.platform import (
    Platform,
    cpu,
    cpu_only_platform,
    dual_fpga_platform,
    fpga,
    gpu,
    paper_platform,
    with_topology,
)
from repro.platform.taskmodel import execution_time
from tests.conftest import quad_platform


def simple_platform(*, cpu_slots=1):
    """1-lane CPU + GPU + FPGA with easy round numbers for hand computation."""
    devices = [
        cpu("c", lane_gops=1.0, lanes=1, slots=cpu_slots, setup_s=0.0),
        gpu("g", lane_gops=10.0, lanes=1, setup_s=0.0),
        fpga("f", stream_gops=1.0, area_capacity=10.0, setup_s=0.0),
    ]
    bw = [[np.inf, 1.0, 1.0], [1.0, np.inf, 1.0], [1.0, 1.0, np.inf]]
    lat = [[0.0] * 3 for _ in range(3)]
    return Platform(devices, bw, lat)


def two_task_chain(*, data_mb=1000.0, complexity=1.0, streamability=1.0):
    g = TaskGraph()
    g.add_task(0, complexity=complexity, streamability=streamability, area=1.0)
    g.add_task(1, complexity=complexity, streamability=streamability, area=1.0)
    g.add_edge(0, 1, data_mb=data_mb)
    return g


class TestHandComputed:
    """All numbers below assume OPS_PER_MB = 1e6, i.e. 1000 MB -> 1 Gop."""

    def test_single_task_on_cpu(self):
        g = TaskGraph()
        g.add_task(0, complexity=1.0)
        # no edges: input = 100 MB default -> 0.1 Gop at 1 Gop/s = 0.1 s
        model = CostModel(g, simple_platform())
        assert model.simulate([0]) == pytest.approx(0.1)

    def test_chain_all_cpu_no_transfers(self):
        g = two_task_chain(data_mb=1000.0)
        model = CostModel(g, simple_platform())
        # t0: 100 MB in -> 0.1 Gop -> 0.1 s ; t1: 1000 MB in -> 1 Gop -> 1 s
        # sink return: min(1000, 100) = 100 MB but same device -> free
        assert model.simulate([0, 0]) == pytest.approx(1.1)

    def test_chain_offload_consumer_to_gpu_pays_transfer(self):
        g = two_task_chain(data_mb=1000.0)
        model = CostModel(g, simple_platform())
        # t1 on GPU: 1 Gop at 10 Gop/s = 0.1 s; transfer 1000 MB at 1 GB/s
        # = 1 s; sink return 100 MB at 1 GB/s = 0.1 s
        expected = 0.1 + 1.0 + 0.1 + 0.1
        assert model.simulate([0, 1]) == pytest.approx(expected)

    def test_source_on_gpu_pays_initial_transfer(self):
        g = two_task_chain(data_mb=1000.0)
        model = CostModel(g, simple_platform())
        # t0 on GPU: initial 100 MB -> 0.1 s, exec 0.01 s;
        # transfer 1000 MB back to CPU = 1 s; t1 on CPU 1 s.
        expected = 0.1 + 0.01 + 1.0 + 1.0
        assert model.simulate([1, 0]) == pytest.approx(expected)

    def test_independent_tasks_serialize_on_one_slot_cpu(self):
        g = TaskGraph()
        g.add_task(0, complexity=1.0)
        g.add_task(1, complexity=1.0)
        model = CostModel(g, simple_platform(cpu_slots=1))
        # two 0.1 s tasks, one slot -> 0.2 s
        assert model.simulate([0, 0]) == pytest.approx(0.2)

    def test_independent_tasks_overlap_on_two_slot_cpu(self):
        g = TaskGraph()
        g.add_task(0, complexity=1.0)
        g.add_task(1, complexity=1.0)
        model = CostModel(g, simple_platform(cpu_slots=2))
        assert model.simulate([0, 0]) == pytest.approx(0.1)

    def test_fpga_tasks_do_not_serialize(self):
        g = TaskGraph()
        g.add_task(0, complexity=1.0, streamability=1.0, area=1.0)
        g.add_task(1, complexity=1.0, streamability=1.0, area=1.0)
        model = CostModel(g, simple_platform())
        # each: initial 0.1 s transfer + 0.1 Gop at 1 Gop/s + return 0.1 s
        # concurrent (spatial) -> same as a single one
        assert model.simulate([2, 2]) == pytest.approx(0.3)

    def test_fpga_streaming_chain_overlaps(self):
        g = two_task_chain(data_mb=1000.0, streamability=4.0)
        model = CostModel(g, simple_platform())
        # on FPGA: throughput = 1 * 4 = 4 Gop/s
        # t0: input 100 MB -> 0.1 s in; exec 0.1/4*... work 0.1 Gop -> 0.025 s
        # t1 streams: starts at start0 + fill0 (0.025/4 = 0.00625); exec 0.25 s
        # drain: >= finish0 ; return transfer min(1000,100)=100 MB -> 0.1 s
        start0 = 0.1
        exec0 = 0.1 / 4.0
        fill0 = exec0 / 4.0
        exec1 = 1.0 / 4.0
        finish1 = max(start0 + fill0 + exec1, start0 + exec0)
        expected = finish1 + 0.1
        assert model.simulate([2, 2]) == pytest.approx(expected)

    def test_streaming_beats_sequential_on_chain(self):
        g = TaskGraph()
        for i in range(5):
            g.add_task(i, complexity=5.0, streamability=8.0, area=1.0)
        for i in range(4):
            g.add_edge(i, i + 1, data_mb=100.0)
        plat = simple_platform()
        model = CostModel(g, plat)
        all_fpga = model.simulate([2] * 5)
        all_cpu = model.simulate([0] * 5)
        assert all_fpga < all_cpu


class TestFeasibility:
    def test_area_limit(self):
        g = TaskGraph()
        for i in range(5):
            g.add_task(i, complexity=1.0, area=3.0)
        model = CostModel(g, simple_platform())  # capacity 10
        assert model.is_feasible([2, 2, 2, 0, 0])
        assert not model.is_feasible([2, 2, 2, 2, 0])
        assert model.simulate([2, 2, 2, 2, 0]) == INFEASIBLE

    def test_area_usage(self):
        g = TaskGraph()
        g.add_task(0, area=2.0)
        g.add_task(1, area=3.0)
        model = CostModel(g, simple_platform())
        assert model.area_usage([2, 2]) == {2: 5.0}
        assert model.area_usage([0, 2]) == {2: 3.0}


class TestBounds:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(3, 30),
        k=st.integers(0, 15),
        seed=st.integers(0, 2**31),
    )
    def test_lower_and_upper_bounds(self, n, k, seed):
        rng = np.random.default_rng(seed)
        g = random_almost_sp_graph(n, k, rng)
        model = CostModel(g, paper_platform())
        mapping = rng.integers(0, 3, size=n)
        if not model.is_feasible(mapping):
            mapping = np.zeros(n, dtype=int)
        ms = model.simulate(mapping)
        lb = model.critical_path_bound(mapping)
        ub = model.serial_bound(mapping)
        assert lb <= ms * (1 + 1e-9)
        assert ms <= ub * (1 + 1e-9)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(3, 25), seed=st.integers(0, 2**31))
    def test_any_topological_order_gives_same_cpu_makespan_single_slot(
        self, n, seed
    ):
        """With one slot and one device, every order gives the serial sum."""
        rng = np.random.default_rng(seed)
        g = random_almost_sp_graph(n, 3, rng)
        plat = Platform(
            [cpu("c", lane_gops=1.0, lanes=1, slots=1, setup_s=0.0)],
            [[np.inf]],
            [[0.0]],
        )
        model = CostModel(g, plat)
        from repro.evaluation import random_topological_schedule

        mapping = [0] * n
        base = model.simulate(mapping)
        for _ in range(3):
            order = random_topological_schedule(g, rng)
            assert model.simulate(mapping, order) == pytest.approx(base)


class TestBookkeeping:
    def test_simulation_counter(self, small_evaluator):
        model = small_evaluator.model
        before = model.n_simulations
        model.simulate([0] * model.n)
        assert model.n_simulations == before + 1

    def test_infeasible_not_counted_as_simulation(self):
        g = TaskGraph()
        g.add_task(0, area=100.0)
        model = CostModel(g, simple_platform())
        before = model.n_simulations
        assert model.simulate([2]) == INFEASIBLE
        assert model.n_simulations == before


# ---------------------------------------------------------------------------
# the table set: every entry equals its scalar definition, bit for bit
# ---------------------------------------------------------------------------
GRAPHS = {
    "sp": lambda: random_sp_graph(40, np.random.default_rng(1)),
    "almost-sp": lambda: random_almost_sp_graph(
        30, 6, np.random.default_rng(2)),
    "layered": lambda: random_layered_graph(5, 4, np.random.default_rng(3)),
    "forkjoin": lambda: random_forkjoin_graph(4, 3, np.random.default_rng(4)),
    "pipeline": lambda: random_pipeline_graph(
        3, 4, np.random.default_rng(5), cross_prob=0.3),
    # unaugmented: default task parameters, zero areas
    "fig2": fig2_graph,
    **{f"wf-{family}": (lambda family=family: make_workflow(
        family, 20, np.random.default_rng(6))) for family in WORKFLOW_FAMILIES},
}

PLATFORMS = {
    "paper": paper_platform,
    "cpu-only": cpu_only_platform,
    "dual-fpga": dual_fpga_platform,
    **{name: (lambda name=name: with_topology(paper_platform(), name))
       for name in ("ring", "mesh", "star", "numa")},
    # four devices: routing changes the effective matrices
    "quad-numa": lambda: with_topology(quad_platform(), "numa"),
}


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestTableSet:
    @pytest.mark.parametrize("graph", list(GRAPHS))
    def test_tables_equal_scalar_definitions(self, graph):
        g = GRAPHS[graph]()
        tasks = g.tasks()
        index = {t: i for i, t in enumerate(tasks)}
        for pname, make_platform in PLATFORMS.items():
            plat = make_platform()
            flat = FlatModel(g, plat)
            m, host = plat.n_devices, plat.host_index
            lat, bw = plat.latency_s, plat.bandwidth_gbps
            exec_, fill, initial, final = [], [], [], []
            src, edge_mb, trans = [], [], []
            ptr = [0]
            for t in tasks:
                params = g.params(t)
                row = [execution_time(params, g.input_mb(t), dev)
                       for dev in plat.devices]
                exec_.append(row)
                fill.append([x / max(params.streamability, 1.0) for x in row])
                source = g.in_degree(t) == 0
                sink = g.out_degree(t) == 0
                inp = g.input_mb(t)
                out = min(inp, DEFAULT_DATA_MB)
                initial.append([plat.transfer_time(host, d, inp) if source
                                else 0.0 for d in range(m)])
                final.append([plat.transfer_time(d, host, out) if sink
                              else 0.0 for d in range(m)])
                for p in g.predecessors(t):
                    mb = g.data_mb(p, t)
                    src.append(index[p])
                    edge_mb.append(mb)
                    # the diagonal too: the walk reads it for same-device
                    # edges that do not stream
                    trans.append([lat[du, dv] + mb / 1000.0 / bw[du, dv]
                                  for du in range(m) for dv in range(m)])
                ptr.append(len(src))
            tag = f"{graph}/{pname}"
            assert _bits(flat.exec) == _bits(exec_), tag
            assert _bits(flat.fill) == _bits(fill), tag
            assert _bits(flat.initial) == _bits(initial), tag
            assert _bits(flat.final) == _bits(final), tag
            assert flat.pred_ptr.tolist() == ptr, tag
            assert flat.pred_src.tolist() == src, tag
            assert _bits(flat.edge_mb) == _bits(edge_mb), tag
            assert _bits(flat.pred_trans) == _bits(
                np.reshape(trans, (len(src), m * m))), tag
            assert _bits(flat.input_mb) == _bits(
                [g.input_mb(t) if g.in_degree(t) == 0 else 0.0
                 for t in tasks]), tag
            assert _bits(flat.sink_mb) == _bits(
                [min(g.input_mb(t), DEFAULT_DATA_MB)
                 if g.out_degree(t) == 0 else 0.0 for t in tasks]), tag
            assert _bits(flat.area) == _bits(
                [g.params(t).area for t in tasks]), tag

    @pytest.mark.parametrize("graph", list(GRAPHS))
    def test_walk_lists_are_the_tables(self, graph):
        model = CostModel(GRAPHS[graph](), paper_platform())
        flat, m = model.flat, model.m
        assert model.exec_table is flat.exec
        assert model.exec_rows == flat.exec.tolist()
        assert model.fill_rows == flat.fill.tolist()
        assert model.initial_rows == flat.initial.tolist()
        assert model.final_rows == flat.final.tolist()
        ptr, src = flat.pred_ptr.tolist(), flat.pred_src.tolist()
        rows = flat.pred_trans.reshape(-1, m, m).tolist()
        assert model.trans_rows == rows
        assert model.preds == [
            [(src[e], rows[e]) for e in range(ptr[i], ptr[i + 1])]
            for i in range(model.n)
        ]

    @pytest.mark.parametrize("graph", list(GRAPHS))
    def test_successor_csr_is_the_engines_order(self, graph):
        """Successors in the order the runtime engine visited them before
        the table set existed: derived from the predecessor lists, in
        ascending successor index."""
        model = CostModel(GRAPHS[graph](), paper_platform())
        flat = model.flat
        succs = [[] for _ in range(model.n)]
        for s in range(model.n):
            for p, _row in model.preds[s]:
                succs[p].append(s)
        ptr = flat.succ_ptr.tolist()
        for i in range(model.n):
            edges = flat.succ_edge[ptr[i]:ptr[i + 1]]
            assert flat.succ_dst[ptr[i]:ptr[i + 1]].tolist() == succs[i]
            # each successor carries the id of its edge
            assert (flat.pred_src[edges] == i).all()
            for e, s in zip(edges.tolist(), succs[i]):
                assert flat.pred_ptr[s] <= e < flat.pred_ptr[s + 1]

    @pytest.mark.parametrize("protocol", [None, 4, 5])
    def test_tables_are_read_only(self, protocol):
        g = random_sp_graph(20, np.random.default_rng(7))
        model = CostModel(g, paper_platform())
        mapping = np.random.default_rng(8).integers(0, model.m, model.n)
        want = model.simulate(mapping)
        if protocol is not None:
            model = pickle.loads(pickle.dumps(model, protocol=protocol))
            assert model.simulate(mapping) == want
        tables = [getattr(model.flat, name) for name in FlatModel.__slots__]
        tables = [t for t in tables if isinstance(t, np.ndarray)]
        assert len(tables) == 17
        for table in tables + [model.exec_table, model.area]:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0
