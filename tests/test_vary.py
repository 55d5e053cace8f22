"""NSGA-II variation on the C kernel (``repro_vary``) against the numpy
reference (:func:`repro.mappers.genetic.vary_reference`): the same
children and the same bit-generator state afterwards, for every draw the
crossover, mutation and area repair make, including the guard-band
hand-backs to numpy; and whole NSGA-II runs on both kernels."""

import numpy as np
import pytest

from repro import obs
from repro.evaluation import CostModel, MappingEvaluator
from repro.evaluation._ckernel import CKernel, load_ckernel
from repro.graphs import TaskGraph
from repro.graphs.generators import random_sp_graph
from repro.mappers import NsgaIIMapper
from repro.mappers.genetic import (
    repair_area,
    repair_area_reference,
    vary,
    vary_reference,
)
from repro.mappers.multiobjective import ParetoNsgaIIMapper
from repro.platform import cpu_only_platform, dual_fpga_platform, paper_platform
from tests.test_schedules import BIT_GENERATORS, same_state

HAVE_CKERNEL = load_ckernel() is not None
needs_c = pytest.mark.skipif(not HAVE_CKERNEL, reason="no C compiler available")

#: (crossover rate, mutation rate); None is the default rate 1/n
RATES = [(0.9, None), (0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0),
         (0.5, 0.3)]
FPGA = 2  # paper_platform's area device


def chain(n, area):
    """An ``n``-task chain, every task of ``area``."""
    g = TaskGraph()
    for t in range(n):
        g.add_task(t, complexity=5.0, streamability=10.0, area=area)
    for t in range(n - 1):
        g.add_edge(t, t + 1)
    return g


def evaluator(g, plat, use_ckernel=None):
    ev = MappingEvaluator(g, plat, rng=np.random.default_rng(0),
                          n_random_schedules=2)
    ev.model = CostModel(g, plat, use_ckernel=use_ckernel)
    return ev


def twin_rngs(bitgen, seed, buffered):
    """Two generators in the same state; ``buffered`` draws one scalar
    ``integers`` first, which leaves a 32-bit half in PCG64/SFC64."""
    rngs = [np.random.Generator(bitgen(seed)) for _ in range(2)]
    if buffered:
        for rng in rngs:
            rng.integers(0, 5)
    return rngs


def assert_same(ev, pop, bitgen=np.random.PCG64, seed=1, rates=(0.9, None),
                *, buffered=True, repair_only=False):
    """Native and numpy variation of ``pop`` agree; returns the children.
    The native side must run on the C kernel (``kernel.calls.c_vary``)."""
    fast, ref = twin_rngs(bitgen, seed, buffered)
    a, b = pop.copy(), pop.copy()
    with obs.observing() as (_tracer, registry):
        if repair_only:
            repair_area(a, ev, fast)
        else:
            vary(a, ev, fast, *rates)
    assert registry.snapshot().get("kernel.calls.c_vary") == 1
    if repair_only:
        repair_area_reference(b, ev, ref)
    else:
        vary_reference(b, ev, ref, *rates)
    np.testing.assert_array_equal(a, b)
    assert same_state(fast.bit_generator.state, ref.bit_generator.state)
    return a


@pytest.fixture()
def hand_backs(monkeypatch):
    """Counts the guard-band hand-backs of every native call."""
    counts = {"usage": 0, "walk": 0}
    native = CKernel.vary

    def spy(self, tables, pop, rng, cr, mr, recount_usage, finish_row,
            **kw):
        def usage(*args):
            counts["usage"] += 1
            return recount_usage(*args)

        def walk(*args):
            counts["walk"] += 1
            return finish_row(*args)

        native(self, tables, pop, rng, cr, mr, usage, walk, **kw)

    monkeypatch.setattr(CKernel, "vary", spy)
    return counts


@needs_c
class TestDraws:
    @pytest.mark.parametrize("bitgen", BIT_GENERATORS,
                             ids=lambda b: b.__name__)
    @pytest.mark.parametrize("n, pop_size", [(1, 4), (2, 5), (2, 1), (3, 7),
                                             (17, 10), (40, 9)])
    def test_shapes_and_rates(self, bitgen, n, pop_size):
        ev = evaluator(chain(n, 30.0), paper_platform())
        for seed in range(4):
            pop = np.random.default_rng(seed).integers(
                0, 3, size=(pop_size, n), dtype=np.int64)
            for rates in RATES:
                for buffered in (False, True):
                    assert_same(ev, pop, bitgen, seed, rates,
                                buffered=buffered)

    def test_one_device(self):
        """m = 1: every mutation draws integers(0, 1), which draws
        nothing, and there is no area device to repair."""
        ev = evaluator(random_sp_graph(12, np.random.default_rng(0)),
                       cpu_only_platform())
        pop = np.zeros((6, 12), dtype=np.int64)
        for rates in RATES:
            assert_same(ev, pop, rates=rates)

    def test_two_area_devices(self):
        """Repair walks the devices in area_capacities() order."""
        ev = evaluator(chain(20, 15.0), dual_fpga_platform())
        for seed in range(6):
            pop = np.random.default_rng(seed).integers(
                0, 3, size=(11, 20), dtype=np.int64)
            out = assert_same(ev, pop, seed=seed, rates=(0.5, 0.2))
            assert all(ev.is_feasible(row) for row in out)

    def test_initial_population_repair(self):
        ev = evaluator(chain(25, 30.0), paper_platform())
        pop = np.random.default_rng(3).integers(0, 3, size=(9, 25),
                                                dtype=np.int64)
        for bitgen in BIT_GENERATORS:
            assert_same(ev, pop, bitgen, repair_only=True)


@needs_c
class TestRepair:
    def test_every_row_over_capacity(self):
        ev = evaluator(chain(12, 30.0), paper_platform())
        pop = np.full((7, 12), FPGA, dtype=np.int64)
        out = assert_same(ev, pop, repair_only=True)
        # 30-unit tasks on a 100-unit FPGA: three stay on it
        assert ((out == FPGA).sum(axis=1) == 3).all()

    def test_row_at_exact_capacity(self, hand_backs):
        """Five 20-unit tasks fill the FPGA exactly: the usage lands on
        the threshold, inside the guard band, and numpy decides."""
        ev = evaluator(chain(10, 20.0), paper_platform())
        pop = np.zeros((3, 10), dtype=np.int64)
        pop[:, :5] = FPGA
        pop[2, :7] = FPGA
        out = assert_same(ev, pop, repair_only=True)
        assert hand_backs["usage"] >= 2
        np.testing.assert_array_equal(out[:2], pop[:2])
        assert (out[2] == FPGA).sum() == 5

    def test_sum_forced_into_the_guard_band(self, hand_backs):
        """Ten tasks of 0.1 sum to 1.0 pairwise but to 1 - 2**-53 in gene
        order; with that capacity the two sums land on either side of it,
        so only numpy's recount can decide."""
        capacity = sum([0.1] * 10)
        assert capacity < 1.0 == float(np.full(10, 0.1).sum())
        ev = evaluator(chain(16, 0.1), paper_platform(fpga_area=capacity))
        pop = np.full((5, 16), FPGA, dtype=np.int64)
        pop[1, 10:] = 0
        pop[3, 11:] = 0
        for seed in range(5):
            assert_same(ev, pop, seed=seed, repair_only=True)
            assert_same(ev, pop, seed=seed, rates=(0.9, 0.1))
        assert hand_backs["usage"] > 0 and hand_backs["walk"] > 0


class TestDispatch:
    def test_pure_python_model_runs_the_reference(self):
        ev = evaluator(chain(8, 30.0), paper_platform(), use_ckernel=False)
        assert ev.model.repair_tables() is None
        pop = np.full((4, 8), FPGA, dtype=np.int64)
        with obs.observing() as (_tracer, registry):
            vary(pop, ev, np.random.default_rng(0), 0.9, None)
        assert registry.snapshot().get("kernel.calls.py_vary") == 1

    @needs_c
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_other_layouts_run_the_reference(self, dtype):
        """A non-int64 or non-contiguous population takes the numpy path
        and still gets the reference's draws."""
        ev = evaluator(chain(8, 30.0), paper_platform())
        base = np.full((6, 16), FPGA, dtype=dtype)
        pop, ref = base[:, ::2], base.copy()[:, ::2]
        fast_rng, ref_rng = twin_rngs(np.random.PCG64, 4, False)
        with obs.observing() as (_tracer, registry):
            vary(pop, ev, fast_rng, 0.9, None)
        assert registry.snapshot().get("kernel.calls.py_vary") == 1
        vary_reference(ref, ev, ref_rng, 0.9, None)
        np.testing.assert_array_equal(pop, ref)
        assert same_state(fast_rng.bit_generator.state,
                          ref_rng.bit_generator.state)

    @needs_c
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_infinite_area_runs_the_reference(self):
        """numpy's matmul reads 0 * inf = nan; the kernel would not."""
        g = chain(6, 30.0)
        g.add_task(6, area=float("inf"))
        g.add_edge(5, 6)
        ev = evaluator(g, paper_platform())
        assert ev.model.repair_tables() is None
        pop = np.full((4, 7), FPGA, dtype=np.int64)
        with obs.observing() as (_tracer, registry):
            vary(pop, ev, np.random.default_rng(0), 0.9, None)
        assert registry.snapshot().get("kernel.calls.py_vary") == 1

    @needs_c
    def test_repair_tables_are_checked(self):
        kern = load_ckernel()
        area = np.ones(4)
        dev, cap, band = (np.array([2]), np.array([1.0]), np.array([1e-6]))
        with pytest.raises(ValueError, match="area_dev"):
            kern.make_repair(area, dev, cap, band, 0, 2)
        with pytest.raises(ValueError, match="host"):
            kern.make_repair(area, dev, cap, band, 3, 3)
        with pytest.raises(ValueError, match="area"):
            kern.make_repair(area.astype(np.float32), dev, cap, band, 0, 3)
        tables = kern.make_repair(area, dev, cap, band, 0, 3)
        with pytest.raises(ValueError, match="genes"):
            kern.vary(tables, np.zeros((2, 5), dtype=np.int64),
                      np.random.default_rng(0), 0.9, 0.2, None, None)

    def test_counters_do_not_change_the_run(self):
        ev = evaluator(chain(12, 30.0), paper_platform())
        mapper = NsgaIIMapper(generations=5, population_size=8)
        plain = mapper.map(ev, rng=np.random.default_rng(2)).mapping
        with obs.observing() as (_tracer, registry):
            traced = mapper.map(ev, rng=np.random.default_rng(2)).mapping
        np.testing.assert_array_equal(plain, traced)
        # initial_population's repair plus one vary per generation
        path = "c_vary" if HAVE_CKERNEL else "py_vary"
        assert registry.snapshot()[f"kernel.calls.{path}"] == 6


@needs_c
@pytest.mark.parametrize("mapper", [
    lambda: NsgaIIMapper(generations=25, population_size=15),
    lambda: ParetoNsgaIIMapper(generations=10, population_size=11),
], ids=["NSGAII", "ParetoNSGAII"])
@pytest.mark.parametrize("graph, fpga_area", [
    (random_sp_graph(30, np.random.default_rng(4)), 100.0),
    (random_sp_graph(30, np.random.default_rng(5)), 8.0),
], ids=["sp30", "sp30-squeezed"])
def test_whole_runs_agree_on_both_kernels(mapper, graph, fpga_area):
    """Mapping, history and final rng state of a whole run are the same
    with native and numpy variation."""
    plat = paper_platform(fpga_area=fpga_area)
    runs = []
    for use_ckernel in (True, False):
        m = mapper()
        rng = np.random.default_rng(9)
        res = m.map(evaluator(graph, plat, use_ckernel), rng=rng)
        runs.append((res, m.history_, rng.bit_generator.state))
    (fast, fast_hist, fast_state), (ref, ref_hist, ref_state) = runs
    np.testing.assert_array_equal(fast.mapping, ref.mapping)
    assert fast.makespan == ref.makespan
    assert fast_hist == ref_hist
    assert same_state(fast_state, ref_state)
