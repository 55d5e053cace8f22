"""Tests for the energy model and the multi-objective mappers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import EnergyModel, INFEASIBLE
from repro.graphs import TaskGraph
from repro.graphs.generators import random_sp_graph
from repro.mappers import (
    EnergyAwareDecompositionMapper,
    ParetoNsgaIIMapper,
    sp_first_fit,
)
from repro.mappers.multiobjective import (
    crowding_distance,
    dominates,
    nondominated_sort,
)
from repro.platform import paper_platform
from tests.conftest import make_evaluator


class TestEnergyModel:
    def test_positive_for_any_feasible_mapping(self, platform, rng):
        g = random_sp_graph(15, rng)
        ev = make_evaluator(g, platform, n_random=5)
        em = EnergyModel(ev.model)
        for _ in range(5):
            m = rng.integers(0, 3, size=15)
            if ev.is_feasible(m):
                assert em.energy(m) > 0

    def test_infeasible(self, platform):
        g = TaskGraph()
        g.add_task(0, complexity=1.0, area=1e6)
        ev = make_evaluator(g, platform)
        em = EnergyModel(ev.model)
        assert em.energy([2]) == INFEASIBLE

    def test_fpga_saves_compute_energy(self, platform):
        """A long-running sequential task burns less on the 18 W FPGA."""
        g = TaskGraph()
        g.add_task(0, complexity=50.0, parallelizability=0.0,
                   streamability=10.0, area=5.0)
        ev = make_evaluator(g, platform)
        em = EnergyModel(ev.model)
        assert em.energy([2]) < em.energy([0])

    def test_transfer_energy_isolated(self):
        """On a zero-power platform, energy == transferred MB * J/MB exactly."""
        from repro.evaluation.energy import JOULES_PER_MB
        from repro.platform import Platform, cpu, gpu

        devices = [
            cpu("c", watts_active=0.0, watts_idle=0.0),
            gpu("g", watts_active=0.0, watts_idle=0.0),
        ]
        plat = Platform(
            devices,
            [[np.inf, 10.0], [10.0, np.inf]],
            [[0.0, 0.0], [0.0, 0.0]],
        )
        g = TaskGraph()
        g.add_task(0, complexity=1.0)
        g.add_task(1, complexity=1.0)
        g.add_edge(0, 1, data_mb=500.0)
        ev = make_evaluator(g, plat)
        em = EnergyModel(ev.model)
        # co-located on host: no transfers at all
        assert em.energy([0, 0]) == pytest.approx(0.0)
        # split: the 500 MB edge crosses PCIe
        assert em.energy([0, 1]) == pytest.approx(
            (500.0 + 100.0) * JOULES_PER_MB  # edge + sink return (capped 100)
        )
        # source offloaded: initial 100 MB in + 500 MB edge back
        assert em.energy([1, 0]) == pytest.approx(600.0 * JOULES_PER_MB)

    def test_makespan_reuse_matches_fresh(self, platform, rng):
        g = random_sp_graph(12, rng)
        ev = make_evaluator(g, platform, n_random=5)
        em = EnergyModel(ev.model)
        m = np.zeros(12, dtype=int)
        ms = ev.construction_makespan(m)
        assert em.energy(m, makespan=ms) == pytest.approx(em.energy(m))


class TestParetoPrimitives:
    def test_dominates(self):
        assert dominates([1, 1], [2, 2])
        assert dominates([1, 2], [2, 2])
        assert not dominates([2, 2], [2, 2])
        assert not dominates([1, 3], [2, 2])

    def test_nondominated_sort_fronts(self):
        objs = np.array([[1, 4], [2, 3], [3, 3], [4, 1], [4, 4]])
        fronts = nondominated_sort(objs)
        assert set(fronts[0]) == {0, 1, 3}
        assert set(fronts[1]) == {2}
        assert set(fronts[2]) == {4}

    def test_sort_partitions_everything(self):
        rng = np.random.default_rng(0)
        objs = rng.random((30, 2))
        fronts = nondominated_sort(objs)
        flat = [i for f in fronts for i in f]
        assert sorted(flat) == list(range(30))

    def test_front_zero_is_nondominated(self):
        rng = np.random.default_rng(1)
        objs = rng.random((25, 2))
        front0 = nondominated_sort(objs)[0]
        for i in front0:
            assert not any(
                dominates(objs[j], objs[i]) for j in range(25) if j != i
            )

    def test_crowding_extremes_infinite(self):
        objs = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        dist = crowding_distance(objs)
        assert np.isinf(dist[0]) and np.isinf(dist[3])
        assert np.isfinite(dist[1]) and np.isfinite(dist[2])

    def test_crowding_tiny_front(self):
        assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0]]))))


class TestParetoMapper:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            ParetoNsgaIIMapper(generations=0)

    def test_front_is_nondominated_and_sorted(self, platform):
        g = random_sp_graph(15, np.random.default_rng(2))
        ev = make_evaluator(g, platform, n_random=5)
        mapper = ParetoNsgaIIMapper(generations=15, population_size=24)
        res = mapper.map(ev, rng=np.random.default_rng(3))
        front = mapper.last_front_
        assert len(front) >= 1
        ms = [p[1] for p in front]
        en = [p[2] for p in front]
        assert ms == sorted(ms)
        # sorted by makespan => energies must be non-increasing on a front
        assert all(a >= b - 1e-9 for a, b in zip(en, en[1:]))
        assert res.stats["front_size"] >= 1

    def test_front_mappings_feasible(self, platform):
        g = random_sp_graph(12, np.random.default_rng(4))
        ev = make_evaluator(g, platform, n_random=5)
        mapper = ParetoNsgaIIMapper(generations=10, population_size=16)
        mapper.map(ev, rng=np.random.default_rng(5))
        for mapping, _, _ in mapper.last_front_:
            assert ev.is_feasible(mapping)

    def test_deterministic(self, platform):
        g = random_sp_graph(10, np.random.default_rng(6))
        ev = make_evaluator(g, platform, n_random=5)
        m = ParetoNsgaIIMapper(generations=8, population_size=16)
        a = m.map(ev, rng=np.random.default_rng(7)).mapping
        b = m.map(ev, rng=np.random.default_rng(7)).mapping
        assert np.array_equal(a, b)


class TestEnergyAwareDecomposition:
    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            EnergyAwareDecompositionMapper(alpha=1.5)

    def test_alpha_one_equals_plain_mapper(self, platform):
        g = random_sp_graph(18, np.random.default_rng(8))
        ev = make_evaluator(g, platform, n_random=5)
        plain = sp_first_fit().map(ev, rng=np.random.default_rng(9))
        aware = EnergyAwareDecompositionMapper(alpha=1.0).map(
            ev, rng=np.random.default_rng(9)
        )
        assert np.array_equal(plain.mapping, aware.mapping)

    def test_low_alpha_trades_makespan_for_energy(self, platform):
        g = random_sp_graph(25, np.random.default_rng(10))
        ev = make_evaluator(g, platform, n_random=5)
        em = EnergyModel(ev.model)
        fast = EnergyAwareDecompositionMapper(alpha=1.0).map(
            ev, rng=np.random.default_rng(11)
        )
        frugal = EnergyAwareDecompositionMapper(alpha=0.0).map(
            ev, rng=np.random.default_rng(11)
        )
        e_fast = em.energy(fast.mapping)
        e_frugal = em.energy(frugal.mapping)
        assert e_frugal <= e_fast + 1e-9
        assert frugal.makespan >= fast.makespan - 1e-9

    @settings(max_examples=6, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31),
    )
    def test_feasible_for_any_alpha(self, alpha, seed):
        g = random_sp_graph(12, np.random.default_rng(seed))
        ev = make_evaluator(g, paper_platform(), seed=seed, n_random=3)
        res = EnergyAwareDecompositionMapper(alpha=alpha).map(
            ev, rng=np.random.default_rng(seed)
        )
        assert ev.is_feasible(res.mapping)
