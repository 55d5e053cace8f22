"""Exactness contract of the population batch path (metaheuristic fitness).

``tests/test_kernel_delta.py`` pins the scalar kernel and the delta
evaluator against the nested-list reference; this suite extends the same
contract to the population entry and the metaheuristic mappers built on
it:

- every lane of ``CostModel.simulate_many`` /
  ``MappingEvaluator.construction_makespans`` must be **bit-identical**
  to a scalar evaluation of that row — across graph families, random
  populations, FPGA area-infeasible genomes and duplicate rows (the
  dedup path, on both kernels);
- the four metaheuristic mappers (NSGA-II, Pareto NSGA-II, tabu,
  annealing) must reproduce their **golden seeded trajectories**
  (``tests/test_golden.py``) on both kernels: same rng draws, same
  accepted moves, same per-generation history, same final mapping;
- the vectorized non-dominated sorting must agree with the classic
  pairwise implementation decision-for-decision *and* order-for-order
  (front ordering feeds crowding tie-breaks), including NaN objectives;
- evaluators must survive a mid-run pickle round trip (the
  ``repro.parallel`` worker contract) with the batch path intact.
"""

import pickle

import numpy as np
import pytest

from repro.evaluation import (
    INFEASIBLE,
    CostModel,
    MappingEvaluator,
)
from repro.evaluation._ckernel import load_ckernel
from repro.graphs.generators import random_sp_graph
from repro.mappers import (
    EnergyAwareDecompositionMapper,
    NsgaIIMapper,
    SimulatedAnnealingMapper,
    TabuSearchMapper,
)
from repro.mappers.multiobjective import (
    crowding_distance,
    dominates,
    domination_matrix,
    nondominated_sort,
)
from repro.platform import paper_platform
from tests.conftest import make_evaluator
from tests.test_golden import MODES as GOLDEN_MODES
from tests.test_golden import assert_golden
from tests.test_kernel_delta import FAMILIES, _same, graph_family, tight_platform

HAVE_CKERNEL = load_ckernel() is not None

MODES = [False] + ([None] if HAVE_CKERNEL else [])
MODE_IDS = ["python"] + (["ckernel"] if HAVE_CKERNEL else [])


# ---------------------------------------------------------------------------
# (a) batched == scalar, bit-identical, lane by lane
# ---------------------------------------------------------------------------
class TestBatchBitIdentity:
    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_random_populations(self, family, use_ckernel):
        rng = np.random.default_rng(FAMILIES.index(family))
        for plat in (paper_platform(), tight_platform()):
            g = graph_family(family, 18, rng)
            model = CostModel(g, plat, use_ckernel=use_ckernel)
            n = model.n
            # tight_platform makes some rows FPGA-area-infeasible: the
            # batch entry must return INFEASIBLE for exactly those rows
            pop = rng.integers(0, plat.n_devices, size=(40, n), dtype=np.int64)
            batched = model.simulate_many(pop)
            for r in range(len(pop)):
                assert _same(batched[r], model.simulate(pop[r]))

    def test_small_population_scalar_fallback(self):
        """A small population on the pure-Python kernel — same bits."""
        rng = np.random.default_rng(11)
        g = random_sp_graph(16, rng)
        model = CostModel(g, paper_platform(), use_ckernel=False)
        pop = rng.integers(0, 3, size=(15, model.n), dtype=np.int64)
        batched = model.simulate_many(pop)
        for r in range(len(pop)):
            assert _same(batched[r], model.simulate(pop[r]))

    def test_all_rows_infeasible_short_circuits(self):
        g = random_sp_graph(12, np.random.default_rng(3))
        plat = tight_platform()
        model = CostModel(g, plat)
        pop = np.full((8, model.n), 2, dtype=np.int64)  # all on tiny FPGA
        before = model.n_batch_calls
        res = model.simulate_many(pop)
        assert np.all(np.isinf(res))
        assert model.n_batch_calls == before  # no lanes simulated

    def test_shape_validation(self):
        g = random_sp_graph(10, np.random.default_rng(0))
        model = CostModel(g, paper_platform())
        with pytest.raises(ValueError):
            model.simulate_many(np.zeros(model.n, dtype=np.int64))
        with pytest.raises(ValueError):
            model.simulate_many(np.zeros((4, model.n + 1), dtype=np.int64))
        assert model.simulate_many(np.zeros((0, model.n), dtype=np.int64)).size == 0

    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    def test_simulate_many_dedups_feasible_rows(self, use_ckernel):
        """Both kernels simulate each distinct feasible row exactly once."""
        rng = np.random.default_rng(23)
        g = random_sp_graph(15, rng)
        plat = tight_platform()
        model = CostModel(g, plat, use_ckernel=use_ckernel)
        distinct = rng.integers(0, 3, size=(8, model.n), dtype=np.int64)
        distinct[0] = 2  # an FPGA-area violation among the duplicates
        idx = rng.integers(0, 8, size=50)
        pop = distinct[idx]
        feasible = {int(k) for k in np.unique(idx) if model.is_feasible(distinct[k])}
        ms = model.simulate_many(pop)
        assert model.n_batched_evaluations == len(feasible)
        assert model.n_batch_calls == 1
        for r in range(len(pop)):
            assert _same(ms[r], model.simulate(pop[r]))

    def test_evaluator_dedup_shares_exact_values(self, platform):
        """Duplicate genomes are simulated once and share one value."""
        rng = np.random.default_rng(21)
        g = random_sp_graph(15, rng)
        ev = make_evaluator(g, platform, n_random=2)
        distinct = rng.integers(0, 3, size=(6, ev.n_tasks), dtype=np.int64)
        idx = rng.integers(0, 6, size=40)
        pop = distinct[idx]
        before = ev.model.n_batched_evaluations
        ms = ev.construction_makespans(pop)
        # only the distinct rows hit the kernel ...
        assert ev.model.n_batched_evaluations - before == len(np.unique(idx))
        # ... and every row equals its scalar evaluation bit for bit
        for r in range(len(pop)):
            assert _same(ms[r], ev.construction_makespan(pop[r]))
        # duplicates share literally the same value
        for a in range(len(pop)):
            for b in range(a + 1, len(pop)):
                if idx[a] == idx[b]:
                    assert _same(ms[a], ms[b])


# ---------------------------------------------------------------------------
# (b) seeded mapper trajectories: the golden digests, on both kernels
# ---------------------------------------------------------------------------
def _golden_both_kernels(mapper, graph, seed):
    for use_ckernel in GOLDEN_MODES:
        assert_golden(mapper, graph, seed, use_ckernel)


class TestMetaheuristicTrajectories:
    """The golden digests were recorded while the legacy scalar loops
    still existed and were proved trajectory-equal to these paths."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nsgaii(self, seed):
        _golden_both_kernels("NSGAII", "sp", seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pareto_nsgaii(self, seed):
        _golden_both_kernels("ParetoNSGAII", "sp", seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tabu(self, seed):
        _golden_both_kernels("Tabu", "sp", seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_annealing(self, seed):
        _golden_both_kernels("Annealing", "sp", seed)

    def test_tabu_on_area_tight_platform(self):
        """Infeasible moves must be skipped identically."""
        _golden_both_kernels("Tabu", "sp_tight", 9)


# ---------------------------------------------------------------------------
# metaheuristic counters: prove the fast paths are actually taken
# ---------------------------------------------------------------------------
class TestMetaheuristicCounters:
    def test_ga_reports_batched_counters(self, platform):
        g = random_sp_graph(16, np.random.default_rng(2))
        ev = make_evaluator(g, platform, n_random=2)
        res = NsgaIIMapper(generations=10, population_size=20).map(
            ev, rng=np.random.default_rng(0)
        )
        stats = res.stats
        assert stats["n_batched_evaluations"] > 0
        # one batch call per generation block; dedup may shrink lanes,
        # so the mean realized width is > 1 but <= the population size
        assert 1.0 < stats["batch_size_mean"] <= 20.0
        # the GA itself runs no scalar simulations beyond Mapper.map's
        # final construction_makespan of the returned mapping
        assert stats["n_simulations"] == 0.0
        assert res.n_evaluations == (
            ev.model.n_simulations
            + ev.model.n_delta_evaluations
            + ev.model.n_batched_evaluations
        )

    def test_tabu_and_annealing_report_delta_counters(self, platform):
        g = random_sp_graph(16, np.random.default_rng(4))
        for mapper in (
            TabuSearchMapper(iterations=20, neighborhood=8),
            SimulatedAnnealingMapper(iterations=200),
        ):
            ev = make_evaluator(g, platform, n_random=2)
            res = mapper.map(ev, rng=np.random.default_rng(1))
            assert res.stats["n_delta_evaluations"] > 0
            assert res.stats["n_batched_evaluations"] == 0.0
            assert res.stats["batch_size_mean"] == 0.0

    def test_scalar_paths_report_simulations(self, platform):
        """The one scalar search path left (a custom greedy objective)
        counts full simulations, no delta or batched lanes."""
        g = random_sp_graph(12, np.random.default_rng(6))
        ev = make_evaluator(g, platform, n_random=2)
        res = EnergyAwareDecompositionMapper(alpha=0.5).map(
            ev, rng=np.random.default_rng(0)
        )
        assert res.stats["n_simulations"] > 0
        assert res.stats["n_delta_evaluations"] == 0.0
        assert res.stats["n_batched_evaluations"] == 0.0


# ---------------------------------------------------------------------------
# vectorized non-dominated sorting == classic pairwise, incl. NaN guard
# ---------------------------------------------------------------------------
def _dominates_reference(a, b) -> bool:
    """The pre-vectorization implementation (no NaN guard)."""
    at_least_as_good = all(x <= y for x, y in zip(a, b))
    strictly_better = any(x < y for x, y in zip(a, b))
    return at_least_as_good and strictly_better


def _nondominated_sort_reference(objectives):
    """Deb's sort with the classic pairwise loop — order-exact spec."""
    n = len(objectives)
    dominated_by = [[] for _ in range(n)]
    domination_count = np.zeros(n, dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(objectives[i], objectives[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(objectives[j], objectives[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts = []
    current = [i for i in range(n) if domination_count[i] == 0]
    while current:
        fronts.append(current)
        nxt = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    nxt.append(j)
        current = nxt
    return fronts


class TestNondominatedSortVectorized:
    def test_matrix_agrees_with_pairwise(self):
        rng = np.random.default_rng(0)
        objs = rng.random((30, 2))
        objs[rng.random(30) < 0.2] = objs[0]  # exact duplicates
        dom = domination_matrix(objs)
        for i in range(30):
            for j in range(30):
                assert dom[i, j] == dominates(objs[i], objs[j])

    def test_front_order_matches_reference(self):
        """Front membership AND internal order — crowding tie-breaks
        depend on it, so seeded Pareto trajectories do too."""
        rng = np.random.default_rng(1)
        for trial in range(10):
            objs = rng.random((25, 2))
            if trial % 2:
                objs[rng.integers(25)] = [np.inf, np.inf]
            assert nondominated_sort(objs) == _nondominated_sort_reference(objs)

    def test_nan_guard(self):
        """NaN objectives count as +inf: never dominate, can be dominated."""
        nan_pt = [np.nan, 1.0]
        good = [1.0, 1.0]
        assert not dominates(nan_pt, good)
        assert dominates(good, nan_pt)
        # all-NaN never dominates and ties break nowhere
        assert not dominates([np.nan, np.nan], [np.nan, np.nan])
        objs = np.array([[np.nan, 0.5], [0.5, 0.5], [np.nan, np.nan]])
        dom = domination_matrix(objs)
        for i in range(3):
            for j in range(3):
                assert dom[i, j] == dominates(objs[i], objs[j])
        # a NaN point must not pollute front zero
        fronts = nondominated_sort(objs)
        assert fronts[0] == [1]

    def test_nan_free_matches_unguarded_reference(self):
        """On NaN-free objectives the guard is a no-op."""
        rng = np.random.default_rng(2)
        objs = rng.random((20, 3))
        for i in range(20):
            for j in range(20):
                assert dominates(objs[i], objs[j]) == _dominates_reference(
                    objs[i], objs[j]
                )

    def test_crowding_distance_matches_reference(self):
        rng = np.random.default_rng(3)
        objs = rng.random((15, 2))
        n, m = objs.shape
        ref = np.zeros(n)
        for k in range(m):
            order = np.argsort(objs[:, k], kind="stable")
            lo, hi = objs[order[0], k], objs[order[-1], k]
            ref[order[0]] = ref[order[-1]] = np.inf
            span = hi - lo
            if span <= 0:
                continue
            for pos in range(1, n - 1):
                ref[order[pos]] += (
                    objs[order[pos + 1], k] - objs[order[pos - 1], k]
                ) / span
        np.testing.assert_array_equal(crowding_distance(objs), ref)
        np.testing.assert_array_equal(
            crowding_distance(objs[:2]), [np.inf, np.inf]
        )


# ---------------------------------------------------------------------------
# energy fast path == reference loop, bit-identical
# ---------------------------------------------------------------------------
class TestEnergyFastPath:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_random_mappings(self, family):
        from repro.evaluation import EnergyModel

        rng = np.random.default_rng(50 + FAMILIES.index(family))
        for plat in (paper_platform(), tight_platform()):
            g = graph_family(family, 17, rng)
            model = CostModel(g, plat)
            energy = EnergyModel(model)
            for _ in range(30):
                mapping = rng.integers(0, plat.n_devices, size=model.n)
                fast = energy.energy(mapping)
                ref = energy._energy_reference(mapping)
                assert _same(fast, ref)
                if np.isfinite(fast):
                    # the precomputed-makespan entry (the Pareto hot path)
                    ms = model.simulate(mapping, check_feasibility=False)
                    assert _same(
                        energy.energy(
                            mapping, makespan=ms, check_feasibility=False
                        ),
                        energy._energy_reference(
                            mapping, makespan=ms, check_feasibility=False
                        ),
                    )


# ---------------------------------------------------------------------------
# (c) pickle round trip mid-run (repro.parallel worker contract)
# ---------------------------------------------------------------------------
class TestEvaluatorPickleMidRun:
    def test_evaluator_round_trip_keeps_batch_path(self, platform):
        g = random_sp_graph(14, np.random.default_rng(8))
        ev = make_evaluator(g, platform, n_random=2)
        rng = np.random.default_rng(8)
        pop = rng.integers(0, 3, size=(24, ev.n_tasks), dtype=np.int64)
        before = ev.construction_makespans(pop)
        clone = pickle.loads(pickle.dumps(ev))
        after = clone.construction_makespans(pop)
        np.testing.assert_array_equal(before, after)
        # scalar entry agrees too (kernel re-initialized on unpickle)
        assert clone.construction_makespan(pop[0]) == before[0]

    def test_mapper_runs_identically_after_round_trip(self, platform):
        g = random_sp_graph(12, np.random.default_rng(12))
        ev = make_evaluator(g, platform, n_random=2)
        ev.construction_makespans(
            np.zeros((2, ev.n_tasks), dtype=np.int64)
        )  # mid-run state
        clone = pickle.loads(pickle.dumps(ev))
        ga = NsgaIIMapper(generations=5, population_size=10)
        r1 = ga.map(ev, rng=np.random.default_rng(0))
        r2 = ga.map(clone, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(r1.mapping, r2.mapping)
        assert r1.makespan == r2.makespan


# ---------------------------------------------------------------------------
# INFEASIBLE placement: batch results keep inf exactly where scalar has it
# ---------------------------------------------------------------------------
def test_mixed_feasibility_population():
    rng = np.random.default_rng(13)
    g = random_sp_graph(16, rng)
    plat = tight_platform()
    ev = MappingEvaluator(g, plat, rng=np.random.default_rng(0), n_random_schedules=2)
    pop = rng.integers(0, 3, size=(60, ev.n_tasks), dtype=np.int64)
    pop[5] = 2  # guaranteed FPGA-area violation
    ms = ev.construction_makespans(pop)
    assert ms[5] == INFEASIBLE
    for r in range(len(pop)):
        assert _same(ms[r], ev.construction_makespan(pop[r]))
