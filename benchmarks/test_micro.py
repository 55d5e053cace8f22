"""Micro-benchmarks of the library's hot paths.

These use pytest-benchmark's statistics properly (many rounds): the cost of
one full model-based evaluation (the paper's key primitive), Algorithm 1
forest construction, candidate-set extraction, and one full mapper run per
algorithm family on a fixed 50-task graph.

Two speed gates need no committed number: each times the fast path
against the in-repo reference (the nested-list walk
``CostModel._simulate_reference``) in one process, in interleaved
rounds, and asserts both sides return the same result.
``test_first_fit_speedup_vs_reference`` gates the kernel/delta mapper
core, ``test_nsgaii_batch_fitness_speedup_vs_reference`` the
population batch fitness.
"""

import time

import numpy as np
import pytest

from repro.evaluation import MappingEvaluator
from repro.evaluation._ckernel import load_ckernel
from repro.graphs.generators import random_almost_sp_graph, random_sp_graph
from repro.mappers import (
    DecompositionMapper,
    HeftMapper,
    NsgaIIMapper,
    PeftMapper,
    sn_first_fit,
    sp_first_fit,
)
from repro.platform import paper_platform
from repro.sp import grow_decomposition_forest, series_parallel_candidates


def test_bench_cost_model_evaluation(benchmark, sp_graph_50):
    _, ev = sp_graph_50
    mapping = np.zeros(ev.n_tasks, dtype=np.int64)
    benchmark(ev.construction_makespan, mapping)


def test_bench_reported_makespan_suite(benchmark, sp_graph_50):
    _, ev = sp_graph_50
    mapping = np.zeros(ev.n_tasks, dtype=np.int64)
    benchmark(ev.reported_makespan, mapping)


def test_bench_algorithm1_forest_sp(benchmark, platform):
    g = random_sp_graph(200, np.random.default_rng(7))
    rng = np.random.default_rng(0)
    benchmark(lambda: grow_decomposition_forest(g, rng=rng))


def test_bench_algorithm1_forest_almost_sp(benchmark, platform):
    g = random_almost_sp_graph(200, 100, np.random.default_rng(8))
    rng = np.random.default_rng(0)
    benchmark(lambda: grow_decomposition_forest(g, rng=rng))


def test_bench_candidate_extraction(benchmark, platform):
    g = random_sp_graph(200, np.random.default_rng(9))
    rng = np.random.default_rng(0)
    benchmark(lambda: series_parallel_candidates(g, rng=rng))


@pytest.mark.parametrize(
    "factory",
    [HeftMapper, PeftMapper, sn_first_fit, sp_first_fit],
    ids=["heft", "peft", "sn_first_fit", "sp_first_fit"],
)
def test_bench_mapper(benchmark, sp_graph_50, factory):
    _, ev = sp_graph_50
    mapper = factory()
    rng_seed = np.random.SeedSequence(42)
    benchmark.pedantic(
        lambda: mapper.map(ev, rng=np.random.default_rng(rng_seed)),
        rounds=3,
        iterations=1,
    )


class _ReferenceMapper(DecompositionMapper):
    """The same greedy search with every move fully re-evaluated on the
    nested-list reference walk: the pre-kernel evaluation cost, kept as
    an executable path by the scratch ``_run_basic``/``_run_gamma`` loops
    that any custom ``_objective`` takes."""

    def _objective(self, evaluator, mapping):
        return evaluator.model._simulate_reference(mapping)


class _ReferenceFitness(MappingEvaluator):
    """Every fitness on the reference walk, one genome at a time."""

    def construction_makespan(self, mapping):
        return self.model._simulate_reference(mapping)

    def construction_makespans(self, mappings):
        return np.array([self.construction_makespan(row) for row in mappings])


def _bench_evaluator(n_tasks, cls=MappingEvaluator):
    """The ``sp_graph_50`` fixture's set-up at any size."""
    g = random_sp_graph(n_tasks, np.random.default_rng(1234))
    return cls(g, paper_platform(), rng=np.random.default_rng(5),
               n_random_schedules=20)


def _interleaved(fast, ref, rounds):
    """Warm both sides, then time them alternately so one speed spell of
    the host hits both.  Returns ``((fast(), ref()), best_fast_s,
    best_ref_s)``; the warm-up results are the ones compared."""
    results = fast(), ref()
    t_fast, t_ref = [], []
    for _ in range(rounds):
        for fn, times in ((fast, t_fast), (ref, t_ref)):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    return results, min(t_fast), min(t_ref)


_needs_ckernel = pytest.mark.skipif(
    load_ckernel() is None,
    reason="speedup target assumes the compiled kernel "
    "(pure-Python fallback is exercised for correctness, not speed)",
)


# Speedup bars, best/best.  The gates these replace needed the fast side
# >= 5x under absolute medians frozen on the pre-kernel code (sp_n50
# 18.04 ms, sn_n50 79.78 ms, sp_n200 243.64 ms).  Where the in-process
# reference reads slower than its frozen median, the bar rises by that
# factor, so no gate is looser than the one it replaces:
# bar = 5 * max(1, quiet reference / frozen).  Quiet-spell reference
# (best over 13 fresh processes): sp_n50 16.40 ms, sn_n50 72.75 ms,
# sp_n200 253.15 ms, i.e. 5.0x, 5.0x and 5.2x.  sp_n200 is raised to 9x:
# forcing the fast side onto the scratch loops still reads 4.1-7.5x
# there (2.1-2.6x and 1.9-2.6x at n=50), while the delta path reads
# 12.2-30.5x over ~40 runs.  collect_env(): x86_64, cpu_count 2,
# CPython 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31, kernel c,
# repro 1.9.0.
@_needs_ckernel
@pytest.mark.parametrize("factory, n_tasks, rounds, bar", [
    (sp_first_fit, 50, 7, 5.0),
    (sn_first_fit, 50, 7, 5.0),
    (sp_first_fit, 200, 3, 9.0),
], ids=["sp_n50", "sn_n50", "sp_n200"])
def test_first_fit_speedup_vs_reference(factory, n_tasks, rounds, bar):
    """Kernel + delta path vs full re-evaluation on the reference walk.

    Both sides run the same search from the same seed in this process,
    so the ratio needs no committed number and the results must agree.
    """
    ev = _bench_evaluator(n_tasks)
    fast_mapper = factory()
    ref_mapper = _ReferenceMapper(fast_mapper.strategy, fast_mapper.heuristic)
    seed = np.random.SeedSequence(42)

    def run(mapper):
        return lambda: mapper.map(ev, rng=np.random.default_rng(seed))

    (fast, ref), best_fast, best_ref = _interleaved(
        run(fast_mapper), run(ref_mapper), rounds)
    assert list(fast.mapping) == list(ref.mapping)
    assert fast.makespan == ref.makespan
    assert fast.stats["iterations"] == ref.stats["iterations"]
    speedup = best_ref / best_fast
    print(f"{fast_mapper.name} n={n_tasks}: {best_fast * 1e3:.2f} ms vs "
          f"reference {best_ref * 1e3:.2f} ms -> {speedup:.1f}x (bar {bar}x)")
    assert speedup >= bar, (
        f"{fast_mapper.name} n={n_tasks}: only {speedup:.1f}x over the "
        f"reference walk (need >= {bar}x)"
    )


@_needs_ckernel
def test_nsgaii_batch_fitness_speedup_vs_reference():
    """One batch kernel call per population vs per-genome reference walks.

    A return to scalar per-genome fitness costs ~4-5x on its own, which
    drops the ratio to ~2.5x and fails the 5x bar.
    """
    seed = np.random.SeedSequence(42)

    def run(ev):
        mapper = NsgaIIMapper(generations=30, population_size=50)

        def once():
            result = mapper.map(ev, rng=np.random.default_rng(seed))
            return list(result.mapping), mapper.history_
        return once

    (fast, ref), best_fast, best_ref = _interleaved(
        run(_bench_evaluator(50)),
        run(_bench_evaluator(50, _ReferenceFitness)), 3)
    assert fast == ref
    speedup = best_ref / best_fast
    print(f"NSGAII 30x50: {best_fast * 1e3:.2f} ms vs reference "
          f"{best_ref * 1e3:.2f} ms -> {speedup:.1f}x (bar 5x)")
    assert speedup >= 5.0, (
        f"NSGA-II batch fitness: only {speedup:.1f}x over per-genome "
        f"reference fitness (need >= 5x)"
    )


def test_bench_nsgaii_short(benchmark, sp_graph_50):
    _, ev = sp_graph_50
    mapper = NsgaIIMapper(generations=20)
    benchmark.pedantic(
        lambda: mapper.map(ev, rng=np.random.default_rng(11)),
        rounds=2,
        iterations=1,
    )
