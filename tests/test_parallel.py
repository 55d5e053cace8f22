"""The parallel backbone and its serial/parallel equivalence invariant.

``repro.parallel`` promises that ``--workers N`` changes wall-clock only:
every seed-derived quantity an experiment reports must be bit-identical
to a serial run.  These tests pin the pool primitives and the invariant
end to end for the robustness and table1 drivers (the satellite
acceptance: same seed ⇒ identical CSV rows at smoke scale), plus the
paired-noise-seed bugfix in the robustness sweep.
"""

import dataclasses
import io

import numpy as np
import pytest

from repro.experiments import robustness, table1, write_csv
from repro.experiments.config import get_scale
from repro.experiments.runner import StudyResult, run_point
from repro.graphs.generators import random_sp_graph
from repro.mappers import HeftMapper, sp_first_fit
from repro.parallel import (
    SupervisedPool,
    parallel_map,
    resolve_workers,
    spawn_seeds,
)
from repro.platform import paper_platform
from repro.runtime import LognormalNoise, replicate


# module-level workers: the process pool pickles functions by reference
def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise RuntimeError("boom at 3")
    return x


def _draw(seed_seq):
    return float(np.random.default_rng(seed_seq).random())


def _pmap(fn, items, workers, **kw):
    """``parallel_map`` on a fresh pool of ``workers`` processes."""
    with SupervisedPool(workers) as pool:
        return parallel_map(fn, items, pool=pool, **kw)


class TestPoolPrimitives:
    def test_serial_is_plain_loop(self):
        assert _pmap(_square, [1, 2, 3], 1) == [1, 4, 9]

    def test_parallel_preserves_item_order(self):
        items = list(range(12))
        assert _pmap(_square, items, 3) == [x * x for x in items]

    def test_empty_items(self):
        assert _pmap(_square, [], 4) == []

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom at 3"):
            _pmap(_fail_on_three, [1, 2, 3, 4], 2)

    def test_serial_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom at 3"):
            _pmap(_fail_on_three, [1, 2, 3, 4], 1)

    def test_progress_called_per_item(self):
        messages = []
        _pmap(_square, [1, 2], 1, progress=messages.append, label="unit")
        assert messages == ["unit 1/2", "unit 2/2"]

    def test_seeded_items_identical_across_pool_sizes(self):
        seeds = spawn_seeds(123, 8)
        assert _pmap(_draw, seeds, 1) == _pmap(_draw, seeds, 3)

    def test_resolve_workers(self):
        assert resolve_workers(None, 1) == 1
        assert resolve_workers(None, 3) == 3
        assert resolve_workers(2, 1) == 2
        assert resolve_workers(0, 1) >= 1    # 0 = one per CPU
        assert resolve_workers(-1, 1) >= 1

    def test_spawn_seeds_deterministic(self):
        a = spawn_seeds(7, 3)
        b = spawn_seeds(7, 3)
        assert [s.entropy for s in a] == [s.entropy for s in b]
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]


class TestReplicateSeedContract:
    """`replicate` must not mutate the root seed it is handed (the bug
    that made serial sweeps drift away from their parallel twins)."""

    def setup_method(self):
        self.platform = paper_platform()
        self.graph = random_sp_graph(12, np.random.default_rng(0))
        self.mapping = [0] * self.graph.n_tasks

    def test_same_root_object_replays_same_draws(self):
        root = np.random.SeedSequence(5)
        kw = dict(n=3, noise=LognormalNoise(0.3))
        a = [t.makespan for t in replicate(
            self.graph, self.platform, self.mapping, seed=root, **kw)]
        b = [t.makespan for t in replicate(
            self.graph, self.platform, self.mapping, seed=root, **kw)]
        assert a == b
        assert root.n_children_spawned == 0

    def test_shared_root_matches_fresh_copy(self):
        kw = dict(n=3, noise=LognormalNoise(0.3))
        shared = np.random.SeedSequence(5)
        replicate(self.graph, self.platform, self.mapping, seed=shared, **kw)
        again = [t.makespan for t in replicate(
            self.graph, self.platform, self.mapping, seed=shared, **kw)]
        fresh = [t.makespan for t in replicate(
            self.graph, self.platform, self.mapping,
            seed=np.random.SeedSequence(5), **kw)]
        assert again == fresh


@pytest.fixture(scope="module")
def tiny_scale():
    return dataclasses.replace(
        get_scale("smoke"),
        robustness_noise_levels=[0.2, 0.2, 0.4],
        robustness_replications=3,
        robustness_n_tasks=12,
        robustness_graphs=2,
        nsga_generations=4,
        n_random_schedules=3,
        table1_parameterizations=1,
        table1_generations=4,
    )


class TestSerialParallelEquivalence:
    def test_robustness_csv_bit_identical(self, tiny_scale):
        serial = robustness.run(scale=tiny_scale, seed=1, workers=1)
        pooled = robustness.run(scale=tiny_scale, seed=1, workers=2)
        a, b = io.StringIO(), io.StringIO()
        write_csv(serial, fileobj=a)
        write_csv(pooled, fileobj=b)
        assert a.getvalue() == b.getvalue()

    def test_robustness_noise_seeds_paired_across_sigmas(self, tiny_scale):
        """The satellite bugfix: per-replication sim seeds are derived once
        and reused at every sigma, so two sweep points at the *same* sigma
        are identical — seed variance cannot leak into the noise axis."""
        result = robustness.run(scale=tiny_scale, seed=1, workers=1)
        n_alg = len(result.algorithms())
        first_02 = result.points[:n_alg]
        second_02 = result.points[n_alg:2 * n_alg]
        assert first_02 == second_02

    def test_replan_csv_bit_identical(self, tiny_scale):
        cfg = dataclasses.replace(
            tiny_scale, robustness_noise_levels=[0.2],
            replan_policies=["fallback", "decomposition"],
        )
        serial = robustness.run_replan(scale=cfg, seed=2, workers=1)
        pooled = robustness.run_replan(scale=cfg, seed=2, workers=2)
        a, b = io.StringIO(), io.StringIO()
        write_csv(serial, fileobj=a)
        write_csv(pooled, fileobj=b)
        assert a.getvalue() == b.getvalue()

    def test_table1_rows_identical_modulo_wallclock(self, tiny_scale):
        """Improvement columns and evaluation counts are seed-derived and
        must match exactly; total_time_s is wall-clock and exempt from the
        invariant."""
        serial = table1.run(
            scale=tiny_scale, seed=10, families=["montage"], workers=1
        )
        pooled = table1.run(
            scale=tiny_scale, seed=10, families=["montage"], workers=2
        )
        assert serial.algorithms == pooled.algorithms
        assert serial.improvement == pooled.improvement
        assert serial.total_evaluations == pooled.total_evaluations

    def test_run_point_identical(self):
        platform = paper_platform()
        rng = np.random.default_rng(0)
        graphs = [random_sp_graph(8, rng) for _ in range(3)]
        mappers = [HeftMapper(), sp_first_fit()]
        kw = dict(seed=3, n_random_schedules=3)
        with SupervisedPool(1) as one, SupervisedPool(2) as two:
            serial = run_point(mappers, graphs, platform, pool=one, **kw)
            pooled = run_point(mappers, graphs, platform, pool=two, **kw)
        for name in ("HEFT", "SPFirstFit"):
            assert serial.improvements[name].mean == \
                pooled.improvements[name].mean
            assert serial.evaluations[name] == pooled.evaluations[name]


class TestExperimentCliWorkers:
    def test_experiment_robustness_workers_flag(self, capsys, monkeypatch):
        from repro.cli import main as cli_main

        captured = {}

        def stub(scale="smoke", workers=None, **kw):
            captured["workers"] = workers
            return StudyResult("stub", "stub.csv", ("algorithm",), ())

        monkeypatch.setattr(robustness, "run", stub)
        assert cli_main(
            ["experiment", "robustness", "--workers", "2"]
        ) == 0
        assert captured["workers"] == 2
        assert "stub" in capsys.readouterr().out
