"""Tests for the experiment harness (runner, metrics, reporting, config)."""

import csv
import io
import os

import numpy as np
import pytest

from repro.experiments.config import SCALES, bench_scale, get_scale
from repro.experiments.metrics import aggregate, positive_improvement
from repro.experiments.reporting import format_sweep_table, write_csv
from repro.experiments.runner import Sweep, run_point, run_sweep
from repro.graphs.generators import random_sp_graph
from repro.mappers import HeftMapper, sp_first_fit
from repro.parallel import SupervisedPool
from repro.platform import paper_platform


def _sp_sweep(title, xs, roster, suite):
    """One random SP graph of x tasks per point (run on the paper platform)."""
    return Sweep(
        title, "n", xs=lambda cfg: xs,
        graphs=lambda cfg, x, rng: [random_sp_graph(int(x), rng)],
        roster=lambda cfg, x: roster(), suite=lambda cfg: suite,
    )


class TestMetrics:
    def test_positive_improvement(self):
        assert positive_improvement(10.0, 8.0) == pytest.approx(0.2)
        assert positive_improvement(10.0, 12.0) == 0.0
        assert positive_improvement(10.0, float("inf")) == 0.0

    def test_aggregate(self):
        stats = aggregate([0.0, 0.1, 0.2, 0.3])
        assert stats.mean == pytest.approx(0.15)
        assert stats.count == 4
        assert stats.hit_rate == pytest.approx(0.75)
        assert stats.minimum == 0.0 and stats.maximum == 0.3
        assert "±" in str(stats)

    def test_aggregate_empty(self):
        stats = aggregate([])
        assert stats.count == 0 and stats.mean == 0.0


class TestConfig:
    def test_scales_exist(self):
        assert set(SCALES) == {"smoke", "small", "paper"}
        assert get_scale("paper").graphs_per_point == 30
        assert get_scale("paper").fig4_sizes[-1] == 200
        assert get_scale(get_scale("smoke")) is get_scale("smoke")

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            get_scale("galactic")

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        assert bench_scale().name == "small"
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert bench_scale().name == "smoke"


class TestRunner:
    def test_run_point(self, platform):
        rng = np.random.default_rng(0)
        graphs = [random_sp_graph(10, rng) for _ in range(2)]
        with SupervisedPool(1) as pool:
            point = run_point(
                [HeftMapper(), sp_first_fit()],
                graphs,
                platform,
                seed=1,
                n_random_schedules=5,
                x=10.0,
                pool=pool,
            )
        assert set(point.improvements) == {"HEFT", "SPFirstFit"}
        assert point.improvements["SPFirstFit"].count == 2
        assert point.times["HEFT"].mean >= 0.0

    def test_run_point_reproducible(self, platform):
        rng = np.random.default_rng(0)
        graphs = [random_sp_graph(10, rng)]
        with SupervisedPool(1) as pool:
            a = run_point([sp_first_fit()], graphs, platform, seed=3,
                          n_random_schedules=5, pool=pool)
            b = run_point([sp_first_fit()], graphs, platform, seed=3,
                          n_random_schedules=5, pool=pool)
        assert (
            a.improvements["SPFirstFit"].mean
            == b.improvements["SPFirstFit"].mean
        )

    def test_run_sweep_series(self):
        result = run_sweep(
            _sp_sweep("test sweep", [6, 9], lambda: [sp_first_fit()], 3),
            seed=0,
        )
        series = result.series()
        assert len(series) == 1
        assert series[0].xs == [6.0, 9.0]
        assert len(series[0].improvement) == 2

    def test_run_sweep_progress_callback(self):
        messages = []
        run_sweep(
            _sp_sweep("cb", [5], lambda: [sp_first_fit()], 2),
            seed=0,
            progress=messages.append,
        )
        assert len(messages) == 1


class TestReporting:
    @pytest.fixture()
    def sweep(self):
        return run_sweep(
            _sp_sweep("report test", [5, 8],
                      lambda: [HeftMapper(), sp_first_fit()], 2),
            seed=0,
        )

    def test_format_table(self, sweep):
        text = format_sweep_table(sweep)
        assert "report test" in text
        assert "HEFT" in text and "SPFirstFit" in text
        assert "relative improvement" in text
        assert "execution time (ms)" in text

    def test_csv_stream(self, sweep):
        buf = io.StringIO()
        write_csv(sweep, fileobj=buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["n", "algorithm", "improvement", "time_s", "hit_rate"]
        assert len(rows) == 1 + 2 * 2  # 2 points x 2 algorithms

    def test_csv_file(self, sweep, tmp_path):
        path = tmp_path / "out.csv"
        returned = write_csv(sweep, str(path))
        assert returned == str(path)
        assert path.exists()
        assert path.read_text().startswith("n,algorithm")


class TestRobustnessDriver:
    @pytest.fixture(scope="class")
    def result(self):
        import dataclasses

        from repro.experiments.config import get_scale
        from repro.experiments.robustness import run

        tiny = dataclasses.replace(
            get_scale("smoke"),
            robustness_noise_levels=[0.2],
            robustness_replications=4,
            robustness_n_tasks=15,
            robustness_graphs=1,
            nsga_generations=5,
            n_random_schedules=5,
        )
        return run(scale=tiny, seed=1)

    def test_sweep_shape(self, result):
        assert result.axis("noise_sigma") == [0.2]
        assert set(result.algorithms()) == {
            "HEFT", "PEFT", "NSGAII", "SNFirstFit", "SPFirstFit"
        }
        for p in result.points:
            assert p.analytic_s > 0 and p.mean_s > 0
            assert p.degradation >= -1.0
            assert p.p95_degradation >= p.degradation - 1e-9

    def test_format_and_csv(self, result, tmp_path):
        import csv as csv_mod

        from repro.experiments.robustness import format_robustness_table

        text = format_robustness_table(result)
        assert "mean degradation" in text and "p95 degradation" in text
        assert "HEFT" in text
        path = write_csv(result, str(tmp_path / "rob.csv"))
        rows = list(csv_mod.reader(open(path)))
        assert rows[0][:2] == ["noise_sigma", "algorithm"]
        assert len(rows) == 1 + len(result.points)
