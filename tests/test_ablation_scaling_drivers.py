"""Tests for the ablation and scaling sweeps."""

import dataclasses

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS, scaling
from repro.experiments.config import ScaleConfig
from repro.experiments.runner import SweepResult, SweepSeries
from repro.experiments.sweeps import _streaming_off
from repro.platform import Platform, paper_platform
from repro.platform.topologies import with_topology

TINY = ScaleConfig(
    name="tiny",
    graphs_per_point=2,
    n_random_schedules=4,
    fig3_sizes=[6],
    fig3_zhouliu_max=0,
    zhouliu_time_limit_s=5.0,
    milp_time_limit_s=5.0,
    fig4_sizes=[8, 16, 24],
    fig5_sizes=[8, 14],
    nsga_generations=4,
    fig6_generations=[2],
    fig6_n_tasks=8,
    fig6_graphs=1,
    fig7_n_tasks=14,
    fig7_extra_edges=[0, 6],
    table1_sizes_key="smoke",
    table1_parameterizations=1,
    table1_generations=4,
)


class TestAblationCuts:
    def test_runs_all_strategies(self):
        result = EXPERIMENTS["ablation-cuts"].run(TINY, seed=1)
        names = {s.name for s in result.series()}
        assert names == {
            "SPFF-random", "SPFF-first", "SPFF-smallest", "SPFF-largest"
        }
        for s in result.series():
            assert all(0.0 <= v <= 1.0 for v in s.improvement)


class TestAblationGamma:
    def test_runs_all_gammas(self):
        result = EXPERIMENTS["ablation-gamma"].run(TINY, seed=2)
        names = {s.name for s in result.series()}
        assert names == {"Gamma1", "Gamma1.5", "Gamma2", "Gamma4", "Basic"}

    def test_gamma_variants_close_to_basic(self):
        """Paper Sec. IV-B: gamma > 1 brings no significant benefit."""
        result = EXPERIMENTS["ablation-gamma"].run(TINY, seed=3)
        series = {s.name: s for s in result.series()}
        basic = np.mean(series["Basic"].improvement)
        for name in ("Gamma1", "Gamma2"):
            assert np.mean(series[name].improvement) >= basic - 0.12


class TestAblationStreaming:
    def test_stream_aware_at_least_blind(self):
        result = EXPERIMENTS["ablation-streaming"].run(TINY, seed=4)
        series = {s.name: s for s in result.series()}
        aware = np.mean(series["StreamAware"].improvement)
        blind = np.mean(series["StreamBlind"].improvement)
        assert aware >= blind - 0.05

    @pytest.mark.parametrize("shape", ["paper", "slots", "mesh"])
    def test_streaming_off_changes_only_the_streaming_flag(self, shape):
        base = paper_platform()
        if shape == "slots":
            base = Platform(base.devices, base.bandwidth_gbps,
                            base.latency_s, link_slots=2)
        elif shape == "mesh":
            base = with_topology(base, "mesh", slots=1)
        off = _streaming_off(base)
        assert any(d.streaming for d in base.devices)
        assert not any(d.streaming for d in off.devices)
        for d, o in zip(base.devices, off.devices):
            assert dataclasses.replace(o, streaming=d.streaming) == d
        assert len(off.devices) == len(base.devices)
        assert np.array_equal(off.bandwidth_gbps, base.bandwidth_gbps)
        assert np.array_equal(off.latency_s, base.latency_s)
        assert off.link_slots == base.link_slots
        assert off.link_graph is base.link_graph


class TestScaling:
    def test_run_and_fit(self):
        result = EXPERIMENTS["scaling"].run(TINY, seed=5)
        exponents = scaling.fit_exponents(result)
        assert set(exponents) == {
            "SingleNode", "SeriesParallel", "SNFirstFit", "SPFirstFit"
        }
        for alpha in exponents.values():
            assert np.isfinite(alpha)

    def test_fit_exponent_on_synthetic_series(self):
        """The fit must recover a known exponent exactly."""
        s = SweepSeries("X")
        for n in (10, 20, 40, 80):
            s.xs.append(n)
            s.improvement.append(0.1)
            s.time_s.append(1e-6 * n**2)
        result = SweepResult("synthetic", "n")
        from repro.experiments.runner import PointResult
        from repro.experiments.metrics import aggregate

        for i, n in enumerate(s.xs):
            result.points.append(
                PointResult(
                    x=n,
                    improvements={"X": aggregate([s.improvement[i]])},
                    times={"X": aggregate([s.time_s[i]])},
                    evaluations={"X": 0.0},
                )
            )
        exponents = scaling.fit_exponents(result)
        assert exponents["X"] == pytest.approx(2.0, abs=1e-6)

    def test_fit_with_insufficient_points(self):
        result = SweepResult("tiny", "n")
        from repro.experiments.metrics import aggregate
        from repro.experiments.runner import PointResult

        result.points.append(
            PointResult(
                x=5.0,
                improvements={"X": aggregate([0.1])},
                times={"X": aggregate([1.0])},
                evaluations={"X": 0.0},
            )
        )
        exponents = scaling.fit_exponents(result)
        assert np.isnan(exponents["X"])
