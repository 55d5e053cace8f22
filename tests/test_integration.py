"""Integration tests: full pipeline runs across module boundaries.

These exercise exactly the flows the paper's evaluation uses, end to end:
generate -> augment -> evaluate -> map -> compare, plus the qualitative
relationships the paper reports (at tiny scale, with generous tolerances).
"""

import numpy as np
import pytest

from repro.evaluation import MappingEvaluator
from repro.experiments import EXPERIMENTS
from repro.experiments.config import ScaleConfig
from repro.graphs.generators import (
    augment_workflow,
    make_workflow,
    random_sp_graph,
)
from repro.mappers import (
    HeftMapper,
    NsgaIIMapper,
    PeftMapper,
    sn_first_fit,
    sp_first_fit,
)
from repro.platform import paper_platform
from tests.conftest import make_evaluator

TINY = ScaleConfig(
    name="tiny",
    graphs_per_point=2,
    n_random_schedules=5,
    fig3_sizes=[6],
    fig3_zhouliu_max=0,
    zhouliu_time_limit_s=5.0,
    milp_time_limit_s=5.0,
    fig4_sizes=[8, 16],
    fig5_sizes=[8],
    nsga_generations=5,
    fig6_generations=[2, 4],
    fig6_n_tasks=10,
    fig6_graphs=1,
    fig7_n_tasks=12,
    fig7_extra_edges=[0, 5],
    table1_sizes_key="smoke",
    table1_parameterizations=1,
    table1_generations=5,
)


class TestSweepDrivers:
    def test_fig4_driver_end_to_end(self):
        result = EXPERIMENTS["fig4"].run(TINY, seed=1)
        names = {s.name for s in result.series()}
        assert names == {
            "HEFT", "PEFT", "SingleNode", "SeriesParallel",
            "SNFirstFit", "SPFirstFit",
        }
        for s in result.series():
            assert len(s.xs) == 2
            assert all(0.0 <= v <= 1.0 for v in s.improvement)
            assert all(t >= 0.0 for t in s.time_s)

    def test_table1_driver_single_family(self):
        entry = EXPERIMENTS["table1"]
        result = entry.run(TINY, seed=2, families=["blast"])
        assert result.families() == ["blast"]
        row = result.improvement["blast"]
        assert set(row) == {"HEFT", "PEFT", "NSGAII", "SNFirstFit", "SPFirstFit"}
        text = entry.format(result)
        assert "blast" in text


class TestPaperRelationships:
    """The headline qualitative claims, checked on small fixed seeds."""

    def test_decomposition_beats_heft_on_average(self, platform):
        heft_imps, sp_imps = [], []
        for seed in range(6):
            g = random_sp_graph(40, np.random.default_rng(seed))
            ev = make_evaluator(g, platform, seed=seed, n_random=10)
            heft_imps.append(
                ev.relative_improvement(HeftMapper().map(ev).mapping)
            )
            sp_imps.append(
                ev.relative_improvement(
                    sp_first_fit().map(ev, rng=np.random.default_rng(seed)).mapping
                )
            )
        assert np.mean(sp_imps) >= np.mean(heft_imps) - 0.01

    def test_decomposition_close_to_ga_but_faster(self, platform):
        # "faster" is counted in model evaluations, not host seconds
        ga_e, sp_e, ga_i, sp_i = [], [], [], []
        for seed in range(3):
            g = random_sp_graph(30, np.random.default_rng(seed + 50))
            ev = make_evaluator(g, platform, seed=seed, n_random=10)
            ga = NsgaIIMapper(generations=30).map(
                ev, rng=np.random.default_rng(seed)
            )
            sp = sp_first_fit().map(ev, rng=np.random.default_rng(seed))
            ga_e.append(ga.n_evaluations)
            sp_e.append(sp.n_evaluations)
            ga_i.append(ev.relative_improvement(ga.mapping))
            sp_i.append(ev.relative_improvement(sp.mapping))
        assert np.mean(ga_e) > 2 * np.mean(sp_e)
        assert np.mean(sp_i) >= np.mean(ga_i) - 0.08

    def test_workflow_pipeline_end_to_end(self, platform):
        rng = np.random.default_rng(4)
        g = make_workflow("montage", 60, rng)
        augment_workflow(g, rng)
        ev = MappingEvaluator(
            g, platform, rng=np.random.default_rng(0), n_random_schedules=10
        )
        results = {}
        for mapper in (HeftMapper(), PeftMapper(), sn_first_fit(), sp_first_fit()):
            res = mapper.map(ev, rng=np.random.default_rng(1))
            results[mapper.name] = ev.relative_improvement(res.mapping)
        # decomposition must be competitive on montage's funnel shape
        assert results["SPFirstFit"] >= results["HEFT"] - 0.05
        assert all(0.0 <= v <= 1.0 for v in results.values())

    def test_seismology_resists_acceleration(self, platform):
        rng = np.random.default_rng(5)
        g = make_workflow("seismology", 40, rng)
        augment_workflow(g, rng)
        ev = make_evaluator(g, platform, n_random=10)
        for mapper in (HeftMapper(), PeftMapper(), sp_first_fit()):
            res = mapper.map(ev, rng=np.random.default_rng(2))
            assert ev.relative_improvement(res.mapping) < 0.05
