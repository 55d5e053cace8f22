"""Online re-mapping policies and the dead-fallback bugfix.

Covers the replan policy layer (:mod:`repro.runtime.replan`): mapper-based
re-mapping on the surviving platform, area-aware splicing, determinism,
the ``n_fallback_dead`` accounting when a failure's designated fallback is
itself dead, the replan policy sweep driver, and the hardened
``repro simulate`` CLI (clear non-zero exits instead of tracebacks).
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.evaluation import CostModel, MappingEvaluator
from repro.graphs.generators import (
    augment_workflow,
    make_workflow,
    random_sp_graph,
)
from repro.io import graph_to_dict, mapping_to_dict
from repro.mappers import HeftMapper
from repro.platform import paper_platform
from repro.runtime import (
    REPLAN_POLICY_NAMES,
    DeviceFailure,
    FallbackDead,
    LognormalNoise,
    MapperReplanPolicy,
    TaskRemapped,
    make_replan_policy,
    replicate,
    simulate_mapping,
)


@pytest.fixture(scope="module")
def montage():
    """The montage robustness example: HEFT mapping, GPU fails early."""
    platform = paper_platform()
    graph = make_workflow("montage", 60, np.random.default_rng(3))
    augment_workflow(graph, np.random.default_rng(4))
    ev = MappingEvaluator(graph, platform, n_random_schedules=10)
    mapping = list(HeftMapper().map(ev).mapping)
    analytic = ev.model.simulate(mapping)
    return platform, graph, mapping, analytic


class TestPolicyResolution:
    def test_names_registry(self):
        assert "fallback" in REPLAN_POLICY_NAMES
        assert {"decomposition", "heft", "minmin"} <= set(REPLAN_POLICY_NAMES)

    def test_fallback_resolves_to_none(self):
        assert make_replan_policy(None) is None
        assert make_replan_policy("fallback") is None

    def test_policy_instances_pass_through(self):
        policy = make_replan_policy("heft")
        assert isinstance(policy, MapperReplanPolicy)
        assert make_replan_policy(policy) is policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown replan policy"):
            make_replan_policy("magic")


class TestMapperReplan:
    def test_decomposition_beats_fixed_fallback_on_montage(self, montage):
        """The tentpole acceptance: re-running the decomposition mapper on
        the surviving platform degrades less than dumping the stranded GPU
        queue onto the fixed fallback."""
        platform, graph, mapping, analytic = montage
        scenarios = [DeviceFailure(0.1 * analytic, device=1)]
        fixed = simulate_mapping(
            graph, platform, mapping, scenarios=scenarios
        )
        replanned = simulate_mapping(
            graph, platform, mapping, scenarios=scenarios,
            replan_policy="decomposition",
        )
        assert replanned.makespan < fixed.makespan
        assert (replanned.makespan / analytic) < (fixed.makespan / analytic)

    def test_policy_moves_more_than_stranded_tasks(self, montage):
        """Splicing may rebalance *any* not-yet-started task, not only
        those stranded on the failed device."""
        platform, graph, mapping, analytic = montage
        scenarios = [DeviceFailure(0.1 * analytic, device=1)]
        fixed = simulate_mapping(graph, platform, mapping, scenarios=scenarios)
        replanned = simulate_mapping(
            graph, platform, mapping, scenarios=scenarios,
            replan_policy="decomposition",
        )
        n_fixed = sum(j.n_remapped for j in fixed.jobs)
        n_replanned = sum(j.n_remapped for j in replanned.jobs)
        assert n_replanned > n_fixed

    def test_nothing_runs_on_failed_device_after_failure(self, montage):
        platform, graph, mapping, analytic = montage
        t_fail = 0.1 * analytic
        trace = simulate_mapping(
            graph, platform, mapping,
            scenarios=[DeviceFailure(t_fail, device=1)],
            replan_policy="heft",
        )
        for t in trace.tasks:
            if t.device == 1:
                assert t.start <= t_fail
        assert len(trace.tasks) == graph.n_tasks

    def test_replan_trace_is_seed_deterministic(self, montage):
        platform, graph, mapping, analytic = montage
        kw = dict(
            noise=LognormalNoise(0.2),
            scenarios=[DeviceFailure(0.1 * analytic, device=1)],
            replan_policy="decomposition",
        )
        a = simulate_mapping(graph, platform, mapping, rng=11, **kw)
        b = simulate_mapping(graph, platform, mapping, rng=11, **kw)
        assert a.makespan == b.makespan
        assert [e.kind for e in a.events] == [e.kind for e in b.events]

    @pytest.mark.parametrize("policy", ["decomposition", "heft", "minmin"])
    def test_all_policies_complete_the_job(self, policy, montage):
        platform, graph, mapping, analytic = montage
        trace = simulate_mapping(
            graph, platform, mapping,
            scenarios=[DeviceFailure(0.25 * analytic, device=1)],
            replan_policy=policy,
        )
        assert trace.jobs[0].completion < float("inf")
        assert len(trace.tasks) == graph.n_tasks

    def test_splice_respects_area_budget(self):
        """A proposal that would overflow the FPGA degrades per task to
        the next surviving feasible device instead of aborting."""
        platform = paper_platform()
        graph = random_sp_graph(30, np.random.default_rng(9))
        capacity = platform.area_capacities()[2]
        for t in graph.tasks():
            graph.params(t).area = capacity / 3  # FPGA fits at most 3
        mapping = [1] * graph.n_tasks
        model = CostModel(graph, platform)
        t_fail = 0.3 * model.simulate(mapping)
        trace = simulate_mapping(
            graph, platform, mapping,
            scenarios=[DeviceFailure(t_fail, device=1)],
            replan_policy="decomposition",
        )
        final = [0] * graph.n_tasks
        for t in trace.tasks:
            final[t.index] = t.device
        assert model.is_feasible(final)
        assert sum(1 for d in final if d == 2) <= 3

    def test_single_survivor_falls_back(self):
        """With only the host left there is nothing to optimize; the
        legacy rescue path takes over and the job still completes."""
        platform = paper_platform()
        graph = random_sp_graph(15, np.random.default_rng(2))
        mapping = [1] * graph.n_tasks
        model = CostModel(graph, platform)
        base = model.simulate(mapping)
        trace = simulate_mapping(
            graph, platform, mapping,
            scenarios=[
                DeviceFailure(0.0, device=2),
                DeviceFailure(0.2 * base, device=1),
            ],
            replan_policy="decomposition",
        )
        assert len(trace.tasks) == graph.n_tasks
        assert all(t.device == 0 or t.start <= 0.2 * base
                   for t in trace.tasks)

    def test_replicate_passes_policy_through(self, montage):
        platform, graph, mapping, analytic = montage
        kw = dict(
            n=3, noise=LognormalNoise(0.2),
            scenarios=[DeviceFailure(0.1 * analytic, device=1)], seed=4,
        )
        fixed = replicate(graph, platform, mapping, **kw)
        replanned = replicate(
            graph, platform, mapping, replan_policy="decomposition", **kw
        )
        assert [t.makespan for t in fixed] != [t.makespan for t in replanned]


class TestDeadFallback:
    def _run(self, replan_policy=None):
        platform = paper_platform()
        graph = random_sp_graph(25, np.random.default_rng(6))
        mapping = [1] * graph.n_tasks
        model = CostModel(graph, platform)
        base = model.simulate(mapping)
        # the designated fallback (FPGA) dies before the GPU failure
        # that names it
        return model, simulate_mapping(
            graph, platform, mapping,
            scenarios=[
                DeviceFailure(0.1 * base, device=2),
                DeviceFailure(0.3 * base, device=1, fallback=2),
            ],
            replan_policy=replan_policy,
        )

    def test_counter_and_event_recorded(self):
        model, trace = self._run()
        assert trace.n_fallback_dead == 1
        dead = [e for e in trace.events if isinstance(e, FallbackDead)]
        assert len(dead) == 1
        assert dead[0].fallback == 2 and dead[0].failed == 1

    def test_stranded_work_rescued_area_aware(self):
        """Tasks still land on a surviving feasible device (the host),
        never on the dead fallback."""
        model, trace = self._run()
        remaps = [e for e in trace.events if isinstance(e, TaskRemapped)
                  if e.from_device == 1]
        assert remaps and all(e.to_device == 0 for e in remaps)
        final = [0] * model.n
        for t in trace.tasks:
            final[t.index] = t.device
        assert model.is_feasible(final)

    def test_alive_fallback_does_not_count(self):
        platform = paper_platform()
        graph = random_sp_graph(15, np.random.default_rng(8))
        mapping = [1] * graph.n_tasks
        trace = simulate_mapping(
            graph, platform, mapping,
            scenarios=[DeviceFailure(0.0, device=1, fallback=2)],
        )
        assert trace.n_fallback_dead == 0
        assert not any(isinstance(e, FallbackDead) for e in trace.events)


class TestReplanDriver:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.config import get_scale
        from repro.experiments.robustness import run_replan

        tiny = dataclasses.replace(
            get_scale("smoke"),
            robustness_replications=3,
            robustness_n_tasks=15,
            robustness_graphs=1,
            nsga_generations=4,
            n_random_schedules=3,
            replan_policies=["fallback", "decomposition"],
        )
        return run_replan(scale=tiny, seed=5)

    def test_sweep_shape(self, result):
        assert result.axis("policy") == ["fallback", "decomposition"]
        assert set(result.algorithms()) == {
            "HEFT", "PEFT", "NSGAII", "SNFirstFit", "SPFirstFit"
        }
        for p in result.points:
            assert p.analytic_s > 0 and p.mean_s > 0
            assert p.degradation >= -1.0
            assert p.mean_remapped >= 0.0

    def test_format_and_csv(self, result, tmp_path):
        import csv as csv_mod

        from repro.experiments import write_csv
        from repro.experiments.robustness import format_replan_table

        text = format_replan_table(result)
        assert "mean degradation" in text
        assert "fallback" in text and "decomposition" in text
        path = write_csv(result, str(tmp_path / "replan.csv"))
        rows = list(csv_mod.reader(open(path)))
        assert rows[0][:2] == ["policy", "algorithm"]
        assert len(rows) == 1 + len(result.points)


class TestSimulateCliHardening:
    @pytest.fixture()
    def files(self, tmp_path, montage):
        platform, graph, mapping, _ = montage
        gpath = tmp_path / "graph.json"
        mpath = tmp_path / "mapping.json"
        gpath.write_text(json.dumps(graph_to_dict(graph)))
        mpath.write_text(json.dumps(mapping_to_dict(graph, platform, mapping)))
        return str(gpath), str(mpath)

    def test_replan_policy_cli_end_to_end(self, files, capsys):
        gpath, mpath = files
        rc = cli_main([
            "simulate", gpath, mpath,
            "--fail", "vega56@0.02", "--replan-policy", "decomposition",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replan policy     : decomposition" in out
        assert "tasks remapped" in out

    def test_replan_policy_without_fail_rejected(self, files, capsys):
        gpath, mpath = files
        rc = cli_main(["simulate", gpath, mpath,
                       "--replan-policy", "decomposition"])
        assert rc == 2
        assert "no effect without" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,fragment", [
        ("vega56", "expected DEV@T"),
        ("vega56@abc", "is not a number"),
        ("9@0.5", "out of range"),
        ("nosuchdev@0.5", "unknown device"),
        ("vega56@-1", "non-negative"),
    ])
    def test_malformed_fail_specs_exit_cleanly(self, files, capsys,
                                               spec, fragment):
        gpath, mpath = files
        rc = cli_main(["simulate", gpath, mpath, "--fail", spec])
        assert rc == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("spec,fragment", [
        ("0@0.1", "expected DEV@T:FACTOR"),
        ("0@0.1:zero", "is not a number"),
        ("0@0.1:0", "positive"),
    ])
    def test_malformed_slowdown_specs_exit_cleanly(self, files, capsys,
                                                   spec, fragment):
        gpath, mpath = files
        rc = cli_main(["simulate", gpath, mpath, "--slowdown", spec])
        assert rc == 2
        assert fragment in capsys.readouterr().err

    def test_missing_graph_file_exits_cleanly(self, capsys):
        rc = cli_main(["simulate", "/nonexistent/g.json",
                       "--algorithm", "heft"])
        assert rc == 2
        assert "cannot load inputs" in capsys.readouterr().err

    def test_malformed_graph_json_exits_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else"}')
        rc = cli_main(["simulate", str(bad), "--algorithm", "heft"])
        assert rc == 2
        assert "cannot load inputs" in capsys.readouterr().err

    def test_malformed_mapping_json_exits_cleanly(self, files, tmp_path,
                                                  capsys):
        gpath, _ = files
        bad = tmp_path / "mapping.json"
        bad.write_text("not json at all")
        rc = cli_main(["simulate", gpath, str(bad)])
        assert rc == 2
        assert "cannot load mapping" in capsys.readouterr().err
