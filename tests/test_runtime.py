"""Runtime engine behaviour: noise, seeds, scenarios, streams, CLI.

The zero-noise equivalence invariant lives in
``tests/test_runtime_equivalence.py``; this module covers everything the
engine adds *beyond* the analytic model — the reproducibility contract
(same seed, same trace), the perturbation distributions, device
slowdown/failure replanning, arrival-stream serving, and the ``repro
simulate`` CLI verb end to end.
"""

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.evaluation import CostModel, MappingEvaluator, render_gantt
from repro.graphs.generators import random_sp_graph
from repro.io import graph_to_dict, mapping_to_dict
from repro.mappers import HeftMapper
from repro.platform import paper_platform
from repro.runtime import (
    DeviceFailed,
    DeviceFailure,
    DeviceSlowdown,
    GammaNoise,
    Job,
    JobArrived,
    JobCompleted,
    LognormalNoise,
    NoNoise,
    RuntimeEngine,
    TaskFinished,
    TaskKilled,
    TaskReady,
    TaskRemapped,
    TaskStarted,
    periodic_stream,
    poisson_stream,
    replicate,
    robustness_report,
    simulate_mapping,
    throughput_report,
)


@pytest.fixture(scope="module")
def setup():
    platform = paper_platform()
    graph = random_sp_graph(35, np.random.default_rng(2))
    ev = MappingEvaluator(graph, platform, n_random_schedules=5)
    mapping = HeftMapper().map(ev).mapping
    return platform, graph, mapping, ev.model


def _trace_signature(trace):
    return [
        (t.task, t.device, t.slot, t.start, t.finish) for t in trace.tasks
    ]


# ---------------------------------------------------------------------------
# seed determinism (the reproducibility contract)
# ---------------------------------------------------------------------------
class TestSeedDeterminism:
    def test_same_seed_identical_trace(self, setup):
        platform, graph, mapping, _ = setup
        noise = LognormalNoise(0.3, transfer_sigma=0.1)
        a = simulate_mapping(graph, platform, mapping, noise=noise, rng=42)
        b = simulate_mapping(graph, platform, mapping, noise=noise, rng=42)
        assert a.makespan == b.makespan
        assert _trace_signature(a) == _trace_signature(b)
        assert [e.kind for e in a.events] == [e.kind for e in b.events]

    def test_different_seeds_distinct_traces(self, setup):
        platform, graph, mapping, _ = setup
        noise = LognormalNoise(0.3)
        a = simulate_mapping(graph, platform, mapping, noise=noise, rng=1)
        b = simulate_mapping(graph, platform, mapping, noise=noise, rng=2)
        assert a.makespan != b.makespan

    def test_zero_noise_ignores_seed(self, setup):
        platform, graph, mapping, _ = setup
        a = simulate_mapping(graph, platform, mapping, rng=1)
        b = simulate_mapping(graph, platform, mapping, rng=999)
        assert _trace_signature(a) == _trace_signature(b)

    def test_replicate_reproducible(self, setup):
        platform, graph, mapping, _ = setup
        kw = dict(n=5, noise=GammaNoise(0.25), seed=9)
        ms_a = [t.makespan for t in replicate(graph, platform, mapping, **kw)]
        ms_b = [t.makespan for t in replicate(graph, platform, mapping, **kw)]
        assert ms_a == ms_b
        assert len(set(ms_a)) == 5  # replications differ from each other


# ---------------------------------------------------------------------------
# perturbation models
# ---------------------------------------------------------------------------
class TestNoiseModels:
    @pytest.mark.parametrize(
        "noise",
        [LognormalNoise(0.4), GammaNoise(0.4)],
        ids=["lognormal", "gamma"],
    )
    def test_factors_mean_one(self, noise):
        rng = np.random.default_rng(0)
        samples = np.array([noise.exec_factor(rng) for _ in range(20000)])
        assert samples.min() > 0
        assert samples.mean() == pytest.approx(1.0, abs=0.02)

    def test_zero_levels_are_exact(self):
        rng = np.random.default_rng(0)
        assert LognormalNoise(0.0).exec_factor(rng) == 1.0
        assert GammaNoise(0.3).transfer_factor(rng) == 1.0  # transfer_cv=0
        assert NoNoise().deterministic
        assert LognormalNoise(0.0).deterministic
        assert GammaNoise(0.0).deterministic
        assert not LognormalNoise(0.0, transfer_sigma=0.1).deterministic

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            LognormalNoise(-0.1)
        with pytest.raises(ValueError):
            GammaNoise(0.1, transfer_cv=-1.0)

    def test_noisy_runs_bracket_analytic(self, setup):
        platform, graph, mapping, model = setup
        analytic = model.simulate(list(mapping))
        report = robustness_report(
            replicate(graph, platform, mapping, n=30,
                      noise=LognormalNoise(0.2), seed=4),
            analytic,
        )
        assert report.best < analytic < report.worst
        assert report.p50 <= report.p95 <= report.worst
        assert report.degradation > -0.5  # sane scale


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------
class TestScenarios:
    def test_slowdown_on_used_device_hurts(self, setup):
        platform, graph, mapping, model = setup
        base = model.simulate(list(mapping))
        trace = simulate_mapping(
            graph, platform, mapping,
            scenarios=[DeviceSlowdown(0.0, device=1, factor=4.0)],
        )
        assert 1 in set(np.asarray(mapping))
        assert trace.makespan > base

    def test_slowdown_before_start_equals_scaled_platform(self, setup):
        """A slowdown at t=0 must equal analytically scaling the device."""
        platform, graph, mapping, model = setup
        trace = simulate_mapping(
            graph, platform, mapping,
            scenarios=[DeviceSlowdown(0.0, device=0, factor=2.0)],
        )
        cpu_tasks = [t for t in trace.tasks if t.device == 0]
        for t in cpu_tasks:
            i = t.index
            nominal = model.exec_rows[i][0]
            if t.finish > t.start:  # not drain-extended
                assert t.finish - t.start == pytest.approx(2.0 * nominal)

    def test_failure_at_zero_equals_analytic_remap(self, setup):
        platform, graph, mapping, model = setup
        trace = simulate_mapping(
            graph, platform, mapping,
            scenarios=[DeviceFailure(0.0, device=1)],
        )
        remapped = [0 if d == 1 else int(d) for d in mapping]
        assert trace.makespan == model.simulate(remapped)

    def test_mid_run_failure_completes_off_device(self, setup):
        platform, graph, mapping, model = setup
        t_fail = 0.5 * model.simulate(list(mapping))
        trace = simulate_mapping(
            graph, platform, mapping,
            scenarios=[DeviceFailure(t_fail, device=1)],
        )
        assert len(trace.tasks) == graph.n_tasks
        assert any(isinstance(e, DeviceFailed) for e in trace.events)
        # nothing may run on the failed device after the failure instant
        for t in trace.tasks:
            if t.device == 1:
                assert t.start <= t_fail
        # decisions made before the failure are never rewritten
        finished_before = [
            e for e in trace.events
            if isinstance(e, TaskFinished) and e.time <= t_fail
        ]
        assert finished_before, "expected some work to finish pre-failure"

    def test_killed_tasks_reexecute(self):
        """A long task running on the failing device is killed + restarted."""
        platform = paper_platform()
        graph = random_sp_graph(20, np.random.default_rng(6))
        mapping = [1] * graph.n_tasks  # everything on the GPU
        model = CostModel(graph, platform)
        t_fail = 0.3 * model.simulate(list(mapping))
        trace = simulate_mapping(
            graph, platform, mapping,
            scenarios=[DeviceFailure(t_fail, device=1)],
        )
        assert trace.n_killed >= 1
        assert any(isinstance(e, TaskKilled) for e in trace.events)
        assert any(isinstance(e, TaskRemapped) for e in trace.events)
        assert all(t.device == 0 or t.finish <= t_fail for t in trace.tasks)
        assert trace.jobs[0].completion < float("inf")

    def test_failure_remap_respects_area_budget(self):
        """Work stranded by failures never lands on a full FPGA."""
        platform = paper_platform()
        graph = random_sp_graph(40, np.random.default_rng(9))
        capacity = platform.area_capacities()[2]
        for t in graph.tasks():
            graph.params(t).area = capacity / 3  # FPGA fits at most 3 tasks
        mapping = [0] * graph.n_tasks
        model = CostModel(graph, platform)
        t_fail = 0.4 * model.simulate(list(mapping))
        trace = simulate_mapping(
            graph, platform, mapping,
            scenarios=[DeviceFailure(t_fail, device=0)],
        )
        final = [0] * graph.n_tasks
        for t in trace.tasks:
            final[t.index] = t.device
        assert model.is_feasible(final)
        assert sum(1 for d in final if d == 2) <= 3

    def test_failure_remap_infeasible_raises(self):
        """If no surviving device can host the work, fail loudly."""
        platform = paper_platform()
        graph = random_sp_graph(12, np.random.default_rng(4))
        capacity = platform.area_capacities()[2]
        for t in graph.tasks():
            graph.params(t).area = capacity  # each task fills the FPGA
        mapping = [0] * graph.n_tasks
        with pytest.raises(RuntimeError, match="area budget"):
            simulate_mapping(
                graph, platform, mapping,
                scenarios=[
                    DeviceFailure(0.0, device=0),
                    DeviceFailure(0.0, device=1),
                ],
            )

    def test_failure_after_completion_is_noop(self, setup):
        """Devices failing after all work is done don't abort the trace."""
        platform, graph, mapping, model = setup
        base = model.simulate(list(mapping))
        trace = simulate_mapping(
            graph, platform, mapping,
            scenarios=[DeviceFailure(base * 10, device=d)
                       for d in range(platform.n_devices)],
        )
        assert trace.makespan == base
        assert trace.n_killed == 0

    def test_remapped_tasks_reannounce_ready_on_new_device(self):
        """The last TaskReady of a remapped task names its actual device."""
        platform = paper_platform()
        graph = random_sp_graph(20, np.random.default_rng(6))
        mapping = [1] * graph.n_tasks
        model = CostModel(graph, platform)
        t_fail = 0.3 * model.simulate(list(mapping))
        trace = simulate_mapping(
            graph, platform, mapping,
            scenarios=[DeviceFailure(t_fail, device=1)],
        )
        last_ready = {}
        for e in trace.events:
            if isinstance(e, TaskReady):
                last_ready[e.task] = e.device
        for t in trace.tasks:
            assert last_ready[t.task] == t.device

    def test_job_arrived_precedes_its_other_events(self):
        """No per-job event (incl. arrival-time remaps) before JobArrived."""
        platform = paper_platform()
        graph = random_sp_graph(15, np.random.default_rng(8))
        model = CostModel(graph, platform)
        base = model.simulate([1] * graph.n_tasks)
        jobs = [
            Job(graph, [1] * graph.n_tasks, arrival=0.0, name="first"),
            Job(graph, [1] * graph.n_tasks, arrival=3 * base, name="late"),
        ]
        engine = RuntimeEngine(
            platform, scenarios=[DeviceFailure(2 * base, device=1)]
        )
        trace = engine.run(jobs)
        arrived = set()
        for e in trace.events:
            job = getattr(e, "job", None)
            if job is None:
                continue
            if isinstance(e, JobArrived):
                arrived.add(e.job)
            else:
                assert e.job in arrived, f"{e} before JobArrived({e.job})"
        assert arrived == {"first", "late"}
        assert any(isinstance(e, TaskRemapped) and e.job == "late"
                   for e in trace.events)

    def test_fallback_device_honored(self):
        platform = paper_platform()
        graph = random_sp_graph(15, np.random.default_rng(8))
        mapping = [1] * graph.n_tasks
        trace = simulate_mapping(
            graph, platform, mapping,
            scenarios=[DeviceFailure(0.0, device=1, fallback=2)],
        )
        remaps = [e for e in trace.events if isinstance(e, TaskRemapped)]
        assert remaps and all(e.to_device == 2 for e in remaps)

    def test_scenario_validation(self):
        platform = paper_platform()
        with pytest.raises(ValueError):
            RuntimeEngine(platform, scenarios=[DeviceFailure(0.0, device=9)])
        with pytest.raises(ValueError):
            DeviceFailure(0.0, device=1, fallback=1)
        with pytest.raises(ValueError):
            DeviceSlowdown(0.0, device=0, factor=0.0)
        with pytest.raises(ValueError):
            DeviceSlowdown(-1.0, device=0, factor=2.0)


# ---------------------------------------------------------------------------
# arrival streams / throughput serving
# ---------------------------------------------------------------------------
class TestArrivalStreams:
    def test_contended_stream_fifo_latency_grows(self, setup):
        platform, graph, mapping, model = setup
        base = model.simulate(list(mapping))
        jobs = periodic_stream(graph, mapping, 4, period=base / 4)
        trace = RuntimeEngine(platform).run(jobs)
        latencies = [j.makespan for j in trace.jobs]
        assert latencies[0] == base
        assert latencies[-1] > latencies[0]  # queueing under contention
        report = throughput_report(trace)
        assert report.n_jobs == 4
        assert 0 < report.jobs_per_second < float("inf")
        assert report.latency_worst == max(latencies)
        done = [e for e in trace.events if isinstance(e, JobCompleted)]
        assert len(done) == 4

    def test_poisson_stream_generation(self, setup):
        platform, graph, mapping, _ = setup
        rng = np.random.default_rng(0)
        jobs = poisson_stream(graph, mapping, 6, rate=5.0, rng=rng)
        arrivals = [j.arrival for j in jobs]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0
        trace = RuntimeEngine(platform).run(jobs)
        assert all(j.completion >= j.arrival for j in trace.jobs)

    def test_stream_helpers_validate(self, setup):
        _, graph, mapping, _ = setup
        with pytest.raises(ValueError):
            periodic_stream(graph, mapping, 0, period=1.0)
        with pytest.raises(ValueError):
            poisson_stream(graph, mapping, 3, rate=0.0,
                           rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# traces, state machine, and validation
# ---------------------------------------------------------------------------
class TestTraceAndValidation:
    def test_event_state_machine_order(self, setup):
        platform, graph, mapping, _ = setup
        trace = simulate_mapping(graph, platform, mapping,
                                 noise=LognormalNoise(0.2), rng=5)
        seen = {}
        for e in trace.events:
            if isinstance(e, (TaskReady, TaskStarted, TaskFinished)):
                seen.setdefault(e.task, []).append(type(e).__name__)
        assert len(seen) == graph.n_tasks
        for task, kinds in seen.items():
            assert kinds == ["TaskReady", "TaskStarted", "TaskFinished"]

    def test_event_log_time_ordered(self, setup):
        platform, graph, mapping, _ = setup
        trace = simulate_mapping(graph, platform, mapping,
                                 noise=GammaNoise(0.3), rng=3)
        times = [e.time for e in trace.events]
        assert times == sorted(times)

    def test_trace_renders_gantt(self, setup):
        platform, graph, mapping, model = setup
        trace = simulate_mapping(graph, platform, mapping)
        art = render_gantt(trace, model)
        assert "|" in art and len(art.splitlines()) > 3

    def test_device_busy_accounting(self, setup):
        platform, graph, mapping, _ = setup
        trace = simulate_mapping(graph, platform, mapping)
        assert len(trace.device_busy) == platform.n_devices
        assert sum(trace.device_busy) > 0
        assert all(b <= trace.makespan * d.slots + 1e-9 or not d.serializes
                   for b, d in zip(trace.device_busy, platform.devices))

    def test_infeasible_mapping_rejected(self):
        platform = paper_platform()
        graph = random_sp_graph(30, np.random.default_rng(1))
        for t in graph.tasks():
            graph.params(t).area = 50.0  # far beyond FPGA capacity
        mapping = [2] * graph.n_tasks
        with pytest.raises(ValueError, match="area"):
            simulate_mapping(graph, platform, mapping)

    def test_non_topological_order_rejected(self, setup):
        """A permutation that violates precedence deadlocks -> loud error."""
        platform, graph, mapping, model = setup
        order = list(model.bfs_order)[::-1]
        with pytest.raises(ValueError, match="topological"):
            simulate_mapping(graph, platform, mapping, order=order)

    def test_bad_mapping_length_rejected(self, setup):
        platform, graph, _, _ = setup
        with pytest.raises(ValueError, match="length"):
            simulate_mapping(graph, platform, [0, 1])

    def test_empty_job_list_rejected(self):
        with pytest.raises(ValueError):
            RuntimeEngine(paper_platform()).run([])


# ---------------------------------------------------------------------------
# CLI: repro simulate
# ---------------------------------------------------------------------------
class TestSimulateCli:
    @pytest.fixture()
    def files(self, tmp_path, setup):
        platform, graph, mapping, model = setup
        gpath = tmp_path / "graph.json"
        mpath = tmp_path / "mapping.json"
        gpath.write_text(json.dumps(graph_to_dict(graph)))
        mpath.write_text(json.dumps(
            mapping_to_dict(graph, platform, mapping)
        ))
        return str(gpath), str(mpath)

    def test_simulate_robustness_report(self, files, capsys):
        gpath, mpath = files
        rc = cli_main([
            "simulate", gpath, mpath,
            "--noise", "lognormal", "--sigma", "0.2",
            "--replications", "8", "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "analytic makespan" in out
        assert "p95" in out
        assert "degradation" in out

    def test_simulate_zero_noise_matches_model(self, files, capsys, setup):
        _, _, mapping, model = setup
        gpath, mpath = files
        rc = cli_main(["simulate", gpath, mpath])
        assert rc == 0
        out = capsys.readouterr().out
        expected = f"{model.simulate(list(mapping)) * 1e3:.2f} ms"
        assert expected in out

    def test_simulate_with_mapper_and_scenarios(self, files, capsys):
        gpath, _ = files
        rc = cli_main([
            "simulate", gpath, "--algorithm", "heft",
            "--fail", "vega56@0.2", "--slowdown", "0@0.1:2.0",
            "--replications", "3", "--noise", "gamma", "--sigma", "0.3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "failure" in out and "slowdown" in out

    def test_simulate_arrival_stream(self, files, capsys):
        gpath, mpath = files
        rc = cli_main([
            "simulate", gpath, mpath, "--arrivals", "4", "--period", "0.2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "jobs/s" in out and "latency" in out

    def test_simulate_gantt(self, files, capsys):
        gpath, mpath = files
        rc = cli_main(["simulate", gpath, mpath, "--gantt"])
        assert rc == 0
        assert "ms" in capsys.readouterr().out
