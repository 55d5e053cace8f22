"""Shared-resource runtime: cross-job FPGA area, link slots, energy.

The acceptance contract of the shared-resource model:

- **exactness** — zero-noise, unlimited-link-slot, single-job runs stay
  bit-identical to ``CostModel.simulate()`` (the ledger and the slot
  queue only ever *add* waiting under genuine contention);
- **no silent co-residency** — concurrent jobs whose combined FPGA usage
  exceeds the platform budget wait (or are re-routed by a replan
  policy); at no instant does running fabric usage exceed the capacity;
- **energy** — traces account compute/transfer/idle energy at the
  :mod:`repro.evaluation.energy` rates, including work rolled back by
  failures;
- plus the satellite bugfixes: one shared area tolerance
  (:data:`repro.evaluation.costmodel.AREA_TOL`) across static mapping
  and runtime replanning, slowdown-triggered replanning, and the
  NaN-free ``batch_size_mean`` stat.
"""

import dataclasses
import io
import json
import math

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.evaluation import AREA_TOL, CostModel, MappingEvaluator
from repro.evaluation.energy import EnergyModel
from repro.evaluation.trace import simulate_trace
from repro.graphs.generators import (
    augment_workflow,
    make_workflow,
    random_sp_graph,
)
from repro.io import graph_to_dict, mapping_to_dict, platform_from_dict, platform_to_dict
from repro.mappers import HeftMapper, sp_first_fit
from repro.platform import paper_platform
from repro.runtime import (
    AreaWait,
    DeviceFailure,
    DeviceSlowdown,
    Job,
    LinkWait,
    RuntimeEngine,
    simulate_mapping,
    throughput_report,
)

FPGA = 2  # index of the area-capped device on the paper platform


@pytest.fixture(scope="module")
def platform():
    return paper_platform()


def _fpga_burst_graph(n_tasks, n_fpga, area, seed):
    """An SP graph whose first ``n_fpga`` tasks carry real FPGA area."""
    g = random_sp_graph(n_tasks, np.random.default_rng(seed))
    for t in g.tasks():
        g.params(t).area = 0.0
    for t in g.tasks()[:n_fpga]:
        g.params(t).area = area
    return g


def _peak_fpga_usage(trace, model):
    """Max concurrent fabric usage over all running FPGA tasks."""
    events = []
    for t in trace.tasks:
        if t.device == FPGA:
            a = float(model.area[t.index])
            if a > 0.0:
                events.append((t.start, 1, a))
                events.append((t.finish, 0, a))
    events.sort(key=lambda e: (e[0], e[1]))
    cur = peak = 0.0
    for _, phase, a in events:
        cur = cur + a if phase else cur - a
        peak = max(peak, cur)
    return peak


# ---------------------------------------------------------------------------
# cross-job area ledger
# ---------------------------------------------------------------------------
class TestCrossJobArea:
    def test_concurrent_oversubscription_waits_never_coresides(self, platform):
        """Two feasible jobs whose sum exceeds the budget must serialize
        their fabric claims — the PR-1/2 engine silently co-resided."""
        cap = platform.area_capacities()[FPGA]
        g = _fpga_burst_graph(30, 4, cap / 5, seed=0)  # 0.8 cap per job
        model = CostModel(g, platform)
        mapping = [FPGA if i < 4 else 0 for i in range(g.n_tasks)]
        assert model.is_feasible(mapping)
        trace = RuntimeEngine(platform).run([
            Job(g, mapping, arrival=0.0, name="a"),
            Job(g, mapping, arrival=0.0, name="b"),
        ])
        assert trace.area_wait_time > 0
        assert trace.n_area_waits >= 1
        waits = [e for e in trace.events if isinstance(e, AreaWait)]
        assert len(waits) == trace.n_area_waits
        assert all(w.waited > 0 and w.device == FPGA for w in waits)
        assert _peak_fpga_usage(trace, model) <= cap + AREA_TOL
        assert all(job.completion < float("inf") for job in trace.jobs)

    def test_three_way_burst_stays_within_budget(self, platform):
        cap = platform.area_capacities()[FPGA]
        g = _fpga_burst_graph(24, 3, cap / 4, seed=3)
        model = CostModel(g, platform)
        mapping = [FPGA if i < 3 else i % 2 for i in range(g.n_tasks)]
        jobs = [Job(g, mapping, arrival=0.0, name=f"j{k}") for k in range(3)]
        trace = RuntimeEngine(platform).run(jobs)
        assert _peak_fpga_usage(trace, model) <= cap + AREA_TOL
        assert len(trace.tasks) == 3 * g.n_tasks

    def test_distinct_graphs_share_one_ledger(self, platform):
        """The ledger is per platform, not per job/graph."""
        cap = platform.area_capacities()[FPGA]
        g1 = _fpga_burst_graph(20, 2, cap * 0.45, seed=5)
        g2 = _fpga_burst_graph(26, 2, cap * 0.45, seed=6)
        m1 = [FPGA if i < 2 else 0 for i in range(g1.n_tasks)]
        m2 = [FPGA if i < 2 else 0 for i in range(g2.n_tasks)]
        trace = RuntimeEngine(platform).run([
            Job(g1, m1, arrival=0.0, name="g1"),
            Job(g2, m2, arrival=0.0, name="g2"),
        ])
        # combined peak across both graphs must respect the one budget
        events = []
        for jr, model in ((trace.jobs[0], CostModel(g1, platform)),
                          (trace.jobs[1], CostModel(g2, platform))):
            for t in jr.tasks:
                if t.device == FPGA and model.area[t.index] > 0:
                    events.append((t.start, 1, float(model.area[t.index])))
                    events.append((t.finish, 0, float(model.area[t.index])))
        events.sort(key=lambda e: (e[0], e[1]))
        cur = peak = 0.0
        for _, phase, a in events:
            cur = cur + a if phase else cur - a
            peak = max(peak, cur)
        assert peak <= cap + AREA_TOL

    def test_replan_policy_routes_pressured_arrival(self, platform):
        """With a policy, an arrival under fabric pressure is re-mapped
        against the residual capacity instead of queueing blindly."""
        cap = platform.area_capacities()[FPGA]
        g = _fpga_burst_graph(30, 4, cap / 5, seed=0)
        model = CostModel(g, platform)
        mapping = [FPGA if i < 4 else 0 for i in range(g.n_tasks)]
        jobs = [
            Job(g, mapping, arrival=0.0, name="a"),
            Job(g, mapping, arrival=0.0, name="b"),
        ]
        trace = RuntimeEngine(platform, replan_policy="heft").run(jobs)
        assert sum(j.n_remapped for j in trace.jobs) > 0
        assert _peak_fpga_usage(trace, model) <= cap + AREA_TOL

    def test_single_job_never_waits(self, platform):
        """A statically-feasible single job cannot contend with itself."""
        cap = platform.area_capacities()[FPGA]
        g = _fpga_burst_graph(30, 5, cap / 5, seed=1)  # exactly full fabric
        mapping = [FPGA if i < 5 else 0 for i in range(g.n_tasks)]
        trace = simulate_mapping(g, platform, mapping)
        assert trace.area_wait_time == 0.0
        assert trace.n_area_waits == 0


# ---------------------------------------------------------------------------
# exactness: zero noise + unlimited slots + single job == the cost model
# ---------------------------------------------------------------------------
class TestExactness:
    @pytest.mark.parametrize("family", ["sp", "montage"])
    def test_bit_identity_with_area_and_links_idle(self, family, platform):
        if family == "sp":
            g = random_sp_graph(40, np.random.default_rng(7))
        else:
            g = make_workflow("montage", 60, np.random.default_rng(7))
            augment_workflow(g, np.random.default_rng(8))
        ev = MappingEvaluator(g, platform, n_random_schedules=5)
        mapping = list(sp_first_fit().map(ev).mapping)
        analytic = ev.model.simulate(mapping)
        # unlimited slots (the default): the exact analytic recurrence
        trace = simulate_mapping(g, platform, mapping)
        assert trace.makespan == analytic
        # a slot pool wider than the number of transfers can never queue:
        # the claim arithmetic degenerates to the analytic formula
        wide = simulate_mapping(g, platform, mapping, link_slots=4096)
        assert wide.makespan == analytic
        assert wide.link_wait_time == 0.0
        # per-task times match the analytic trace twin exactly
        ref = simulate_trace(ev.model, mapping)
        got = {t.index: t for t in trace.tasks}
        for r in ref.tasks:
            assert got[r.index].start == r.start
            assert got[r.index].finish == r.finish

    def test_engine_energy_matches_energy_model(self, platform):
        g = make_workflow("epigenomics", 50, np.random.default_rng(4))
        augment_workflow(g, np.random.default_rng(5))
        ev = MappingEvaluator(g, platform, n_random_schedules=5)
        mapping = list(HeftMapper().map(ev).mapping)
        analytic = ev.model.simulate(mapping)
        trace = simulate_mapping(g, platform, mapping)
        expected = EnergyModel(ev.model).energy(mapping, makespan=analytic)
        assert trace.energy_j == pytest.approx(expected, rel=1e-12)
        assert trace.wasted_energy_j == 0.0
        # the idle floor covers the serving horizon, not absolute time:
        # a delayed arrival is not charged pre-arrival platform idle
        late = RuntimeEngine(platform).run(
            Job(g, mapping, arrival=1.0, name="late")
        )
        assert late.energy_j == pytest.approx(expected, rel=1e-12)

    def test_platform_link_slots_round_trips_json(self, platform):
        doc = platform_to_dict(platform)
        assert doc["link_slots"] is None
        p2 = platform_from_dict(doc)
        assert p2.link_slots is None
        tight = type(platform)(
            platform.devices, platform.bandwidth_gbps, platform.latency_s,
            link_slots=2,
        )
        back = platform_from_dict(platform_to_dict(tight))
        assert back.link_slots == 2
        # 0 is the engine/CLI spelling of "unlimited": normalized to None
        zero = type(platform)(
            platform.devices, platform.bandwidth_gbps,
            platform.latency_s, link_slots=0,
        )
        assert zero.link_slots is None
        with pytest.raises(ValueError, match="link_slots"):
            type(platform)(
                platform.devices, platform.bandwidth_gbps,
                platform.latency_s, link_slots=-1,
            )


# ---------------------------------------------------------------------------
# link-slot contention
# ---------------------------------------------------------------------------
class TestLinkSlots:
    @pytest.fixture(scope="class")
    def stream(self, platform):
        g = random_sp_graph(30, np.random.default_rng(2))
        ev = MappingEvaluator(g, platform, n_random_schedules=5)
        mapping = list(HeftMapper().map(ev).mapping)
        base = ev.model.simulate(mapping)
        jobs = [
            Job(g, mapping, arrival=k * base / 4, name=f"j{k}")
            for k in range(4)
        ]
        return g, mapping, jobs

    def test_fewer_slots_monotonically_slower(self, platform, stream):
        _, _, jobs = stream
        spans = {}
        for slots in (0, 2, 1):
            trace = RuntimeEngine(platform, link_slots=slots).run(jobs)
            spans[slots] = trace.makespan
            if slots == 0:
                assert trace.link_wait_time == 0.0
            else:
                assert trace.link_wait_time > 0.0
                assert any(
                    isinstance(e, LinkWait) for e in trace.events
                )
        assert spans[0] <= spans[2] <= spans[1]
        assert spans[1] > spans[0]

    def test_engine_overrides_platform_slots(self, platform, stream):
        _, _, jobs = stream
        tight = type(platform)(
            platform.devices, platform.bandwidth_gbps, platform.latency_s,
            link_slots=1,
        )
        inherited = RuntimeEngine(tight).run(jobs)
        assert inherited.link_wait_time > 0.0
        # 0 forces the unlimited model even on a slot-limited platform
        unlimited = RuntimeEngine(tight, link_slots=0).run(jobs)
        assert unlimited.link_wait_time == 0.0
        assert unlimited.makespan < inherited.makespan

    def test_link_waits_survive_rollback_replan(self, platform, stream):
        """Scenario rollback rebuilds slot state without losing claims of
        committed work — the run still completes, waits stay recorded."""
        g, mapping, jobs = stream
        model = CostModel(g, platform)
        t_fail = 0.3 * model.simulate(list(mapping))
        trace = RuntimeEngine(
            platform, link_slots=1,
            scenarios=[DeviceFailure(t_fail, device=1)],
        ).run(jobs)
        assert all(j.completion < float("inf") for j in trace.jobs)
        assert trace.link_wait_time > 0.0
        report = throughput_report(trace)
        assert report.link_wait_s == trace.link_wait_time
        assert report.energy_j == pytest.approx(trace.energy_j)


# ---------------------------------------------------------------------------
# energy under failures
# ---------------------------------------------------------------------------
class TestEnergy:
    def test_failure_burns_wasted_energy(self, platform):
        g = random_sp_graph(20, np.random.default_rng(6))
        mapping = [1] * g.n_tasks  # everything on the GPU
        model = CostModel(g, platform)
        t_fail = 0.3 * model.simulate(list(mapping))
        clean = simulate_mapping(g, platform, mapping)
        failed = simulate_mapping(
            g, platform, mapping,
            scenarios=[DeviceFailure(t_fail, device=1)],
        )
        assert failed.n_killed >= 1
        assert failed.wasted_energy_j > 0.0
        assert clean.wasted_energy_j == 0.0
        # rolled-back work is charged on top of the useful executions the
        # final trace records (no FPGA tasks here, so duration == exec)
        watts = [d.watts_active for d in platform.devices]
        useful = sum(
            (t.finish - t.start) * watts[t.device] for t in failed.tasks
        )
        assert failed.compute_energy_j > useful
        assert failed.energy_j == pytest.approx(
            failed.compute_energy_j + failed.transfer_energy_j
            + failed.idle_energy_j
        )

    def test_slowdown_increases_compute_energy(self, platform):
        g = random_sp_graph(25, np.random.default_rng(9))
        mapping = [0] * g.n_tasks
        clean = simulate_mapping(g, platform, mapping)
        slowed = simulate_mapping(
            g, platform, mapping,
            scenarios=[DeviceSlowdown(0.0, device=0, factor=2.0)],
        )
        assert slowed.compute_energy_j > clean.compute_energy_j


# ---------------------------------------------------------------------------
# slowdown-triggered replanning (satellite)
# ---------------------------------------------------------------------------
class TestSlowdownReplan:
    @pytest.fixture(scope="class")
    def gpu_heavy(self, platform):
        g = random_sp_graph(30, np.random.default_rng(2))
        mapping = [1] * g.n_tasks
        analytic = CostModel(g, platform).simulate(list(mapping))
        return g, mapping, analytic

    def test_policy_rescues_big_slowdown(self, platform, gpu_heavy):
        g, mapping, analytic = gpu_heavy
        scn = [DeviceSlowdown(0.2 * analytic, device=1, factor=10.0)]
        plain = simulate_mapping(g, platform, mapping, scenarios=scn)
        replanned = simulate_mapping(
            g, platform, mapping, scenarios=scn, replan_policy="heft"
        )
        assert sum(j.n_remapped for j in replanned.jobs) > 0
        assert replanned.makespan < plain.makespan

    def test_below_threshold_no_replan(self, platform, gpu_heavy):
        g, mapping, analytic = gpu_heavy
        trace = simulate_mapping(
            g, platform, mapping,
            scenarios=[DeviceSlowdown(0.2 * analytic, device=1, factor=1.5)],
            replan_policy="heft",
        )
        assert sum(j.n_remapped for j in trace.jobs) == 0

    def test_cumulative_slowdowns_cross_threshold(self, platform, gpu_heavy):
        """Two x1.5 slowdowns compound to 2.25 >= the 2.0 threshold."""
        g, mapping, analytic = gpu_heavy
        scn = [
            DeviceSlowdown(0.1 * analytic, device=1, factor=1.5),
            DeviceSlowdown(0.2 * analytic, device=1, factor=1.5),
        ]
        trace = simulate_mapping(
            g, platform, mapping, scenarios=scn, replan_policy="heft"
        )
        assert sum(j.n_remapped for j in trace.jobs) > 0

    def test_threshold_validation(self, platform):
        with pytest.raises(ValueError, match="slowdown_replan_threshold"):
            RuntimeEngine(platform, slowdown_replan_threshold=1.0)

    def test_arrival_after_slowdown_routes_through_policy(
        self, platform, gpu_heavy
    ):
        """A job arriving onto an already-degraded device is re-mapped,
        just like in-flight jobs were when the slowdown struck."""
        g, mapping, analytic = gpu_heavy
        scn = [DeviceSlowdown(1e-4, device=1, factor=10.0)]
        late = 5 * analytic
        jobs = [Job(g, mapping, arrival=late, name="late")]
        plain = RuntimeEngine(platform, scenarios=scn).run(jobs)
        routed = RuntimeEngine(
            platform, scenarios=scn, replan_policy="heft"
        ).run(jobs)
        assert sum(j.n_remapped for j in plain.jobs) == 0
        assert sum(j.n_remapped for j in routed.jobs) > 0
        assert routed.jobs[0].makespan < plain.jobs[0].makespan


# ---------------------------------------------------------------------------
# satellite bugfixes: shared tolerance, batch_size_mean
# ---------------------------------------------------------------------------
class TestFeasibilitySweep:
    def test_remap_accepts_exactly_full_fpga(self, platform):
        """Replan and static mapping agree at the area boundary: a remap
        that fills the FPGA to exactly its capacity is feasible, just as
        ``CostModel.is_feasible`` says."""
        cap = platform.area_capacities()[FPGA]
        g = random_sp_graph(12, np.random.default_rng(4))
        for t in g.tasks():
            g.params(t).area = 0.0
        heavy = g.tasks()[:2]
        for t in heavy:
            g.params(t).area = cap / 2  # together: exactly the budget
        model = CostModel(g, platform)
        assert model.is_feasible([FPGA, FPGA] + [0] * (g.n_tasks - 2))
        trace = simulate_mapping(
            g, platform, [0] * g.n_tasks,
            scenarios=[
                DeviceFailure(0.0, device=0),
                DeviceFailure(0.0, device=1),
            ],
        )
        final = [0] * g.n_tasks
        for t in trace.tasks:
            final[t.index] = t.device
        assert all(d == FPGA for d in final)
        assert model.is_feasible(final)

    def test_shared_tolerance_is_single_sourced(self, platform):
        """The engine's ledgers and replan path, the list schedulers and
        the cost model take their budgets from one function."""
        from repro.evaluation.costmodel import area_limit_units as src
        import repro.runtime.engine as engine_mod
        from repro.mappers.heft import ListSchedule

        assert engine_mod.area_limit_units is src
        g = random_sp_graph(8, np.random.default_rng(0))
        ev = MappingEvaluator(g, platform)
        assert ev.model.limit_units == src(platform)
        assert ListSchedule(ev)._area_left == src(platform)

    def test_batch_size_mean_zero_batches_is_finite(self, platform):
        """A mapper that never batches reports 0.0, not NaN/ZeroDivision."""
        g = random_sp_graph(15, np.random.default_rng(0))
        ev = MappingEvaluator(g, platform, n_random_schedules=5)
        res = HeftMapper().map(ev)
        assert res.stats["n_batched_evaluations"] == 0.0
        assert res.stats["batch_size_mean"] == 0.0
        assert math.isfinite(res.stats["batch_size_mean"])


# ---------------------------------------------------------------------------
# contention sweep driver
# ---------------------------------------------------------------------------
class TestContentionDriver:
    def test_smoke_run_and_csv(self, tmp_path):
        from repro.experiments import EXPERIMENTS, SCALES, contention, write_csv

        cfg = dataclasses.replace(
            SCALES["smoke"],
            contention_n_tasks=20,
            contention_graphs=1,
            contention_jobs=3,
            contention_link_slots=[0, 1],
            contention_period_fracs=[0.5],
            n_random_schedules=5,
        )
        result = contention.run(scale=cfg, seed=EXPERIMENTS["contention"].seed,
                                workers=1)
        algorithms = result.algorithms()
        assert len(algorithms) == 2
        assert len(result.points) == 2 * 2 * 1  # slots x algos x periods
        for p in result.points:
            assert p.jobs_per_second > 0
            assert math.isfinite(p.energy_per_job_j)
            assert p.area_wait_s >= 0.0 and p.link_wait_s >= 0.0
        # slot-limited cells are never faster than unlimited ones
        for a in algorithms:
            assert (
                result.cell(a, 1, 0.5).jobs_per_second
                <= result.cell(a, 0, 0.5).jobs_per_second + 1e-12
            )
        buf = io.StringIO()
        write_csv(result, fileobj=buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("algorithm,link_slots,period_frac")
        assert len(lines) == 1 + len(result.points)
        path = write_csv(result, str(tmp_path / "c.csv"))
        assert (tmp_path / "c.csv").exists() and path.endswith("c.csv")


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------
class TestCli:
    @pytest.fixture()
    def files(self, tmp_path, platform):
        g = random_sp_graph(25, np.random.default_rng(3))
        ev = MappingEvaluator(g, platform, n_random_schedules=5)
        mapping = list(HeftMapper().map(ev).mapping)
        gpath = tmp_path / "graph.json"
        mpath = tmp_path / "mapping.json"
        gpath.write_text(json.dumps(graph_to_dict(g)))
        mpath.write_text(json.dumps(mapping_to_dict(g, platform, mapping)))
        return str(gpath), str(mpath)

    def test_simulate_prints_energy(self, files, capsys):
        gpath, mpath = files
        rc = cli_main(["simulate", gpath, mpath])
        assert rc == 0
        out = capsys.readouterr().out
        assert "energy" in out and "J" in out

    def test_simulate_link_slots_stream(self, files, capsys):
        gpath, mpath = files
        rc = cli_main([
            "simulate", gpath, mpath, "--arrivals", "4", "--period", "0.05",
            "--link-slots", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "link slots        : 1" in out
        assert "link waits" in out
        assert "J/job" in out

    def test_simulate_negative_link_slots_rejected(self, files, capsys):
        gpath, mpath = files
        rc = cli_main(["simulate", gpath, mpath, "--link-slots", "-1"])
        assert rc == 2

    def test_replan_policy_with_slowdown_accepted(self, files, capsys):
        gpath, mpath = files
        rc = cli_main([
            "simulate", gpath, mpath,
            "--slowdown", "vega56@0.01:8.0", "--replan-policy", "heft",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replan policy     : heft" in out

    def test_replan_policy_still_needs_a_scenario(self, files, capsys):
        gpath, mpath = files
        rc = cli_main([
            "simulate", gpath, mpath, "--replan-policy", "heft",
        ])
        assert rc == 2

    def test_replan_policy_with_arrival_stream_accepted(self, files, capsys):
        """Arrivals under area pressure route through the policy, so a
        multi-job stream is a valid --replan-policy target on its own."""
        gpath, mpath = files
        rc = cli_main([
            "simulate", gpath, mpath, "--arrivals", "3", "--period", "0.05",
            "--replan-policy", "heft",
        ])
        assert rc == 0
        assert "jobs" in capsys.readouterr().out

    def test_slowdown_replan_threshold_flag(self, files, capsys):
        gpath, mpath = files
        rc = cli_main([
            "simulate", gpath, mpath,
            "--slowdown", "0@0.0:1.5", "--replan-policy", "heft",
            "--slowdown-replan-threshold", "1.2",
        ])
        assert rc == 0
        assert "slowdown replan" in capsys.readouterr().out
        rc = cli_main([
            "simulate", gpath, mpath,
            "--slowdown", "0@0.0:1.5", "--replan-policy", "heft",
            "--slowdown-replan-threshold", "1.0",
        ])
        assert rc == 2
