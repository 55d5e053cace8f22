"""The fault-tolerant execution layer: supervision, chaos, checkpoint/resume.

Three acceptance pins from PR 8:

- **chaos proof** — a sweep with injected worker SIGKILLs, hangs and
  transient exceptions produces a byte-identical results CSV to the
  fault-free run (seed-sharding contract: a retried item reuses its
  attached seed, so *when or where* it runs cannot matter);
- **resume proof** — an interrupted ``--checkpoint`` run resumed with
  ``--resume`` recomputes only outstanding items and emits a
  byte-identical CSV;
- **determinism of the chaos plan itself** — same seed ⇒ same injected
  faults, so a chaos test that passes once passes always.
"""

import dataclasses
import io
import json
import os
import time

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS, robustness, write_csv
from repro.experiments.config import get_scale
from repro.experiments.registry import code_digest, open_journal, scale_digest
from repro.experiments.runner import StudyResult
from repro.obs import metrics as obs_metrics
from repro.parallel import (
    ChaosError,
    FaultPlan,
    ItemFailedError,
    JournalError,
    SupervisedPool,
    SweepJournal,
    parallel_map,
    plan_from_env,
    plan_from_spec,
)
from repro.parallel.supervisor import BACKOFF_MAX_S, MAX_ATTEMPTS, backoff_s


@pytest.fixture(autouse=True)
def _no_ambient_chaos(monkeypatch):
    """Every pool below runs clean unless a test arms a plan itself."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)


# module-level workers: the process pool pickles functions by reference
def _double(x):
    return 2 * x


def _always_fail(x):
    raise ValueError(f"cell {x} exploded")


def _slow_double(x):
    """Still running when a sibling worker is killed."""
    time.sleep(0.3)
    return 2 * x


def _append_marker(item):
    """Side-effecting worker counting real executions (resume tests)."""
    path, value = item
    with open(path, "a") as fh:
        fh.write(f"{value}\n")
    return value * 10


# ---------------------------------------------------------------------------
# FaultPlan: deterministic chaos decisions
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_same_seed_same_faults(self):
        a = FaultPlan(seed=11, crash=0.2, hang=0.1, error=0.3)
        b = FaultPlan(seed=11, crash=0.2, hang=0.1, error=0.3)
        decisions = [
            (label, i, att)
            for label in ("noise cell", "mapped graph")
            for i in range(40)
            for att in range(2)
        ]
        assert [a.fault_for(*d) for d in decisions] == \
            [b.fault_for(*d) for d in decisions]

    def test_different_seed_different_faults(self):
        a = FaultPlan(seed=1, crash=0.5)
        b = FaultPlan(seed=2, crash=0.5)
        decisions = [("t", i, 0) for i in range(60)]
        assert [a.fault_for(*d) for d in decisions] != \
            [b.fault_for(*d) for d in decisions]

    def test_rates_select_fault_kinds(self):
        crash_only = FaultPlan(seed=3, crash=1.0)
        assert crash_only.fault_for("t", 0, 0) == "crash"
        error_only = FaultPlan(seed=3, error=1.0)
        assert error_only.fault_for("t", 0, 0) == "error"
        hang_only = FaultPlan(seed=3, hang=1.0)
        assert hang_only.fault_for("t", 0, 0) == "hang"
        never = FaultPlan(seed=3)
        assert all(never.fault_for("t", i, 0) is None for i in range(20))

    def test_attempts_past_max_faults_run_clean(self):
        plan = FaultPlan(seed=3, crash=1.0, max_faults=2)
        assert plan.fault_for("t", 0, 0) == "crash"
        assert plan.fault_for("t", 0, 1) == "crash"
        assert plan.fault_for("t", 0, 2) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=1, crash=1.5)
        with pytest.raises(ValueError):
            FaultPlan(seed=1, crash=0.6, error=0.6)
        with pytest.raises(ValueError):
            FaultPlan(seed=1, timeout_s=0.0)

    def test_inject_error_raises_everywhere(self):
        plan = FaultPlan(seed=1, error=1.0)
        with pytest.raises(ChaosError):
            plan.inject("error", in_worker=False)

    def test_process_faults_are_noops_in_process(self):
        plan = FaultPlan(seed=1, crash=0.5, hang=0.5)
        plan.inject("crash", in_worker=False)   # must not kill the test
        plan.inject("hang", in_worker=False)    # must not sleep hang_s

    def test_spec_round_trip(self):
        plan = plan_from_spec(
            "seed=11, crash=0.15, hang=0.05, error=0.2, timeout=5, "
            "max_faults=2, hang_s=30"
        )
        assert plan == FaultPlan(seed=11, crash=0.15, hang=0.05, error=0.2,
                                 timeout_s=5.0, max_faults=2, hang_s=30.0)

    def test_spec_errors(self):
        with pytest.raises(ValueError):
            plan_from_spec("crash=0.1")          # seed is mandatory
        with pytest.raises(ValueError):
            plan_from_spec("seed=1,nope=2")
        with pytest.raises(ValueError):
            plan_from_spec("seed=1,crash")

    def test_plan_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert plan_from_env() is None
        monkeypatch.setenv("REPRO_CHAOS", "seed=7,error=0.5")
        assert plan_from_env() == FaultPlan(seed=7, error=0.5)


# ---------------------------------------------------------------------------
# the pool's one retry policy: attempt budget, deadline, backoff
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_validation(self, monkeypatch):
        """A malformed armed plan is refused when a pool adopts it,
        before any work is dispatched."""
        for spec in ("seed=1,timeout=0", "seed=1,max_faults=-1",
                     "seed=1,crash=0.8,error=0.8"):
            monkeypatch.setenv("REPRO_CHAOS", spec)
            with pytest.raises(ValueError):
                SupervisedPool(2)

    def test_backoff_is_bounded_exponential(self):
        assert backoff_s(0) == pytest.approx(0.05)
        assert backoff_s(1) == pytest.approx(0.1)
        assert backoff_s(2) == pytest.approx(0.2)
        assert backoff_s(10) == pytest.approx(BACKOFF_MAX_S)   # capped

    def test_for_chaos_outlasts_the_plan(self):
        clean = SupervisedPool(2)
        assert (clean.chaos, clean.max_attempts, clean.timeout_s) == \
            (None, MAX_ATTEMPTS, None)
        plan = FaultPlan(seed=1, crash=0.5, max_faults=4, timeout_s=3.0)
        pool = SupervisedPool(2, chaos=plan)
        assert pool.max_attempts == plan.max_faults + 1
        assert pool.timeout_s == plan.timeout_s
        # a plan faulting fewer attempts keeps the clean budget
        assert SupervisedPool(2, chaos=FaultPlan(seed=1)).max_attempts == \
            MAX_ATTEMPTS

    def test_pool_adopts_the_environment_plan(self, monkeypatch):
        """Without ``chaos=``, a pool arms ``REPRO_CHAOS`` and takes its
        deadline and attempt budget from it — the pool every
        ``repro experiment`` driver opens."""
        monkeypatch.setenv("REPRO_CHAOS", "seed=7,error=0.5,max_faults=5,"
                                          "timeout=4")
        pool = SupervisedPool(2)
        assert pool.chaos == plan_from_env()
        assert pool.max_attempts == 6
        assert pool.timeout_s == 4.0


# ---------------------------------------------------------------------------
# supervised execution: retries, crash recovery, timeouts, degradation
# ---------------------------------------------------------------------------

def _run(workers, fn, items, *, chaos=None, **kw):
    """One batch on a fresh pool of ``workers`` under ``chaos``."""
    with SupervisedPool(workers, chaos=chaos) as pool:
        return parallel_map(fn, items, pool=pool, **kw)


class TestSupervisedExecution:
    def test_serial_transient_errors_are_retried(self):
        plan = FaultPlan(seed=5, error=1.0, max_faults=1)
        assert _run(1, _double, [1, 2, 3], chaos=plan) == [2, 4, 6]

    def test_exhausted_retries_name_the_cell(self):
        with pytest.raises(ItemFailedError) as exc_info:
            _run(1, _always_fail, [7], label="cell")
        err = exc_info.value
        assert isinstance(err, RuntimeError)
        assert err.label == "cell" and err.index == 0
        assert err.attempts == MAX_ATTEMPTS
        assert isinstance(err.cause, ValueError)
        assert "cell item 1/1 failed after 3 attempt(s)" in str(err)

    def test_unsupervised_failures_name_the_cell_too(self):
        with pytest.raises(ItemFailedError, match="unit item 1/1"):
            _run(1, _always_fail, [9], label="unit")
        with pytest.raises(ItemFailedError, match=r"exploded"):
            _run(2, _always_fail, [9, 10])

    def test_plan_faults_never_exhaust_the_budget(self):
        """Every attempt the plan may fault does fault, as a transient
        error: the budget still outlasts it, serial and pooled."""
        plan = FaultPlan(seed=5, error=1.0, max_faults=MAX_ATTEMPTS)
        for workers in (1, 2):
            assert _run(workers, _double, [1, 2], chaos=plan) == [2, 4]

    def test_sigkilled_workers_recover_bit_identically(self):
        seeds = np.random.SeedSequence(42).spawn(6)
        clean = _run(1, _draw, seeds)
        plan = FaultPlan(seed=13, crash=1.0, max_faults=1, timeout_s=60)
        assert _run(2, _draw, seeds, chaos=plan) == clean

    def test_crash_recovery_counts_rebuilds(self):
        registry = obs_metrics.enable()
        try:
            plan = FaultPlan(seed=13, crash=1.0, max_faults=1, timeout_s=60)
            _run(2, _double, list(range(4)), chaos=plan)
            snapshot = registry.snapshot()
        finally:
            obs_metrics.disable()
        assert snapshot["parallel.pool_rebuilds"] >= 1
        # the plan crashes each item's first attempt and no other
        attempts = snapshot["parallel.attempts"]
        assert (attempts["n"], attempts["total"]) == (4, 8)

    def test_only_the_crashed_item_is_charged(self):
        """A crash breaks its sibling's future too, but under a plan
        only the item the plan crashed loses an attempt."""
        plan = FaultPlan(seed=1, crash=0.5, max_faults=1, timeout_s=60)
        assert plan.fault_for("unit", 0, 0) == "crash"
        assert plan.fault_for("unit", 1, 0) is None
        registry = obs_metrics.enable()
        try:
            out = _run(2, _slow_double, [1, 2], chaos=plan, label="unit")
            snapshot = registry.snapshot()
        finally:
            obs_metrics.disable()
        assert out == [2, 4]
        assert snapshot["parallel.pool_rebuilds"] == 1
        # item 0: crashed, then clean; item 1: one charged attempt
        assert snapshot["parallel.attempts"]["total"] == 3

    def test_hung_worker_times_out_and_retries(self):
        plan = FaultPlan(seed=13, hang=1.0, max_faults=1,
                         hang_s=30.0, timeout_s=1.0)
        registry = obs_metrics.enable()
        try:
            out = _run(2, _double, [5, 6], chaos=plan)
            snapshot = registry.snapshot()
        finally:
            obs_metrics.disable()
        assert out == [10, 12]
        assert snapshot["parallel.timeouts"] >= 1

    def test_repeated_crashes_degrade_to_serial(self):
        # every pooled attempt crashes its worker, far past the rebuild
        # budget: the pool must give up on processes and still finish
        # in-process
        plan = FaultPlan(seed=13, crash=1.0, max_faults=99, timeout_s=60)
        assert _run(2, _double, [1, 2, 3], chaos=plan) == [2, 4, 6]

    def test_supervised_pool_reused_across_batches(self):
        with SupervisedPool(2) as pool:
            a = parallel_map(_double, [1, 2, 3], pool=pool)
            b = parallel_map(_double, [4, 5], pool=pool)
        assert (a, b) == ([2, 4, 6], [8, 10])


def _draw(seed_seq):
    return float(np.random.default_rng(seed_seq).random())


# ---------------------------------------------------------------------------
# journal: format, resume, scoping
# ---------------------------------------------------------------------------

class TestJournal:
    def test_resume_recomputes_only_outstanding(self, tmp_path):
        marker = str(tmp_path / "calls.txt")
        journal_path = str(tmp_path / "sweep.journal")
        items = [(marker, v) for v in range(5)]

        with SweepJournal(journal_path, fingerprint="t:1") as journal:
            full = _run(1, _append_marker, items, journal=journal)
        assert full == [0, 10, 20, 30, 40]
        assert open(marker).read().splitlines() == ["0", "1", "2", "3", "4"]

        # simulate an interrupt: drop the last two journalled records
        lines = open(journal_path).read().splitlines()
        with open(journal_path, "w") as fh:
            fh.write("\n".join(lines[:-2]) + "\n")

        os.unlink(marker)
        with SweepJournal(journal_path, fingerprint="t:1",
                          resume=True) as journal:
            assert journal.n_loaded == 3
            resumed = _run(1, _append_marker, items, journal=journal)
            assert journal.n_recorded == 2
        assert resumed == full
        # only the two outstanding items actually ran
        assert open(marker).read().splitlines() == ["3", "4"]

    def test_progress_counts_journalled_items(self, tmp_path):
        journal_path = str(tmp_path / "sweep.journal")
        with SweepJournal(journal_path, fingerprint="t:1") as journal:
            _run(1, _double, [1, 2, 3], journal=journal, label="unit")
        messages = []
        with SweepJournal(journal_path, fingerprint="t:1",
                          resume=True) as journal:
            _run(1, _double, [1, 2, 3, 4], journal=journal,
                 progress=messages.append, label="unit")
        assert messages == ["unit 4/4"]

    def test_partial_trailing_line_is_dropped(self, tmp_path):
        path = str(tmp_path / "j.journal")
        with SweepJournal(path, fingerprint="t:1") as journal:
            journal.record("a", 1)
            journal.record("b", 2)
        with open(path, "a") as fh:
            fh.write('{"k": "c", "p": "AAAA')   # crash mid-append
        with SweepJournal(path, fingerprint="t:1", resume=True) as journal:
            assert journal.n_loaded == 2
            assert journal.n_corrupt == 1
            assert journal.get("a") == 1
            assert "c" not in journal

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        path = str(tmp_path / "j.journal")
        SweepJournal(path, fingerprint="robustness:smoke:77").close()
        with pytest.raises(JournalError, match="fingerprint"):
            SweepJournal(path, fingerprint="robustness:smoke:78", resume=True)

    def test_journal_from_other_code_is_refused(self, tmp_path):
        """A same-code resume loads; a header carrying another code
        digest is refused instead of spliced into this code's results."""
        path = str(tmp_path / "j.journal")
        with open_journal("fig4", "smoke", 5, path) as journal:
            journal.record("a", 1)
        with open_journal("fig4", "smoke", 5, path, resume=True) as journal:
            assert journal.get("a") == 1
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        scale = f"smoke:{scale_digest(get_scale('smoke'))}"
        assert header["fingerprint"] == f"fig4:{scale}:5:{code_digest()}"
        header["fingerprint"] = f"fig4:{scale}:5:0000000000000000"
        with open(path, "w") as fh:
            fh.write("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(JournalError, match="fingerprint"):
            open_journal("fig4", "smoke", 5, path, resume=True)

    def test_resume_under_a_replaced_scale_is_refused(self, tmp_path):
        """A ``dataclasses.replace``'d scale keeps its name but not its
        fingerprint: its cells must not be spliced into a plain run."""
        path = str(tmp_path / "robustness.journal")
        replaced = dataclasses.replace(
            get_scale("smoke"), robustness_noise_levels=[0.05, 0.1],
            robustness_replications=2,
        )
        assert replaced.name == "smoke"
        _ROBUSTNESS.run(replaced, workers=1, checkpoint=path)
        with pytest.raises(JournalError, match="fingerprint"):
            _ROBUSTNESS.run("smoke", workers=1, checkpoint=path, resume=True)

    def test_resume_without_prior_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "new.journal")
        with SweepJournal(path, fingerprint="t:1", resume=True) as journal:
            assert journal.n_loaded == 0
            journal.record("a", 1)

    def test_checkpoint_without_resume_truncates(self, tmp_path):
        path = str(tmp_path / "j.journal")
        with SweepJournal(path, fingerprint="t:1") as journal:
            journal.record("a", 1)
        with SweepJournal(path, fingerprint="t:1") as journal:
            assert "a" not in journal

    def test_scoped_keys_do_not_collide(self, tmp_path):
        path = str(tmp_path / "j.journal")
        with SweepJournal(path, fingerprint="t:1") as journal:
            journal.scoped("point0:").record("task:0", 1.0)
            journal.scoped("point1:").record("task:0", 2.0)
        with SweepJournal(path, fingerprint="t:1", resume=True) as journal:
            assert journal.scoped("point0:").get("task:0") == 1.0
            assert journal.scoped("point1:").get("task:0") == 2.0


# ---------------------------------------------------------------------------
# driver-level proofs (robustness sweep at tiny scale)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_scale():
    return dataclasses.replace(
        get_scale("smoke"),
        robustness_noise_levels=[0.2],
        robustness_replications=2,
        robustness_n_tasks=12,
        robustness_graphs=2,
        nsga_generations=4,
        n_random_schedules=3,
    )


def _csv_text(result):
    buf = io.StringIO()
    write_csv(result, fileobj=buf)
    return buf.getvalue()


#: crashes and transient errors on up to three attempts per cell; noise
#: replications 2 and 4 fault on all three, one past the clean budget
_CHAOS_SPEC = "seed=11,crash=0.25,error=0.3,max_faults=3,timeout=60"


class TestChaosSweepEquivalence:
    def test_faulted_sweep_csv_matches_clean_run(self, tiny_scale,
                                                 monkeypatch):
        """The chaos proof: worker SIGKILLs and transient exceptions
        injected mid-sweep change nothing about the CSV — also where a
        cell faults more often than an unarmed pool would retry it."""
        plan = plan_from_spec(_CHAOS_SPEC)
        for cell in (2, 4):
            assert [plan.fault_for("noise replication", cell, attempt)
                    for attempt in range(MAX_ATTEMPTS)] == ["error"] * 3
        clean = _csv_text(
            robustness.run(scale=tiny_scale, seed=1, workers=1)
        )
        monkeypatch.setenv("REPRO_CHAOS", _CHAOS_SPEC)
        chaotic = _csv_text(
            robustness.run(scale=tiny_scale, seed=1, workers=2)
        )
        assert chaotic == clean


_ROBUSTNESS = EXPERIMENTS["robustness"]


class TestResumeEquivalence:
    def test_interrupted_then_resumed_csv_is_byte_identical(
        self, tiny_scale, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        journal_path = str(tmp_path / "robustness.journal")

        reference = _csv_text(
            robustness.run(scale=tiny_scale, seed=1, workers=1)
        )
        checkpointed = _csv_text(_ROBUSTNESS.run(
            tiny_scale, seed=1, workers=1, checkpoint=journal_path,
        ))
        assert checkpointed == reference

        # interrupt: drop the last 4 journalled cells, then resume
        lines = open(journal_path).read().splitlines()
        assert len(lines) > 5
        with open(journal_path, "w") as fh:
            fh.write("\n".join(lines[:-4]) + "\n")
        resumed = _csv_text(_ROBUSTNESS.run(
            tiny_scale, seed=1, workers=1, checkpoint=journal_path,
            resume=True,
        ))
        assert resumed == reference
        # the resumed run appended exactly the dropped records back
        assert len(open(journal_path).read().splitlines()) == len(lines)

    @pytest.mark.parametrize("name, cell", [
        ("robustness", "_replication_cell"),
        ("contention", "_stream_cell"),
    ], ids=["robustness", "contention"])
    def test_fully_journalled_resume_recomputes_nothing(
        self, name, cell, tiny_scale, tmp_path, monkeypatch
    ):
        import importlib

        from repro.experiments import runner

        entry = EXPERIMENTS[name]
        journal_path = str(tmp_path / f"{name}.journal")
        first = _csv_text(entry.run(
            tiny_scale, seed=1, workers=1, checkpoint=journal_path,
        ))
        # poison every worker: a resume that recomputes anything dies
        module = importlib.import_module(f"repro.experiments.{name}")
        assert module.run.cell is getattr(module, cell)
        monkeypatch.setattr(
            module, "run", dataclasses.replace(module.run, cell=_always_fail)
        )
        monkeypatch.setattr(runner, "_point_graph_worker", _always_fail)
        resumed = _csv_text(entry.run(
            tiny_scale, seed=1, workers=1, checkpoint=journal_path,
            resume=True,
        ))
        assert resumed == first

    def test_resume_requires_checkpoint(self, tiny_scale):
        with pytest.raises(ValueError, match="--resume requires"):
            _ROBUSTNESS.run(tiny_scale, seed=1, workers=1, resume=True)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestCheckpointCli:
    def test_checkpoint_flags_reach_the_driver(self, capsys, monkeypatch,
                                               tmp_path):
        from repro.cli import main as cli_main

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        captured = {}

        def stub(scale="smoke", workers=None, **kw):
            captured.update(kw)
            return StudyResult("stub", "stub.csv", ("algorithm",), ())

        monkeypatch.setattr(robustness, "run", stub)
        assert cli_main(
            ["experiment", "robustness", "--checkpoint", "--resume"]
        ) == 0
        # bare --checkpoint: the registry opens the journal at the auto
        # path, fingerprinted name:cfg:seed:code, and hands it to the driver
        journal = captured["journal"]
        assert isinstance(journal, SweepJournal)
        assert journal.fingerprint == (
            f"robustness:smoke:{scale_digest(get_scale('smoke'))}:77:"
            f"{code_digest()}"
        )
        assert journal.path == os.path.join(
            str(tmp_path), "checkpoints", "robustness_smoke_seed77.journal"
        )
        assert "stub" in capsys.readouterr().out

    def test_fig4_checkpoint_resume_is_byte_identical(self, tmp_path,
                                                      monkeypatch):
        """Every registry entry journals: a fig4 sweep interrupted after
        its first point and resumed emits the clean run's CSV byte for
        byte.  The mapper clock is frozen so ``time_s`` is comparable."""
        import types

        import repro.mappers.base as mapper_base
        from repro.cli import main as cli_main
        from repro.experiments import SCALES, runner

        monkeypatch.setattr(mapper_base, "time",
                            types.SimpleNamespace(perf_counter=lambda: 0.0))
        monkeypatch.setitem(SCALES, "tiny", dataclasses.replace(
            get_scale("smoke"), name="tiny", fig4_sizes=[6, 9],
            graphs_per_point=2, n_random_schedules=3,
        ))
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "clean"))
        argv = ["experiment", "fig4", "--scale", "tiny", "--csv"]
        assert cli_main(argv) == 0
        clean = (tmp_path / "clean" / "fig4_decomposition_vs_heft_peft.csv")

        journal = tmp_path / "fig4.journal"
        real_point = runner.run_point
        calls = []

        def interrupt_second_point(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real_point(*args, **kwargs)

        monkeypatch.setattr(runner, "run_point", interrupt_second_point)
        with pytest.raises(KeyboardInterrupt):
            cli_main(argv + ["--checkpoint", str(journal)])
        monkeypatch.setattr(runner, "run_point", real_point)
        # header + the first point's two graphs
        assert len(journal.read_text().splitlines()) == 3

        # the resume recomputes only the second point's two graphs
        real_worker = runner._point_graph_worker
        computed = []
        monkeypatch.setattr(runner, "_point_graph_worker",
                            lambda item: computed.append(1) or real_worker(item))
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "resumed"))
        assert cli_main(argv + ["--checkpoint", str(journal), "--resume"]) == 0
        assert len(computed) == 2
        resumed = tmp_path / "resumed" / clean.name
        assert resumed.read_bytes() == clean.read_bytes()

    def test_failed_cell_is_one_error_line(self, capsys, monkeypatch):
        """A cell that exhausts its attempts ends the run with exit 1
        and one error line naming it, not a traceback."""
        from repro.cli import main as cli_main

        monkeypatch.setattr(robustness, "run", dataclasses.replace(
            robustness.run, cell=_always_fail))
        assert cli_main(["experiment", "robustness", "--workers", "1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "noise replication item 1/" in err[0]
        assert "failed after 3 attempt(s)" in err[0]
        assert "exploded" in err[0]

    def test_resume_requires_checkpoint_flag(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["experiment", "robustness", "--resume"]) == 2
        assert "requires --checkpoint" in capsys.readouterr().err

    def test_profile_reports_supervision_counters(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        graph = str(tmp_path / "g.json")
        assert cli_main(["generate", "--kind", "sp", "--n", "12",
                         "--seed", "1", "-o", graph]) == 0
        assert cli_main(["profile", graph]) == 0
        out = capsys.readouterr().out
        for counter in ("parallel.retries", "parallel.timeouts",
                        "parallel.pool_rebuilds"):
            assert counter in out
