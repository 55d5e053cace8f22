"""The experiment registry and the one ``repro experiment`` path over it."""

import csv
import dataclasses
import inspect
import io
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.experiments import EXPERIMENTS, get_scale, runner, write_csv
from repro.experiments.metrics import aggregate
from repro.experiments.registry import _resolve
from repro.experiments.runner import (
    PointResult,
    Study,
    StudyResult,
    Sweep,
    SweepResult,
    run_study,
    run_sweep,
)
from repro.parallel import JournalError

RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, "results")
COMMITTED = sorted(f for f in os.listdir(RESULTS) if f.endswith(".csv"))

# every sweep axis empty; the runtime studies shrunk to one 6-task graph
TINY = dataclasses.replace(
    get_scale("smoke"), name="tiny", n_random_schedules=2,
    fig3_sizes=[], fig4_sizes=[], fig5_sizes=[], fig6_generations=[],
    fig6_graphs=0, fig7_extra_edges=[], nsga_generations=2,
    robustness_noise_levels=[0.1], robustness_replications=1,
    robustness_n_tasks=6, robustness_graphs=1, replan_policies=["fallback"],
    contention_n_tasks=6, contention_graphs=1, contention_jobs=2,
    contention_link_slots=[0], contention_period_fracs=[1.0],
    contention_topologies=["shared"],
)
TINY_KWARGS = {"table1": {"families": []}}


@pytest.fixture(scope="module")
def tiny_results():
    return {
        name: entry.run(TINY, workers=1, **TINY_KWARGS.get(name, {}))
        for name, entry in EXPERIMENTS.items()
    }


def _csv_header(result):
    buf = io.StringIO()
    write_csv(result, fileobj=buf)
    return next(csv.reader(io.StringIO(buf.getvalue())))


def _cli_choices():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    parser = sub.choices["experiment"]
    return next(a for a in parser._actions if a.dest == "name").choices


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_entry_is_a_cli_choice_and_writes_the_committed_header(
    name, tiny_results
):
    entry = EXPERIMENTS[name]
    assert name in _cli_choices()
    driver = _resolve(entry.driver)
    # no driver has a seed of its own: the registry keeps the only
    # default, and run_sweep, run_study and the other drivers require one
    runs = {Sweep: run_sweep, Study: run_study}.get(type(driver), driver)
    default = inspect.signature(runs).parameters["seed"].default
    assert default is inspect.Parameter.empty
    result = tiny_results[name]
    assert isinstance(entry.format(result), str)
    header = _csv_header(result)
    if result.csv_name in COMMITTED:
        with open(os.path.join(RESULTS, result.csv_name)) as fh:
            assert header == next(csv.reader(fh))


def test_every_committed_csv_has_an_entry(tiny_results):
    written = {result.csv_name for result in tiny_results.values()}
    assert len(COMMITTED) == 15
    assert set(COMMITTED) <= written


def test_sweeps_live_in_one_declaration_module():
    sweeps = {name for name, e in EXPERIMENTS.items()
              if isinstance(_resolve(e.driver), Sweep)}
    assert sweeps == {
        "fig3", "fig4", "fig5", "fig6", "fig7", "baselines", "scaling",
        "ablation-cuts", "ablation-gamma", "ablation-streaming",
    }
    assert {EXPERIMENTS[n].driver.partition(":")[0] for n in sweeps} == {
        "sweeps"
    }


RUNTIME_STUDIES = ["robustness", "replan", "contention", "topology"]


def test_runtime_studies_are_declarations():
    from repro.experiments import contention

    drivers = {n: _resolve(EXPERIMENTS[n].driver) for n in RUNTIME_STUDIES}
    # the topology entry checks its names in front of its declaration
    assert drivers.pop("topology") is contention.run_topologies
    assert isinstance(contention.topology, Study)
    assert all(isinstance(d, Study) for d in drivers.values())
    default = inspect.signature(run_study).parameters["seed"].default
    assert default is inspect.Parameter.empty


def test_resume_under_other_topologies_is_refused(tmp_path):
    """Journal items are keyed by index: a resume under other driver
    options would splice one topology's cells under another's label."""
    entry, path = EXPERIMENTS["topology"], str(tmp_path / "topo.journal")
    entry.run(TINY, workers=1, checkpoint=path, topologies=["mesh"])
    with pytest.raises(JournalError, match="fingerprint"):
        entry.run(TINY, workers=1, checkpoint=path, resume=True,
                  topologies=["star"])
    resumed = entry.run(TINY, workers=1, checkpoint=path, resume=True,
                        topologies=["mesh"])
    assert resumed.axis("topology") == ["mesh"]


def test_table1_family_subset_reproduces_its_rows():
    """Family seeds are spawned over every family, so a subset's rows
    equal the same rows of a larger run."""
    entry = EXPERIMENTS["table1"]
    alone = entry.run("smoke", workers=1, families=["montage"])
    pair = entry.run("smoke", workers=1, families=["blast", "montage"])
    assert pair.families() == ["blast", "montage"]
    assert alone.improvement["montage"] == pair.improvement["montage"]
    assert (alone.total_evaluations["montage"]
            == pair.total_evaluations["montage"])


@pytest.mark.parametrize("name", RUNTIME_STUDIES)
def test_smoke_run_regenerates_the_committed_csv(name):
    """The runtime studies are deterministic: a smoke run with the
    registry's seed reproduces its committed CSV byte for byte."""
    result = EXPERIMENTS[name].run("smoke")
    buf = io.StringIO()
    write_csv(result, fileobj=buf)
    with open(os.path.join(RESULTS, result.csv_name), "rb") as fh:
        assert buf.getvalue().encode() == fh.read()


def test_import_loads_no_driver():
    code = (
        "import sys, repro.experiments as E\n"
        "mods = {e.driver.partition(':')[0] for e in E.EXPERIMENTS.values()}\n"
        "print(sorted(m for m in mods if 'repro.experiments.' + m in sys.modules))"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# ``repro experiment``: table, progress, CSV, topology routing
# ---------------------------------------------------------------------------

def _stub_result():
    result = SweepResult("stub title", "n")
    result.points.append(PointResult(
        x=5.0,
        improvements={"A": aggregate([0.1, 0.2])},
        times={"A": aggregate([0.01, 0.02])},
        evaluations={"A": 10.0},
    ))
    return result


@pytest.fixture()
def fig4_stub(monkeypatch):
    calls = {}

    def fake_run(sweep, scale="smoke", **kw):
        calls.update(kw, scale=scale, title=sweep.title)
        if kw["progress"] is not None:
            kw["progress"]("tick")
        return _stub_result()

    monkeypatch.setattr(runner, "run_sweep", fake_run)
    return calls


class TestExperimentCommand:
    def test_prints_table(self, capsys, fig4_stub):
        assert main(["experiment", "fig4", "--scale", "smoke"]) == 0
        assert "stub title" in capsys.readouterr().out
        assert fig4_stub["scale"] == "smoke"
        assert fig4_stub["title"] == "Fig4 decomposition vs HEFT PEFT"
        assert fig4_stub["seed"] == 4
        assert fig4_stub["workers"] is None
        assert fig4_stub["journal"] is None

    def test_verbose_shows_progress(self, capsys, fig4_stub):
        assert main(["-v", "experiment", "fig4", "--seed", "9"]) == 0
        assert "tick" in capsys.readouterr().out
        assert fig4_stub["seed"] == 9
        assert main(["experiment", "fig4"]) == 0
        assert "tick" not in capsys.readouterr().out

    def test_csv_flag_writes_into_results_dir(self, capsys, monkeypatch,
                                              tmp_path, fig4_stub):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["experiment", "fig4"]) == 0
        assert not list(tmp_path.iterdir())
        assert main(["experiment", "fig4", "--csv"]) == 0
        assert "csv written" in capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["stub_title.csv"]

    def test_contention_topology_routes_without_writing(self, capsys,
                                                       monkeypatch, tmp_path):
        from repro.experiments import contention

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        captured = {}

        def stub(scale="smoke", **kw):
            captured.update(kw)
            return StudyResult("topo stub", "stub.csv", ("algorithm",), ())

        monkeypatch.setattr(contention, "run_topologies", stub)
        argv = ["experiment", "contention", "--topology", "mesh", "star"]
        assert main(argv) == 0
        assert captured["topologies"] == ["mesh", "star"]
        assert captured["seed"] == 79
        assert "topo stub" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())  # CSVs only under --csv
        assert main(["experiment", "fig4", "--topology"]) == 2
        assert "--topology" in capsys.readouterr().err
