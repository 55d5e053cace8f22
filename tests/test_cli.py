"""Tests for the command-line interface (in-process, via cli.main)."""

import json

import numpy as np
import pytest

from repro.cli import MAPPER_FACTORIES, main
from repro.graphs.generators import random_sp_graph
from repro.io import save_graph


@pytest.fixture()
def graph_file(tmp_path, rng):
    g = random_sp_graph(12, rng)
    path = str(tmp_path / "graph.json")
    save_graph(g, path)
    return path


class TestGenerate:
    def test_sp_to_file(self, tmp_path, capsys):
        out = str(tmp_path / "g.json")
        assert main(["generate", "--kind", "sp", "--n", "15",
                     "--seed", "1", "-o", out]) == 0
        doc = json.loads(open(out).read())
        assert len(doc["tasks"]) == 15

    def test_almost_sp_stdout(self, capsys):
        assert main(["generate", "--kind", "almost-sp", "--n", "10",
                     "--extra-edges", "5", "--seed", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro-taskgraph"

    def test_workflow_kind(self, tmp_path):
        out = str(tmp_path / "wf.json")
        assert main(["generate", "--kind", "blast", "--n", "20",
                     "-o", out]) == 0

    def test_unknown_kind(self, capsys):
        assert main(["generate", "--kind", "nope"]) == 2


class TestDecompose:
    def test_basic(self, graph_file, capsys):
        assert main(["decompose", graph_file]) == 0
        out = capsys.readouterr().out
        assert "forest:" in out
        assert "sp-distance 0.000" in out  # generated SP graph

    def test_trees_and_dot(self, graph_file, tmp_path, capsys):
        dot = str(tmp_path / "f.dot")
        assert main(["decompose", graph_file, "--trees", "--dot", dot]) == 0
        assert "tree 0 (core)" in capsys.readouterr().out
        assert open(dot).read().startswith("digraph")


class TestMapEvaluateCompare:
    def test_map_writes_mapping(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "m.json")
        assert main(["map", graph_file, "--algorithm", "sp-first-fit",
                     "--schedules", "5", "-o", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["format"] == "repro-mapping"
        assert doc["algorithm"] == "SPFirstFit"

    def test_map_with_dot(self, graph_file, tmp_path):
        dot = str(tmp_path / "m.dot")
        assert main(["map", graph_file, "--algorithm", "heft",
                     "--schedules", "5", "--dot", dot]) == 0
        assert "fillcolor" in open(dot).read()

    def test_evaluate_roundtrip(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "m.json")
        main(["map", graph_file, "--algorithm", "sn-first-fit",
              "--schedules", "5", "-o", out])
        capsys.readouterr()
        assert main(["evaluate", graph_file, out, "--schedules", "5",
                     "--gantt"]) == 0
        text = capsys.readouterr().out
        assert "improvement" in text
        assert "ms" in text

    def test_compare(self, graph_file, capsys):
        assert main(["compare", graph_file, "--schedules", "5",
                     "--algorithms", "heft", "sp-first-fit"]) == 0
        out = capsys.readouterr().out
        assert "HEFT" in out and "SPFirstFit" in out


class TestRegistry:
    def test_all_factories_construct(self):
        for name, factory in MAPPER_FACTORIES.items():
            mapper = factory()
            assert hasattr(mapper, "map"), name

    def test_experiment_command_smoke(self, capsys, monkeypatch):
        # patch the sweep runner to avoid a real sweep
        from repro.experiments import runner
        from repro.experiments.runner import SweepResult

        monkeypatch.setattr(
            runner, "run_sweep",
            lambda sweep, scale="smoke", **kw: SweepResult("stub", "n", []),
        )
        assert main(["experiment", "fig4", "--scale", "smoke"]) == 0
        assert "stub" in capsys.readouterr().out
