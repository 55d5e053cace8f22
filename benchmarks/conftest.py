"""Benchmark-suite configuration.

``pytest benchmarks/`` regenerates every figure/table of the paper at the
scale selected by ``REPRO_BENCH_SCALE`` (smoke | small | paper, default
smoke).  Each figure bench prints the paper-style table
(visible with ``-s`` or in the captured output) and writes its CSV into a
temporary results directory, so a test run never rewrites the committed
``results/``; regenerate those with ``repro experiment NAME --csv``.
"""

import csv
import os

import numpy as np
import pytest

from repro.evaluation import MappingEvaluator
from repro.experiments import bench_scale
from repro.graphs.generators import random_sp_graph
from repro.platform import paper_platform


@pytest.fixture(scope="session")
def platform():
    return paper_platform()


@pytest.fixture(scope="session")
def sp_graph_50(platform):
    """A fixed 50-task random SP graph + evaluator, for hot-path benches."""
    g = random_sp_graph(50, np.random.default_rng(1234))
    ev = MappingEvaluator(g, platform, rng=np.random.default_rng(5), n_random_schedules=20)
    return g, ev


@pytest.fixture(scope="session", autouse=True)
def results_dir_in_tmp(tmp_path_factory):
    """Point ``REPRO_RESULTS_DIR`` at a session temp dir."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_RESULTS_DIR", str(tmp_path_factory.mktemp("results")))
        yield


RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, "results")


@pytest.fixture()
def matches_committed_csv():
    """Check a written CSV against its committed ``results/`` twin.

    At smoke scale every column except the wall-clock ``time_s`` (Table
    I: ``total_time_s``) must equal the committed file's; at other
    scales there is nothing to compare against and the check passes
    trivially.
    """

    def check(path: str) -> None:
        if bench_scale().name != "smoke":
            return

        def rows(p):
            with open(p, newline="") as fh:
                table = list(csv.DictReader(fh))
            for row in table:
                row.pop("time_s", None)
                row.pop("total_time_s", None)
            return table

        committed = os.path.join(RESULTS, os.path.basename(path))
        assert rows(path) == rows(committed)

    return check
