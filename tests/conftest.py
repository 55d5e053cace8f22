"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.evaluation import MappingEvaluator
from repro.graphs import TaskGraph
from repro.platform import Platform, cpu, fpga, gpu, paper_platform


def quad_platform() -> Platform:
    """CPU + GPU + two FPGAs on uniform links.  Unlike the three-device
    presets, its routed topologies (``with_topology``) change the
    effective latency and bandwidth matrices."""
    off = ~np.eye(4, dtype=bool)
    return Platform(
        [cpu("host"), gpu("gpu0"), fpga("fpga0", area_capacity=60.0),
         fpga("fpga1", area_capacity=60.0)],
        np.where(off, 6.0, np.inf),
        np.where(off, 1e-4, 0.0),
    )


@pytest.fixture(scope="session")
def platform():
    return paper_platform()


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def fig1_graph() -> TaskGraph:
    """The series-parallel example graph of paper Fig. 1."""
    return TaskGraph.from_edges(
        [(0, 1), (1, 3), (1, 2), (2, 3), (3, 5), (0, 4), (4, 5)]
    )


@pytest.fixture()
def fig2_graph() -> TaskGraph:
    """The non-series-parallel example graph of paper Fig. 2."""
    return TaskGraph.from_edges(
        [(0, 1), (0, 4), (1, 2), (2, 3), (1, 3), (3, 5), (1, 4), (4, 5)]
    )


@pytest.fixture()
def diamond_graph() -> TaskGraph:
    """The smallest non-trivial SP graph: a diamond."""
    return TaskGraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture()
def chain_graph() -> TaskGraph:
    """A 5-task chain."""
    return TaskGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])


def make_evaluator(graph, platform, *, seed=0, n_random=10) -> MappingEvaluator:
    return MappingEvaluator(
        graph,
        platform,
        rng=np.random.default_rng(seed),
        n_random_schedules=n_random,
    )


@pytest.fixture()
def small_evaluator(fig1_graph, platform):
    rng = np.random.default_rng(5)
    from repro.graphs import augment

    augment(fig1_graph, rng)
    return make_evaluator(fig1_graph, platform)
