"""Tests for the stage-structured generators (fork-join, pipeline)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import (
    random_forkjoin_graph,
    random_pipeline_graph,
)
from repro.sp import is_series_parallel, sp_distance


class TestForkJoin:
    def test_structure(self, rng):
        g = random_forkjoin_graph(4, 5, rng, augmented=False)
        g.validate()
        assert len(g.sources()) == 1
        assert len(g.sinks()) == 1

    def test_fork_join_is_series_parallel(self, rng):
        for seed in range(5):
            g = random_forkjoin_graph(
                3, 4, np.random.default_rng(seed), augmented=False
            )
            assert is_series_parallel(g)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            random_forkjoin_graph(0, 3, rng)


class TestPipeline:
    def test_structure(self, rng):
        g = random_pipeline_graph(3, 5, rng, augmented=False)
        g.validate()
        assert g.n_tasks == 3 * 5 + 2

    def test_no_cross_links_is_sp(self, rng):
        g = random_pipeline_graph(4, 4, rng, cross_prob=0.0, augmented=False)
        assert is_series_parallel(g)
        assert sp_distance(g) == 0.0

    def test_cross_links_break_sp(self):
        g = random_pipeline_graph(
            4, 6, np.random.default_rng(3), cross_prob=1.0, augmented=False
        )
        assert not is_series_parallel(g)
        assert sp_distance(g) > 0.0

    @settings(max_examples=15, deadline=None)
    @given(
        width=st.integers(1, 5),
        depth=st.integers(1, 6),
        prob=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31),
    )
    def test_property_always_valid_dag(self, width, depth, prob, seed):
        g = random_pipeline_graph(
            width, depth, np.random.default_rng(seed), cross_prob=prob
        )
        g.validate()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            random_pipeline_graph(0, 3, rng)
        with pytest.raises(ValueError):
            random_pipeline_graph(2, 2, rng, cross_prob=1.5)
