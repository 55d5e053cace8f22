"""Unit tests for the timelines, area ledger and clone of
:class:`~repro.mappers.heft.ListSchedule`, the list-scheduling core shared
by HEFT, PEFT, CPOP, min-min/max-min and lookahead HEFT."""

import numpy as np
import pytest

from repro.graphs import TaskGraph
from repro.mappers.heft import ListSchedule
from repro.platform import paper_platform
from tests.conftest import make_evaluator


@pytest.fixture()
def timelines(platform):
    g = TaskGraph()
    for i in range(4):
        g.add_task(i, complexity=1.0, area=10.0)
    ev = make_evaluator(g, platform)
    return ListSchedule(ev)


class TestEarliestGap:
    def test_empty_timeline(self, timelines):
        start, slot = timelines.earliest_start(1, ready=5.0, duration=2.0)
        assert start == 5.0

    def test_appends_after_busy(self, timelines):
        timelines.commit(0, 1, 0, 0.0, 4.0)
        start, slot = timelines.earliest_start(1, ready=0.0, duration=2.0)
        assert start == 4.0

    def test_inserts_into_gap(self, timelines):
        # busy [0,2] and [6,8]: a 2-long task fits at 2
        timelines.commit(0, 1, 0, 0.0, 2.0)
        timelines.commit(1, 1, 0, 6.0, 8.0)
        start, _ = timelines.earliest_start(1, ready=0.0, duration=2.0)
        assert start == 2.0

    def test_gap_too_small_skipped(self, timelines):
        timelines.commit(0, 1, 0, 0.0, 2.0)
        timelines.commit(1, 1, 0, 3.0, 8.0)
        start, _ = timelines.earliest_start(1, ready=0.0, duration=2.0)
        assert start == 8.0

    def test_ready_inside_gap(self, timelines):
        timelines.commit(0, 1, 0, 0.0, 2.0)
        timelines.commit(1, 1, 0, 10.0, 12.0)
        start, _ = timelines.earliest_start(1, ready=5.0, duration=2.0)
        assert start == 5.0

    def test_multiple_slots_pick_earliest(self, timelines):
        # CPU (device 0) has 4 slots: committing to slot 0 leaves others free
        timelines.commit(0, 0, 0, 0.0, 9.0)
        start, slot = timelines.earliest_start(0, ready=0.0, duration=1.0)
        assert start == 0.0
        assert slot != 0

    def test_non_serializing_device_ignores_load(self, timelines):
        # FPGA (device 2): always starts at ready
        timelines.commit(0, 2, -1, 0.0, 100.0)
        start, slot = timelines.earliest_start(2, ready=3.0, duration=5.0)
        assert start == 3.0
        assert slot == -1


class TestArea:
    def test_area_tracking(self, timelines):
        assert timelines.area_allows(0, 2)
        for i in range(4):  # 4 x 10 area against capacity 100
            timelines.commit(i, 2, -1, 0.0, 1.0)
        assert timelines.area_allows(0, 2)  # 60 left

    def test_area_exhaustion(self, platform):
        g = TaskGraph()
        for i in range(3):
            g.add_task(i, complexity=1.0, area=45.0)
        ev = make_evaluator(g, platform)
        tl = ListSchedule(ev)
        tl.commit(0, 2, -1, 0.0, 1.0)
        tl.commit(1, 2, -1, 0.0, 1.0)
        assert not tl.area_allows(2, 2)  # 90 used, 45 does not fit

    def test_non_area_device_always_allows(self, timelines):
        assert timelines.area_allows(0, 0)
        assert timelines.area_allows(0, 1)


class TestClone:
    def test_clone_is_independent(self, timelines):
        clone = timelines.clone()
        clone.commit(0, 1, 0, 0.0, 5.0)
        start, _ = timelines.earliest_start(1, ready=0.0, duration=1.0)
        assert start == 0.0  # original untouched
        start_c, _ = clone.earliest_start(1, ready=0.0, duration=1.0)
        assert start_c == 5.0

    def test_clone_shares_tables(self, timelines):
        clone = timelines.clone()
        assert clone.exec_table is timelines.exec_table

    def test_clone_area_independent(self, timelines):
        clone = timelines.clone()
        clone.commit(0, 2, -1, 0.0, 1.0)
        # original area budget unchanged (in area units, tolerance
        # included: capacity 100, task area 10)
        assert timelines._area_left[2] == 100_000_000_001.0
        assert clone._area_left[2] == 90_000_000_001.0
