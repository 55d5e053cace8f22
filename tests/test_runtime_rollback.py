"""A no-op rollback leaves a run unchanged.

A :class:`~repro.runtime.scenarios.DeviceSlowdown` with ``factor=1.0``
still rolls back every commitment that has not started yet and replans
from the surviving state: the engine rebuilds device queues, slot
availability and the FPGA area ledger from the committed tasks, and the
rolled-back tasks pull their ready times afresh as they recommit.  The
platform is the same afterwards, so the run must be the run without the
scenario — every job's task records and completion, the number of area
waits and the energy.  The wait *time* on the area ledger is left out on
purpose: a recommitted task's wait is measured from the rollback instant.

Link slots are unlimited (``link_slots=0``) here: link claims queue FIFO
in commitment order, and the post-rollback cascade recommits in device
order, so bounded links may legitimately reorder transfers.
"""

import numpy as np
import pytest

from repro.evaluation import MappingEvaluator
from repro.experiments.contention import _squeeze_fpga
from repro.graphs.generators import random_sp_graph
from repro.mappers import HeftMapper, sp_first_fit
from repro.platform import paper_platform
from repro.runtime import DeviceSlowdown, RuntimeEngine
from repro.runtime.scenarios import periodic_stream
from repro.runtime.stochastic import LognormalNoise

#: (jobs, period as a fraction of the analytic makespan)
STREAMS = ((1, 0.0), (5, 0.5), (6, 0.125))
#: slowdown instants as fractions of the analytic makespan
AT = (0.1, 0.5, 1.0)
NOISE = {"off": None, "lognormal": LognormalNoise(0.2)}


@pytest.fixture(scope="module")
def cases():
    """(graph, mapping, analytic makespan) for two SP graphs x two mappers."""
    platform = paper_platform()
    out = []
    for seed in (3, 4):
        g = random_sp_graph(40, np.random.default_rng(seed))
        ev = MappingEvaluator(g, platform, n_random_schedules=3)
        for mapper in (HeftMapper(), sp_first_fit()):
            mapping = mapper.map(ev, rng=np.random.default_rng(seed)).mapping
            out.append((g, mapping, ev.model.simulate(mapping)))
    return out


def _run(platform, jobs, noise, scenarios=()):
    engine = RuntimeEngine(
        platform, noise=noise, scenarios=scenarios, link_slots=0
    )
    return engine.run(jobs, rng=11)


@pytest.mark.parametrize("noise", sorted(NOISE))
@pytest.mark.parametrize("squeeze", [False, True], ids=["paper", "squeezed"])
def test_noop_slowdown_leaves_the_run_unchanged(cases, noise, squeeze):
    platform = paper_platform()
    n_area_waits = 0
    for g, mapping, analytic in cases:
        plat = platform
        if squeeze:
            # FPGA sized at 1.5x one job's footprint: overlapping jobs
            # contend for fabric and wait on the area ledger
            usage = MappingEvaluator(g, platform).model.area_usage(mapping)
            plat = _squeeze_fpga(platform, usage, 1.5)
        for n_jobs, period in STREAMS:
            jobs = periodic_stream(g, mapping, n_jobs, period * analytic)
            clean = _run(plat, jobs, NOISE[noise])
            n_area_waits += clean.n_area_waits
            for at in AT:
                slowed = _run(plat, jobs, NOISE[noise], [
                    DeviceSlowdown(at * analytic, device=0, factor=1.0)
                ])
                where = (n_jobs, period, at)
                assert [j.tasks for j in slowed.jobs] == [
                    j.tasks for j in clean.jobs
                ], where
                assert [j.completion for j in slowed.jobs] == [
                    j.completion for j in clean.jobs
                ], where
                assert slowed.n_area_waits == clean.n_area_waits, where
                assert slowed.energy_j == clean.energy_j, where
    if squeeze:
        assert n_area_waits > 0  # the rebuilt ledger was exercised
