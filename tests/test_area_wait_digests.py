"""Golden digests of multi-job streams that wait on the FPGA area ledger.

Each case replays a seeded periodic stream of one graph through
:class:`~repro.runtime.engine.RuntimeEngine` on a platform whose FPGA is
squeezed to 1.5x one job's footprint.  The graph is a burst graph: its
first few tasks carry FPGA area of uneven sizes and run on the streaming
FPGA, the rest carry none and alternate between CPU and GPU.  Jobs
arrive closer together than one job's makespan, so their FPGA tasks
overlap and wait on the cross-job area ledger (``RuntimeTrace.
n_area_waits > 0`` in most cases).  The axes are execution noise (off,
lognormal), link slots (0 = unlimited, 1 = one shared slot) and a
slowdown mid-stream, whose rollback rebuilds the ledger from the claims
still in flight.

A case reduces to a SHA-256 over every task's (device, slot, ready,
start, finish), each time as ``float.hex``, plus each job's completion
and the trace's ``area_wait_time`` and ``n_area_waits``.  The digests
were recorded while the ledger still ran a sorted event sweep over every
live claim for each candidate start; every later ledger must reproduce
them bit for bit, with the compiled kernel and with the pure-Python
kernel alike.  Print the current digests with::

    PYTHONPATH=src python -m tests.test_area_wait_digests
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.evaluation import CostModel
from repro.experiments.contention import _squeeze_fpga
from repro.graphs.generators import random_sp_graph
from repro.platform import paper_platform
from repro.runtime import DeviceSlowdown, RuntimeEngine
from repro.runtime.scenarios import periodic_stream
from repro.runtime.stochastic import LognormalNoise

FPGA = 2  # index of the area-capped device on the paper platform
SEEDS = (0, 1, 2)
NOISE = ("off", "lognormal")
LINK_SLOTS = (0, 1)
SCENARIOS = ("none", "slowdown")


def _case(seed, noise, slots, scenario):
    """The stream of one case, its platform and its engine."""
    rng = np.random.default_rng(seed)
    g = random_sp_graph(36, rng)
    n_fpga = 6
    base = paper_platform()
    cap = base.area_capacities()[FPGA]
    shares = rng.uniform(0.02, 0.16, size=n_fpga)
    for k, t in enumerate(g.tasks()):
        params = g.params(t)
        params.area = float(cap * shares[k]) if k < n_fpga else 0.0
        if k < n_fpga:
            params.complexity *= 30.0  # long FPGA phases overlap across jobs
    mapping = [FPGA if i < n_fpga else i % 2 for i in range(g.n_tasks)]
    model = CostModel(g, base)
    platform = _squeeze_fpga(base, model.area_usage(mapping), 1.5)
    analytic = model.simulate(mapping)
    jobs = periodic_stream(g, mapping, 7, 0.05 * analytic)
    scenarios = ()
    if scenario == "slowdown":
        scenarios = (DeviceSlowdown(0.6 * analytic, device=FPGA, factor=1.5),)
    engine = RuntimeEngine(
        platform,
        noise=LognormalNoise(0.25) if noise == "lognormal" else None,
        scenarios=scenarios,
        link_slots=slots,
    )
    return engine, jobs, seed + 100


def digest(seed, noise, slots, scenario):
    """``(sha256, n_area_waits)`` of one case's run."""
    engine, jobs, run_seed = _case(seed, noise, slots, scenario)
    trace = engine.run(jobs, rng=run_seed)
    h = hashlib.sha256()
    for job in trace.jobs:
        for t in job.tasks:
            h.update(
                f"{t.device},{t.slot},{t.ready.hex()},{t.start.hex()},"
                f"{t.finish.hex()};".encode()
            )
        h.update(f"|{job.completion.hex()}|".encode())
    h.update(f"{trace.area_wait_time.hex()},{trace.n_area_waits}".encode())
    return h.hexdigest(), trace.n_area_waits


CASES = [
    (seed, noise, slots, scenario)
    for seed in SEEDS for noise in NOISE
    for slots in LINK_SLOTS for scenario in SCENARIOS
]

#: case id -> SHA-256, recorded with the sweep ledger
GOLDEN = {
    's0-off-slots0-none': '8b9f48b5b9b0d47f5f83bf82d08ad5735b97721721a30d0d91fc24553f4658d3',  # 28 waits
    's0-off-slots0-slowdown': 'e5d8cd2942f5039e6c7b93eb72e568a334fdfcfef26fcdb618f2dda695ce3024',  # 30 waits
    's0-off-slots1-none': '5a2a84905c749b0260769ddb88757ab9b0b04e931e537bef06a55be94610dc5c',  # 0 waits
    's0-off-slots1-slowdown': 'e248496ef39e2332a763fd6d1d7cf3aaa37ee6fc88ec6844044aa924a1a13737',  # 23 waits
    's0-lognormal-slots0-none': '76647da39193bd4ea22b3a36c932f4779f9ab21b74c2f309ca55127752f53889',  # 28 waits
    's0-lognormal-slots0-slowdown': '448b20b1ea6a870e088625afe6bb17f5f76610509ddd000c75ab314a8d00d66c',  # 25 waits
    's0-lognormal-slots1-none': '9d4fd2a2a49b3f2901d8a130328802e8d12ef4f7f295e5a87aad61d548011fc6',  # 0 waits
    's0-lognormal-slots1-slowdown': 'ccc5073bf683964c0e951c271d9cbc1ce1d69c4b1b50f048c337214c9ccd6dd2',  # 21 waits
    's1-off-slots0-none': '116f40844fb7c668587db598727e76a8cbe1a83127d25ff72ab4a77bbcfd38dc',  # 33 waits
    's1-off-slots0-slowdown': '0577e9f71fb478d9580dc9ef43c09ec09a2303dab8ce422559e773c66653b462',  # 32 waits
    's1-off-slots1-none': '9d72bc7a5144ca51e6232a6bbcf6103077a30285051ab532d92c7d4ec9d4f93e',  # 0 waits
    's1-off-slots1-slowdown': '5f844b8e1d5d0cb58e86263f4643b08a98061198e6fbbf1156ff06909c059951',  # 28 waits
    's1-lognormal-slots0-none': 'ce8d105d15ff20d6ae090fe02fd8074c8ecb7e32b20827d36dde2814d45c8ab0',  # 32 waits
    's1-lognormal-slots0-slowdown': 'a014c471f9752f7d2b9b5d13ef96fb99c8d288c05b2850008534678c0c2ece38',  # 31 waits
    's1-lognormal-slots1-none': '4534cb9792d234d1e9efaa94e92b1cad19d69f6ebc5986fb7240bb4c79e3b095',  # 0 waits
    's1-lognormal-slots1-slowdown': '530db230456471011219682a3be0b3132fc2c631d312952ed3a40decc04863d7',  # 26 waits
    's2-off-slots0-none': '726f4223a09f2cb405eaa88fd389d37ce67d93b8cc7cf315f48ef2297163202e',  # 29 waits
    's2-off-slots0-slowdown': '94658f4df79655c0fb241d2e29825f6dfe20e89952ae77913bf271ece34d7dc8',  # 27 waits
    's2-off-slots1-none': '573e608c6ae0524809afe0b33aa8748abc5c2c1700aed82507aea04edf173873',  # 0 waits
    's2-off-slots1-slowdown': '85c8d3c335a397d1cd6d32ccc255117dd346cfd2be85efd779cdf77c4426fbb6',  # 23 waits
    's2-lognormal-slots0-none': 'c22d7453619aa9c6bb08ddd7e82d61b9d8bb0d16c8a60957af7407353368bcda',  # 26 waits
    's2-lognormal-slots0-slowdown': '7588029e903df0e2b1bc8be95613e33d0ecd58dc2b258ee2e1f0ea070573cc37',  # 26 waits
    's2-lognormal-slots1-none': 'd2c446d11fe99f98dd6c2da4c046e49f16acb9a1ebb173e59719d8217dfee40f',  # 0 waits
    's2-lognormal-slots1-slowdown': '55a1bbf410617ca06bf7848c1ba19f6e5100f923686b6c8a7dcbe079970a26a9',  # 23 waits
}


def _id(case):
    seed, noise, slots, scenario = case
    return f"s{seed}-{noise}-slots{slots}-{scenario}"


@pytest.mark.parametrize("case", CASES, ids=_id)
def test_area_wait_stream_digest(case):
    got, _ = digest(*case)
    assert got == GOLDEN[_id(case)]


def test_cases_wait_on_the_ledger():
    """Every case waits on the ledger but the one-link-slot streams
    without a slowdown: there each job's transfers queue FIFO behind all
    of the previous job's, which keeps the jobs' FPGA phases apart."""
    for case in CASES:
        _seed, _noise, slots, scenario = case
        n_waits = digest(*case)[1]
        if slots == 0 or scenario == "slowdown":
            assert n_waits > 0, _id(case)
        else:
            assert n_waits == 0, _id(case)


if __name__ == "__main__":
    for case in CASES:
        sha, n_waits = digest(*case)
        print(f"    {_id(case)!r}: {sha!r},  # {n_waits} waits")
