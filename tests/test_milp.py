"""Tests for the MILP infrastructure and the three MILP mappers."""

import hashlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.graphs import TaskGraph, augment
from repro.graphs.generators import (
    make_workflow,
    random_almost_sp_graph,
    random_sp_graph,
)
from repro.mappers import WgdpDeviceMapper, WgdpTimeMapper, ZhouLiuMapper
from repro.mappers.milp import MilpBuilder, MilpProblemData, MilpSolution
from repro.platform import paper_platform, with_topology
from tests.conftest import make_evaluator, quad_platform


def test_import_does_not_load_scipy():
    """scipy is loaded on the first MILP solve, not by ``import repro``."""
    code = "import sys, repro; assert 'scipy.optimize' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


class TestMilpBuilder:
    def test_simple_lp(self):
        # max x + y st x + y <= 3, 0 <= x,y <= 2  -> milp minimizes, so negate
        b = MilpBuilder()
        x = b.add_continuous(0, 2)
        y = b.add_continuous(0, 2)
        b.add_constraint({x: 1.0, y: 1.0}, ub=3.0)
        b.set_objective({x: -1.0, y: -1.0})
        sol = b.solve()
        assert sol.status == 0
        assert sol.x[x] + sol.x[y] == pytest.approx(3.0)

    def test_knapsack(self):
        # items (value, weight): (6,4), (5,3), (4,2); capacity 5 -> take 5+4
        b = MilpBuilder()
        xs = b.add_binaries(3)
        values = [6, 5, 4]
        weights = [4, 3, 2]
        b.add_constraint({x: w for x, w in zip(xs, weights)}, ub=5.0)
        b.set_objective({x: -v for x, v in zip(xs, values)})
        sol = b.solve()
        assert sol.status == 0
        assert -sol.objective == pytest.approx(9.0)
        assert [round(sol.x[x]) for x in xs] == [0, 1, 1]

    def test_duplicate_coefficients_merged(self):
        b = MilpBuilder()
        x = b.add_continuous(0, 10)
        b.add_constraint({x: 1.0}, lb=4.0)  # x >= 4
        b.set_objective({x: 1.0})
        sol = b.solve()
        assert sol.x[x] == pytest.approx(4.0)

    def test_infeasible_reports_no_x(self):
        b = MilpBuilder()
        x = b.add_binary()
        b.add_constraint({x: 1.0}, lb=2.0)  # impossible for a binary
        b.set_objective({x: 1.0})
        sol = b.solve()
        assert sol.status != 0
        assert sol.x is None or not np.isfinite(sol.objective)


class TestStatus4Retry:
    """``solve`` re-solves without presolve only after a status-4 error
    that left no incumbent; a limit stop keeps its solution."""

    @staticmethod
    def _solve_with(monkeypatch, results):
        import scipy.optimize

        calls = []

        def fake_milp(c, **kwargs):
            calls.append(kwargs["options"])
            return results[len(calls) - 1]

        monkeypatch.setattr(scipy.optimize, "milp", fake_milp)
        b = MilpBuilder()
        x = b.add_binary()
        b.set_objective({x: 1.0})
        return b.solve(), calls

    def test_limit_stop_keeps_its_incumbent(self, monkeypatch):
        stop = SimpleNamespace(
            status=4, x=np.array([1.0]), fun=0.26439,
            message="HiGHS Status 16: Solution limit reached")
        sol, calls = self._solve_with(monkeypatch, [stop])
        assert len(calls) == 1
        assert sol.status == 4 and sol.objective == 0.26439
        np.testing.assert_array_equal(sol.x, [1.0])

    def test_error_without_incumbent_retries_without_presolve(
            self, monkeypatch):
        error = SimpleNamespace(status=4, x=None, fun=None,
                                message="HiGHS Status 4: Solve error")
        retry = SimpleNamespace(status=0, x=np.array([0.0]), fun=0.0,
                                message="Optimal")
        sol, calls = self._solve_with(monkeypatch, [error, retry])
        assert len(calls) == 2
        assert "presolve" not in calls[0]
        assert calls[1]["presolve"] is False
        assert sol.status == 0 and sol.objective == 0.0

    def test_limit_stop_without_incumbent_is_not_retried(self, monkeypatch):
        stop = SimpleNamespace(status=4, x=None, fun=None,
                               message="HiGHS Status 16: Solution limit reached")
        sol, calls = self._solve_with(monkeypatch, [stop])
        assert len(calls) == 1
        assert sol.x is None and sol.objective == np.inf


class TestProblemData:
    def test_slot_expansion(self, platform, rng):
        g = random_sp_graph(8, rng)
        ev = make_evaluator(g, platform)
        data = MilpProblemData(ev)
        # 4 CPU slots + 1 GPU slot + 1 FPGA = 6 expanded devices
        assert data.m_expanded == 6
        assert data.device_map == [0, 0, 0, 0, 1, 2]
        assert data.exec_table.shape == (8, 6)

    def test_collapse_mapping(self, platform, rng):
        g = random_sp_graph(5, rng)
        ev = make_evaluator(g, platform)
        data = MilpProblemData(ev)
        collapsed = data.collapse_mapping([0, 3, 4, 5, 1])
        assert collapsed.tolist() == [0, 0, 1, 2, 0]

    def test_same_real_device_transfers_free(self, platform, rng):
        g = random_sp_graph(6, rng)
        ev = make_evaluator(g, platform)
        data = MilpProblemData(ev)
        for trans in data.edge_trans.values():
            # CPU slot 0 <-> CPU slot 3 must be free
            assert trans[0, 3] == 0.0
            assert trans[0, 4] > 0.0  # CPU -> GPU costs

    def test_unordered_pairs_chain_empty(self, platform, chain_graph, rng):
        augment(chain_graph, rng)
        ev = make_evaluator(chain_graph, platform)
        data = MilpProblemData(ev)
        assert data.unordered_pairs() == []

    def test_unordered_pairs_antichain_full(self, platform):
        g = TaskGraph()
        for i in range(4):
            g.add_task(i, complexity=1.0)
        ev = make_evaluator(g, platform)
        data = MilpProblemData(ev)
        assert len(data.unordered_pairs()) == 6

    def test_horizon_positive_and_finite(self, platform, rng):
        g = random_sp_graph(10, rng)
        ev = make_evaluator(g, platform)
        data = MilpProblemData(ev)
        assert np.isfinite(data.horizon)
        assert data.horizon > 0


class TestWgdpDevice:
    def test_balances_loads(self, platform):
        # 8 identical sequential tasks, no dependencies: min-max load spreads
        g = TaskGraph()
        for i in range(8):
            g.add_task(i, complexity=5.0, parallelizability=0.0,
                       streamability=5.0, area=1.0)
        ev = make_evaluator(g, platform)
        res = WgdpDeviceMapper(time_limit_s=20).map(ev)
        used_devices = set(res.mapping.tolist())
        assert len(used_devices) >= 2  # it must spread the load
        assert ev.is_feasible(res.mapping)

    def test_respects_area(self, platform):
        g = TaskGraph()
        for i in range(6):
            g.add_task(i, complexity=50.0, streamability=50.0, area=60.0)
        ev = make_evaluator(g, platform)  # capacity 100 -> at most 1 fits
        res = WgdpDeviceMapper(time_limit_s=20).map(ev)
        assert int(np.sum(res.mapping == 2)) <= 1


class TestWgdpTime:
    def test_small_instance_quality(self, platform):
        g = random_sp_graph(8, np.random.default_rng(5))
        ev = make_evaluator(g, platform, n_random=5)
        res = WgdpTimeMapper(time_limit_s=30).map(
            ev, rng=np.random.default_rng(0)
        )
        assert ev.is_feasible(res.mapping)
        # the time-based MILP should find a real improvement on small graphs
        assert ev.relative_improvement(res.mapping) > 0.0

    def test_streaming_flag_off_still_works(self, platform):
        g = random_sp_graph(6, np.random.default_rng(6))
        ev = make_evaluator(g, platform, n_random=5)
        res = WgdpTimeMapper(time_limit_s=20, streaming_aware=False).map(ev)
        assert ev.is_feasible(res.mapping)

    def test_timeout_falls_back_gracefully(self, platform):
        g = random_sp_graph(20, np.random.default_rng(7))
        ev = make_evaluator(g, platform, n_random=5)
        res = WgdpTimeMapper(time_limit_s=0.05).map(ev)
        # must return *something* feasible (often the CPU fallback)
        assert ev.is_feasible(res.mapping)


class TestZhouLiu:
    def test_tiny_instance(self, platform):
        g = random_sp_graph(5, np.random.default_rng(9))
        ev = make_evaluator(g, platform, n_random=5)
        res = ZhouLiuMapper(time_limit_s=60).map(ev)
        assert ev.is_feasible(res.mapping)
        assert res.stats["n_variables"] > 0

    def test_slot_cap_shrinks_problem(self, platform):
        g = random_sp_graph(6, np.random.default_rng(10))
        ev = make_evaluator(g, platform, n_random=5)
        full = ZhouLiuMapper(time_limit_s=30)
        capped = ZhouLiuMapper(time_limit_s=30, max_slots=2)
        r_full = full.map(ev)
        r_capped = capped.map(ev)
        assert r_capped.stats["n_variables"] < r_full.stats["n_variables"]
        assert ev.is_feasible(r_capped.mapping)

    def test_timeout_falls_back_gracefully(self, platform):
        g = random_sp_graph(12, np.random.default_rng(11))
        ev = make_evaluator(g, platform, n_random=5)
        res = ZhouLiuMapper(time_limit_s=0.05).map(ev)
        assert ev.is_feasible(res.mapping)


def _model_digest(builder: MilpBuilder) -> str:
    """SHA-256 of everything a solve receives: the objective, the
    constraint triplets and bounds, the variable bounds and the
    integrality, each float by its exact hex value."""
    def hexes(values):
        return [float(v).hex() for v in values]

    payload = repr((
        sorted((col, float(val).hex()) for col, val in builder._obj.items()),
        builder._rows, builder._cols, hexes(builder._vals),
        hexes(builder._con_lb), hexes(builder._con_ub),
        hexes(builder._lb), hexes(builder._ub), builder._integrality,
    ))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _pin_graphs():
    return {
        "sp6": random_sp_graph(6, np.random.default_rng(1)),
        "almost-sp7": random_almost_sp_graph(7, 2, np.random.default_rng(2)),
        "montage": make_workflow("montage", 8, np.random.default_rng(3)),
    }


_PIN_PLATFORMS = {
    "paper": paper_platform,
    "numa": lambda: with_topology(paper_platform(), "numa"),
    # the paper matrices already route GPU<->FPGA through the host, so
    # numa leaves them unchanged; on four devices routing changes them
    "quad-numa": lambda: with_topology(quad_platform(), "numa"),
}

_PIN_MAPPERS = {
    "WGDPDev": WgdpDeviceMapper,
    "WGDPTime": WgdpTimeMapper,
    "ZhouLiu": ZhouLiuMapper,
}


def capture_milp_models():
    """``{"mapper/graph/platform": digest}`` of every model the three MILP
    mappers build on the pin cases; ``MilpBuilder.solve`` is replaced by
    a capture that returns no solution, so nothing is solved."""
    captured = {}

    def capture(builder, **_kwargs):
        captured.setdefault("last", []).append(_model_digest(builder))
        return MilpSolution(x=None, status=1, message="captured",
                            objective=np.inf)

    out = {}
    original = MilpBuilder.solve
    MilpBuilder.solve = capture
    try:
        for pname, make_platform in _PIN_PLATFORMS.items():
            for gname, g in _pin_graphs().items():
                for mname, mapper in _PIN_MAPPERS.items():
                    captured.clear()
                    mapper().map(make_evaluator(g, make_platform(), n_random=2))
                    out[f"{mname}/{gname}/{pname}"] = ",".join(captured["last"])
    finally:
        MilpBuilder.solve = original
    return out


#: recorded before the cost tables became one numpy table set; every
#: MILP model must stay bit-identical (``python -m tests.test_milp``
#: prints the current digests)
MILP_MODEL_DIGESTS = {
    "WGDPDev/sp6/paper": "bed454b1ae7e84cb",
    "WGDPTime/sp6/paper": "8389765509dbfcf3",
    "ZhouLiu/sp6/paper": "7bf142c16c786640",
    "WGDPDev/almost-sp7/paper": "fe34438873df2114",
    "WGDPTime/almost-sp7/paper": "01a28dd72e9dda3c",
    "ZhouLiu/almost-sp7/paper": "aa81cd4b175f9ce4",
    "WGDPDev/montage/paper": "da1465bc3519619a",
    "WGDPTime/montage/paper": "b9880661e220aed3",
    "ZhouLiu/montage/paper": "45fd226130d3fd3f",
    "WGDPDev/sp6/numa": "bed454b1ae7e84cb",
    "WGDPTime/sp6/numa": "8389765509dbfcf3",
    "ZhouLiu/sp6/numa": "7bf142c16c786640",
    "WGDPDev/almost-sp7/numa": "fe34438873df2114",
    "WGDPTime/almost-sp7/numa": "01a28dd72e9dda3c",
    "ZhouLiu/almost-sp7/numa": "aa81cd4b175f9ce4",
    "WGDPDev/montage/numa": "da1465bc3519619a",
    "WGDPTime/montage/numa": "b9880661e220aed3",
    "ZhouLiu/montage/numa": "45fd226130d3fd3f",
    "WGDPDev/sp6/quad-numa": "fa8fa3b9e6b0a3f4",
    "WGDPTime/sp6/quad-numa": "e01b5d7a4ba8520b",
    "ZhouLiu/sp6/quad-numa": "4f018e84e08db1fe",
    "WGDPDev/almost-sp7/quad-numa": "e483cb63d160dd6b",
    "WGDPTime/almost-sp7/quad-numa": "f62ecba7d595233b",
    "ZhouLiu/almost-sp7/quad-numa": "8c57397ec4b4205d",
    "WGDPDev/montage/quad-numa": "b5c1de1efa1daedd",
    "WGDPTime/montage/quad-numa": "22c8f6a0029df44b",
    "ZhouLiu/montage/quad-numa": "6f11a615a8f17cf4",
}


def test_milp_models_are_pinned():
    assert capture_milp_models() == MILP_MODEL_DIGESTS


if __name__ == "__main__":
    for key, digest in capture_milp_models().items():
        print(f'    "{key}": "{digest}",')
