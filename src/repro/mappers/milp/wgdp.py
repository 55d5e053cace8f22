"""The two WGDP MILPs of Wilhelm et al. [5] (paper Sec. IV-A).

``WGDP Dev`` — device-based workload balancing:
    binary assignment ``y[t, d]``; minimize the maximum device load
    ``sum_t exec[t, d] * y[t, d] / slots(d)`` subject to FPGA area.  "Aims to
    balance the workload on the available processing units without
    considering dependencies" — very fast, mediocre on dependency-heavy
    graphs.

``WGDP Time`` — time-based formulation:
    assignment binaries on *slot-expanded* devices, continuous start times,
    big-M precedence with pair-exact transfer costs, disjunctive no-overlap
    for precedence-unordered task pairs on serializing devices, and —
    uniquely among the MILPs (paper: "the only MILP that takes data
    streaming into account") — optional streaming relaxation: an edge whose
    endpoints both sit on a streaming device may overlap producer and
    consumer (consumer starts after the producer's pipeline fill time).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ...evaluation.evaluator import MappingEvaluator
from ..base import Mapper
from .common import MilpBuilder, MilpProblemData

__all__ = ["WgdpDeviceMapper", "WgdpTimeMapper"]


class WgdpDeviceMapper(Mapper):
    """Device-based workload-balancing MILP (``WGDP Dev``)."""

    name = "WGDPDev"

    def __init__(self, *, time_limit_s: float = 60.0) -> None:
        self.time_limit_s = time_limit_s
        super().__init__()

    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        model = evaluator.model
        platform = evaluator.platform
        n, m = model.n, model.m
        exec_table = model.exec_table
        area = model.area
        slots = np.array([d.slots if d.serializes else 1 for d in platform.devices])

        b = MilpBuilder()
        y = [[b.add_binary() for _ in range(m)] for _ in range(n)]
        c_max = b.add_continuous()
        for i in range(n):
            b.add_constraint({y[i][d]: 1.0 for d in range(m)}, lb=1.0, ub=1.0)
        for d in range(m):
            coeffs = {y[i][d]: exec_table[i, d] / slots[d] for i in range(n)}
            coeffs[c_max] = -1.0
            b.add_constraint(coeffs, ub=0.0)
        for d, cap in platform.area_capacities().items():
            b.add_constraint(
                {y[i][d]: float(area[i]) for i in range(n)}, ub=float(cap)
            )
        b.set_objective({c_max: 1.0})
        sol = b.solve(time_limit_s=self.time_limit_s)

        stats = {"status": float(sol.status), "objective": sol.objective}
        if sol.x is None:
            return evaluator.cpu_mapping(), {**stats, "fallback": 1.0}
        mapping = np.zeros(n, dtype=np.int64)
        for i in range(n):
            mapping[i] = int(np.argmax([sol.x[y[i][d]] for d in range(m)]))
        if not evaluator.is_feasible(mapping):  # pragma: no cover - defensive
            return evaluator.cpu_mapping(), {**stats, "fallback": 1.0}
        return mapping, stats


class WgdpTimeMapper(Mapper):
    """Time-based MILP with streaming awareness (``WGDP Time``)."""

    name = "WGDPTime"

    def __init__(
        self,
        *,
        time_limit_s: float = 60.0,
        mip_rel_gap: float = 1e-3,
        streaming_aware: bool = True,
    ) -> None:
        self.time_limit_s = time_limit_s
        self.mip_rel_gap = mip_rel_gap
        self.streaming_aware = streaming_aware
        super().__init__()

    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        data = MilpProblemData(evaluator)
        model = evaluator.model
        platform = evaluator.platform
        n = data.n
        me = data.m_expanded
        exec_table = data.exec_table
        big_m = data.horizon

        streaming_exp = [
            platform.devices[d].streaming for d in data.device_map
        ]
        fill = model.fill_rows  # n x m real devices

        b = MilpBuilder()
        y = [[b.add_binary() for _ in range(me)] for _ in range(n)]
        s = [b.add_continuous() for _ in range(n)]
        c_max = b.add_continuous()

        # assignment
        for i in range(n):
            b.add_constraint({y[i][e]: 1.0 for e in range(me)}, lb=1.0, ub=1.0)
        # area on expanded FPGA devices
        area = model.area
        for e, cap in data.area_devices.items():
            b.add_constraint(
                {y[i][e]: float(area[i]) for i in range(n)}, ub=float(cap)
            )
        # source input transfers: s[t] >= sum_e initial[t,e] y[t,e]
        for i in range(n):
            if data.initial[i].max() > 0:
                coeffs = {s[i]: 1.0}
                for e in range(me):
                    coeffs[y[i][e]] = -float(data.initial[i][e])
                b.add_constraint(coeffs, lb=0.0)

        def dur_coeffs(i: int, sign: float) -> Dict[int, float]:
            return {y[i][e]: sign * float(exec_table[i, e]) for e in range(me)}

        # precedence + transfers (+ optional streaming relaxation)
        edge_comm: Dict[Tuple[int, int], int] = {}
        stream_z: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for (u, v) in data.edges:
            trans = data.edge_trans[(u, v)]
            c_e = b.add_continuous()
            edge_comm[(u, v)] = c_e
            # c_e >= trans[du,dv] - M(2 - y[u,du] - y[v,dv])
            for du in range(me):
                for dv in range(me):
                    t_cost = float(trans[du, dv])
                    if t_cost <= 0.0:
                        continue
                    b.add_constraint(
                        {
                            c_e: 1.0,
                            y[u][du]: -t_cost,
                            y[v][dv]: -t_cost,
                        },
                        lb=-t_cost,
                    )
            zs: List[Tuple[int, int]] = []
            if self.streaming_aware:
                for e in range(me):
                    if not streaming_exp[e]:
                        continue
                    z = b.add_binary()
                    zs.append((z, e))
                    b.add_constraint({z: 1.0, y[u][e]: -1.0}, ub=0.0)
                    b.add_constraint({z: 1.0, y[v][e]: -1.0}, ub=0.0)
                    # streamed floor: s[v] >= s[u] + fill(u) - M(1 - z)
                    real_d = data.device_map[e]
                    b.add_constraint(
                        {
                            s[v]: 1.0,
                            s[u]: -1.0,
                            z: -big_m,
                        },
                        lb=float(fill[u][real_d]) - big_m,
                    )
            stream_z[(u, v)] = zs
            # s[v] >= s[u] + dur(u) + c_e - M * sum(z)
            coeffs = {s[v]: 1.0, s[u]: -1.0, c_e: -1.0}
            coeffs.update(dur_coeffs(u, -1.0))
            for z, _ in zs:
                coeffs[z] = big_m
            b.add_constraint(coeffs, lb=0.0)

        # disjunctive no-overlap on serializing expanded devices, only for
        # precedence-unordered pairs (ordered pairs are separated already)
        n_pairs = 0
        for (i, j) in data.unordered_pairs():
            o = b.add_binary()
            n_pairs += 1
            for e in data.serial_devices:
                # s[j] >= s[i] + exec[i,e] - M(3 - y[i,e] - y[j,e] - o)
                b.add_constraint(
                    {
                        s[j]: 1.0,
                        s[i]: -1.0,
                        y[i][e]: -big_m,
                        y[j][e]: -big_m,
                        o: -big_m,
                    },
                    lb=float(exec_table[i, e]) - 3.0 * big_m,
                )
                # s[i] >= s[j] + exec[j,e] - M(2 + o - y[i,e] - y[j,e])
                b.add_constraint(
                    {
                        s[i]: 1.0,
                        s[j]: -1.0,
                        y[i][e]: -big_m,
                        y[j][e]: -big_m,
                        o: big_m,
                    },
                    lb=float(exec_table[j, e]) - 2.0 * big_m,
                )

        # makespan: c_max >= s[t] + dur(t) + final return
        for i in range(n):
            coeffs = {c_max: 1.0, s[i]: -1.0}
            coeffs.update(dur_coeffs(i, -1.0))
            for e in range(me):
                f_cost = float(data.final[i][e])
                if f_cost > 0:
                    coeffs[y[i][e]] = coeffs.get(y[i][e], 0.0) - f_cost
            b.add_constraint(coeffs, lb=0.0)

        b.set_objective({c_max: 1.0})
        sol = b.solve(
            time_limit_s=self.time_limit_s, mip_rel_gap=self.mip_rel_gap
        )
        stats = {
            "status": float(sol.status),
            "objective": sol.objective,
            "n_variables": float(b.n_variables),
            "n_pairs": float(n_pairs),
        }
        if sol.x is None:
            return evaluator.cpu_mapping(), {**stats, "fallback": 1.0}
        expanded = [
            int(np.argmax([sol.x[y[i][e]] for e in range(me)])) for i in range(n)
        ]
        mapping = data.collapse_mapping(expanded)
        if not evaluator.is_feasible(mapping):  # pragma: no cover - defensive
            return evaluator.cpu_mapping(), {**stats, "fallback": 1.0}
        return mapping, stats
