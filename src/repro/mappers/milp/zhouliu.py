"""The Zhou & Liu MILP [2] (paper Sec. IV-A, ``ZhouLiu``).

"The MILP presented by Zhou and Liu represents one of the first and most
detailed MILPs for a CPU-GPU environment, which creates a total order of
tasks on each processing unit by assigning execution slots to each task.  It
can be expected to produce very good results at high computation cost."

Formulation (on slot-expanded devices, so CPU task-concurrency is modeled):

- binaries ``x[t, d, k]``: task ``t`` occupies execution slot ``k`` of
  device ``d``; every task takes exactly one slot, every slot at most one
  task, slots are filled in order (symmetry breaking);
- continuous per-slot start/finish times ``S[d, k] / F[d, k]`` chained by
  ``S[d, k] >= F[d, k-1]``, with ``F = S + assigned execution time``;
- task start/finish ``s[t] / f[t]`` tied to their slot's times via big-M;
- precedence ``s[v] >= f[u] + comm`` with pair-exact transfer costs;
- FPGA area budget; host I/O for sources/sinks; objective = makespan.

The slot structure makes the model *large*: ``O(n^2 m)`` binaries, which is
why the paper could only run it up to 20 tasks within a 5-minute limit — a
behaviour this reproduction inherits by design.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ...evaluation.evaluator import MappingEvaluator
from ..base import Mapper
from .common import MilpBuilder, MilpProblemData

__all__ = ["ZhouLiuMapper"]


class ZhouLiuMapper(Mapper):
    """Execution-slot MILP of Zhou & Liu (see module docstring)."""

    name = "ZhouLiu"

    def __init__(
        self,
        *,
        time_limit_s: float = 300.0,
        mip_rel_gap: float = 1e-3,
        max_slots: int = 0,
    ) -> None:
        """``max_slots`` bounds slots per device (0 = n_tasks, the exact model)."""
        self.time_limit_s = time_limit_s
        self.mip_rel_gap = mip_rel_gap
        self.max_slots = max_slots
        super().__init__()

    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        data = MilpProblemData(evaluator)
        model = evaluator.model
        n = data.n
        me = data.m_expanded
        exec_table = data.exec_table
        big_m = data.horizon
        n_slots = n if self.max_slots <= 0 else min(self.max_slots, n)

        b = MilpBuilder()
        # x[i][e][k]
        x = [
            [[b.add_binary() for _ in range(n_slots)] for _ in range(me)]
            for _ in range(n)
        ]
        s = [b.add_continuous() for _ in range(n)]
        f = [b.add_continuous() for _ in range(n)]
        slot_s = [[b.add_continuous() for _ in range(n_slots)] for _ in range(me)]
        slot_f = [[b.add_continuous() for _ in range(n_slots)] for _ in range(me)]
        c_max = b.add_continuous()

        # each task in exactly one slot
        for i in range(n):
            b.add_constraint(
                {x[i][e][k]: 1.0 for e in range(me) for k in range(n_slots)},
                lb=1.0,
                ub=1.0,
            )
        # each slot holds at most one task; slots fill in order
        for e in range(me):
            for k in range(n_slots):
                b.add_constraint(
                    {x[i][e][k]: 1.0 for i in range(n)}, ub=1.0
                )
                if k > 0:
                    coeffs = {x[i][e][k]: 1.0 for i in range(n)}
                    for i in range(n):
                        coeffs[x[i][e][k - 1]] = coeffs.get(x[i][e][k - 1], 0.0) - 1.0
                    b.add_constraint(coeffs, ub=0.0)
        # slot time chaining and duration
        for e in range(me):
            for k in range(n_slots):
                # F[e,k] = S[e,k] + sum_i exec[i,e] x[i,e,k]
                coeffs = {slot_f[e][k]: 1.0, slot_s[e][k]: -1.0}
                for i in range(n):
                    coeffs[x[i][e][k]] = -float(exec_table[i, e])
                b.add_constraint(coeffs, lb=0.0, ub=0.0)
                if k > 0:
                    b.add_constraint(
                        {slot_s[e][k]: 1.0, slot_f[e][k - 1]: -1.0}, lb=0.0
                    )
        # tie task times to slot times (big-M on assignment)
        for i in range(n):
            for e in range(me):
                for k in range(n_slots):
                    xi = x[i][e][k]
                    b.add_constraint(
                        {s[i]: 1.0, slot_s[e][k]: -1.0, xi: big_m}, ub=big_m
                    )
                    b.add_constraint(
                        {s[i]: 1.0, slot_s[e][k]: -1.0, xi: -big_m}, lb=-big_m
                    )
                    b.add_constraint(
                        {f[i]: 1.0, slot_f[e][k]: -1.0, xi: big_m}, ub=big_m
                    )
                    b.add_constraint(
                        {f[i]: 1.0, slot_f[e][k]: -1.0, xi: -big_m}, lb=-big_m
                    )
            # f[i] = s[i] + dur(i)  (tightening)
            coeffs = {f[i]: 1.0, s[i]: -1.0}
            for e in range(me):
                for k in range(n_slots):
                    coeffs[x[i][e][k]] = -float(exec_table[i, e])
            b.add_constraint(coeffs, lb=0.0, ub=0.0)
            # source input transfer: s[i] >= sum initial[i,e] * y[i,e]
            if data.initial[i].max() > 0:
                coeffs = {s[i]: 1.0}
                for e in range(me):
                    for k in range(n_slots):
                        coeffs[x[i][e][k]] = -float(data.initial[i][e])
                b.add_constraint(coeffs, lb=0.0)

        # precedence with pair-exact communication
        for (u, v) in data.edges:
            trans = data.edge_trans[(u, v)]
            c_e = b.add_continuous()
            for du in range(me):
                for dv in range(me):
                    t_cost = float(trans[du, dv])
                    if t_cost <= 0.0:
                        continue
                    coeffs = {c_e: 1.0}
                    for k in range(n_slots):
                        coeffs[x[u][du][k]] = coeffs.get(x[u][du][k], 0.0) - t_cost
                        coeffs[x[v][dv][k]] = coeffs.get(x[v][dv][k], 0.0) - t_cost
                    b.add_constraint(coeffs, lb=-t_cost)
            b.add_constraint({s[v]: 1.0, f[u]: -1.0, c_e: -1.0}, lb=0.0)

        # FPGA area
        area = model.area
        for e, cap in data.area_devices.items():
            b.add_constraint(
                {
                    x[i][e][k]: float(area[i])
                    for i in range(n)
                    for k in range(n_slots)
                },
                ub=float(cap),
            )
        # makespan with sink return transfers
        for i in range(n):
            coeffs = {c_max: 1.0, f[i]: -1.0}
            for e in range(me):
                f_cost = float(data.final[i][e])
                if f_cost > 0:
                    for k in range(n_slots):
                        coeffs[x[i][e][k]] = coeffs.get(x[i][e][k], 0.0) - f_cost
            b.add_constraint(coeffs, lb=0.0)

        b.set_objective({c_max: 1.0})
        sol = b.solve(
            time_limit_s=self.time_limit_s, mip_rel_gap=self.mip_rel_gap
        )
        stats = {
            "status": float(sol.status),
            "objective": sol.objective,
            "n_variables": float(b.n_variables),
        }
        if sol.x is None:
            return evaluator.cpu_mapping(), {**stats, "fallback": 1.0}
        expanded: List[int] = []
        for i in range(n):
            weights = [
                sum(sol.x[x[i][e][k]] for k in range(n_slots)) for e in range(me)
            ]
            expanded.append(int(np.argmax(weights)))
        mapping = data.collapse_mapping(expanded)
        if not evaluator.is_feasible(mapping):  # pragma: no cover - defensive
            return evaluator.cpu_mapping(), {**stats, "fallback": 1.0}
        return mapping, stats
