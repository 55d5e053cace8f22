"""Shared infrastructure for the MILP mappers.

The paper solves its three mixed-integer linear programs with Gurobi; we use
:func:`scipy.optimize.milp` (HiGHS), which is available offline.  This module
provides

- :class:`MilpBuilder` — a tiny variable/constraint registry that assembles
  the sparse constraint matrix for ``scipy.optimize.milp``;
- :class:`MilpProblemData` — the per-instance tables every formulation
  needs: the *slot-expanded* device list (a serializing device with ``k``
  slots becomes ``k`` identical MILP devices so that device concurrency is
  representable with disjunctive constraints), execution/transfer tables on
  expanded devices, reachability (to skip no-overlap constraints for pairs
  already ordered by precedence), and a big-M horizon.

Mappings are extracted on expanded devices and collapsed back to the real
platform devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...evaluation.evaluator import MappingEvaluator

__all__ = ["MilpBuilder", "MilpSolution", "MilpProblemData"]


@dataclass
class MilpSolution:
    """Raw solver outcome."""

    x: Optional[np.ndarray]
    status: int           # scipy milp status code (0 = optimal, 1 = limit hit)
    message: str
    objective: float


class MilpBuilder:
    """Incremental builder for ``scipy.optimize.milp`` problems."""

    def __init__(self) -> None:
        self._n = 0
        self._lb: List[float] = []
        self._ub: List[float] = []
        self._integrality: List[int] = []
        self._obj: Dict[int, float] = {}
        # constraint triplets
        self._rows: List[int] = []
        self._cols: List[int] = []
        self._vals: List[float] = []
        self._con_lb: List[float] = []
        self._con_ub: List[float] = []

    # -- variables -------------------------------------------------------
    def add_continuous(self, lb: float = 0.0, ub: float = np.inf) -> int:
        idx = self._n
        self._n += 1
        self._lb.append(lb)
        self._ub.append(ub)
        self._integrality.append(0)
        return idx

    def add_binary(self) -> int:
        idx = self._n
        self._n += 1
        self._lb.append(0.0)
        self._ub.append(1.0)
        self._integrality.append(1)
        return idx

    def add_binaries(self, count: int) -> List[int]:
        return [self.add_binary() for _ in range(count)]

    @property
    def n_variables(self) -> int:
        return self._n

    # -- constraints & objective ------------------------------------------
    def add_constraint(
        self,
        coeffs: Dict[int, float],
        lb: float = -np.inf,
        ub: float = np.inf,
    ) -> None:
        """Add ``lb <= sum(coef * var) <= ub`` (merge duplicate columns)."""
        row = len(self._con_lb)
        merged: Dict[int, float] = {}
        for col, val in coeffs.items():
            merged[col] = merged.get(col, 0.0) + val
        for col, val in merged.items():
            if val != 0.0:
                self._rows.append(row)
                self._cols.append(col)
                self._vals.append(val)
        self._con_lb.append(lb)
        self._con_ub.append(ub)

    def set_objective(self, coeffs: Dict[int, float]) -> None:
        self._obj = dict(coeffs)

    # -- solve -------------------------------------------------------------
    def solve(
        self,
        *,
        time_limit_s: Optional[float] = None,
        mip_rel_gap: Optional[float] = None,
    ) -> MilpSolution:
        # scipy is imported here, on the first solve, so that
        # ``import repro`` does not pay for loading it
        import scipy.sparse as sp
        from scipy.optimize import Bounds, LinearConstraint, milp

        c = np.zeros(self._n)
        for col, val in self._obj.items():
            c[col] = val
        a = sp.csr_matrix(
            (self._vals, (self._rows, self._cols)),
            shape=(len(self._con_lb), self._n),
        )
        constraints = LinearConstraint(
            a, np.array(self._con_lb), np.array(self._con_ub)
        )
        options: Dict[str, object] = {}
        if time_limit_s is not None:
            options["time_limit"] = float(time_limit_s)
        if mip_rel_gap is not None:
            options["mip_rel_gap"] = float(mip_rel_gap)
        integrality = np.array(self._integrality)
        bounds = Bounds(np.array(self._lb), np.array(self._ub))
        res = milp(
            c,
            constraints=constraints,
            integrality=integrality,
            bounds=bounds,
            options=options,
        )
        if (int(res.status) == 4 and getattr(res, "x", None) is None
                and "limit" not in str(res.message).lower()):
            # HiGHS presolve occasionally chokes on big-M streaming rows
            # ("Solve error"); retrying without presolve is reliable.  A
            # limit stop ("Solution limit reached") also reports status
            # 4, but it keeps its incumbent, which a re-solve would lose.
            res = milp(
                c,
                constraints=constraints,
                integrality=integrality,
                bounds=bounds,
                options={**options, "presolve": False},
            )
        x = getattr(res, "x", None)
        obj = float(res.fun) if x is not None and res.fun is not None else np.inf
        return MilpSolution(
            x=None if x is None else np.asarray(x),
            status=int(res.status),
            message=str(res.message),
            objective=obj,
        )


@dataclass
class MilpProblemData:
    """Slot-expanded per-instance tables shared by all MILP formulations."""

    evaluator: MappingEvaluator
    n: int = field(init=False)
    #: expanded device index -> real platform device index
    device_map: List[int] = field(init=False)
    #: expanded execution table (n x m_expanded)
    exec_table: np.ndarray = field(init=False)
    #: expanded per-edge transfer tables: edges[(u_idx, v_idx)] -> matrix
    edge_trans: Dict[Tuple[int, int], np.ndarray] = field(init=False)
    #: topologically ordered edge list as index pairs
    edges: List[Tuple[int, int]] = field(init=False)
    #: initial / final host transfer tables on expanded devices
    initial: np.ndarray = field(init=False)
    final: np.ndarray = field(init=False)
    #: expanded indices that serialize (need disjunctive no-overlap)
    serial_devices: List[int] = field(init=False)
    #: expanded FPGA-like indices with (capacity) for area constraints
    area_devices: Dict[int, float] = field(init=False)
    #: reach[i] = set of task indices reachable from i (excluding i)
    reach: List[set] = field(init=False)
    horizon: float = field(init=False)

    def __post_init__(self) -> None:
        ev = self.evaluator
        model = ev.model
        platform = ev.platform
        self.n = model.n

        self.device_map = []
        for d, dev in enumerate(platform.devices):
            copies = dev.slots if dev.serializes else 1
            self.device_map.extend([d] * copies)

        flat = model.flat
        dm = np.asarray(self.device_map)
        self.exec_table = model.exec_table[:, dm]
        self.initial = flat.initial[:, dm]
        self.final = flat.final[:, dm]

        # per edge, in edge id order: the transfer table on expanded
        # devices, free within one real device (also across slot copies)
        trans = flat.pred_trans.reshape(-1, model.m, model.m)
        trans = trans[:, dm[:, None], dm[None, :]]
        trans[:, dm[:, None] == dm[None, :]] = 0.0
        dst = np.repeat(np.arange(self.n), np.diff(flat.pred_ptr))
        self.edges = list(zip(flat.pred_src.tolist(), dst.tolist()))
        self.edge_trans = dict(zip(self.edges, trans))

        self.serial_devices = [
            e for e, d in enumerate(self.device_map)
            if platform.devices[d].serializes
        ]
        caps = platform.area_capacities()
        self.area_devices = {
            e: caps[d] for e, d in enumerate(self.device_map) if d in caps
        }

        # reachability via DFS over successors
        g = ev.graph
        index = model.index
        succ_ptr = flat.succ_ptr.tolist()
        succ_dst = flat.succ_dst.tolist()
        reach: List[set] = [set() for _ in range(self.n)]
        for t in reversed(g.topological_order()):
            i = index[t]
            acc = set()
            for j in succ_dst[succ_ptr[i]:succ_ptr[i + 1]]:
                acc.add(j)
                acc |= reach[j]
            reach[i] = acc
        self.reach = reach

        self.horizon = float(
            self.exec_table.max(axis=1).sum()
            + sum(t.max() for t in self.edge_trans.values())
            + self.initial.max(axis=1).sum()
            + self.final.max(axis=1).sum()
        ) * 1.05 + 1.0

    # ------------------------------------------------------------------
    @property
    def m_expanded(self) -> int:
        return len(self.device_map)

    def collapse_mapping(self, expanded: Sequence[int]) -> np.ndarray:
        """Expanded-device assignment -> real platform mapping."""
        return np.array([self.device_map[e] for e in expanded], dtype=np.int64)

    def unordered_pairs(self) -> List[Tuple[int, int]]:
        """Task pairs not ordered by precedence (need disjunctive constraints)."""
        out = []
        for i in range(self.n):
            ri = self.reach[i]
            for j in range(i + 1, self.n):
                if j not in ri and i not in self.reach[j]:
                    out.append((i, j))
        return out
