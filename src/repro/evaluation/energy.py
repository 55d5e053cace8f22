"""Energy model — the multi-objective extension (paper Sec. V).

The paper notes its "basic algorithmic ideas [...] can easily be transferred
to multi-objective optimization"; this module supplies the second objective:
total energy of one application run under a given mapping,

    E = sum_tasks  exec_time(t, dev(t)) * watts_active(dev(t))   # compute
      + sum_edges  data_mb * JOULES_PER_MB[link]                 # transfers
      + makespan * sum_devices watts_idle                        # idle floor

The structure mirrors the makespan model: co-locating communicating tasks
saves transfer energy, the FPGA is by far the most energy-efficient
processor (18 W vs 155/210 W), and faster makespans reduce the idle floor —
so makespan and energy are correlated but *not* aligned: the GPU often wins
time while losing energy, which is exactly the tension a multi-objective
mapper has to expose (see :mod:`repro.mappers.multiobjective`).

:meth:`EnergyModel.energy` is the Pareto NSGA-II fitness hot path (one
call per distinct genome per generation), so it runs on flat Python
lists derived at construction from the cost model's table set
(:class:`~repro.evaluation.kernel.FlatModel`: ``edge_mb`` per
predecessor edge, ``input_mb`` and ``sink_mb`` per task) — the same
accumulation order as the original loop, kept as
:meth:`EnergyModel._energy_reference`.  That loop reads the graph alone,
so it is an independent oracle for the table volumes, and
``tests/test_batch_population.py`` pins the two bit for bit: an
optimization, never an approximation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.taskgraph import DEFAULT_DATA_MB
from .costmodel import INFEASIBLE, CostModel

__all__ = ["JOULES_PER_MB", "EnergyModel"]

#: Transfer energy per MB moved across a PCIe-class link (both endpoints
#: busy plus DMA), a coarse literature-typical constant.
JOULES_PER_MB = 0.02


class EnergyModel:
    """Precomputed energy tables for one graph/platform pair.

    Shares the :class:`CostModel`'s execution-time tables; one evaluation is
    O(V + E) like the makespan simulation.
    """

    def __init__(self, model: CostModel) -> None:
        self.model = model
        platform = model.platform
        self._active = [d.watts_active for d in platform.devices]
        self._idle_total = float(sum(d.watts_idle for d in platform.devices))
        # per-task compute energy per device: exec * active watts
        self._compute = model.exec_table * np.asarray(self._active)[None, :]
        # flat mirrors for the fast path: plain Python lists, walked in
        # exactly the reference loop's order (see module docstring)
        self._compute_l: List[List[float]] = self._compute.tolist()
        self._host = model.platform.host_index
        flat = model.flat
        src = flat.pred_src.tolist()
        mb = flat.edge_mb.tolist()
        ptr = flat.pred_ptr.tolist()
        #: per task: [(pred_index, edge data_mb), ...] in edge order
        self._edges_l: List[List[Tuple[int, float]]] = [
            list(zip(src[a:b], mb[a:b])) for a, b in zip(ptr, ptr[1:])
        ]
        #: per task: host input volume of a source / return volume of a
        #: sink, 0.0 otherwise (adding 0.0 leaves a sum's bits unchanged)
        self._input_l: List[float] = flat.input_mb.tolist()
        self._sink_l: List[float] = flat.sink_mb.tolist()

    def transfer_mb(self, mapping: Sequence[int], i: int) -> float:
        """MB moved to *start* task ``i`` under ``mapping``: its off-device
        predecessor edges plus, for a source off the host, the initial
        host→device input.  The sink's return transfer is separate
        (:meth:`sink_mb`) — it happens after the task finishes.

        This is the per-task decomposition of the transfer term of
        :meth:`energy`; the runtime engine charges it at task start so
        re-executed (rolled-back) work pays its transfers again.
        """
        d = mapping[i]
        mb = 0.0
        for p, vol in self._edges_l[i]:
            if mapping[p] != d:
                mb += vol
        if d != self._host:
            mb += self._input_l[i]
        return mb

    def sink_mb(self, mapping: Sequence[int], i: int) -> float:
        """MB of task ``i``'s device→host result transfer (0 if not an
        off-host sink) — the counterpart of :meth:`transfer_mb`."""
        if mapping[i] != self._host:
            return self._sink_l[i]
        return 0.0

    def energy(
        self,
        mapping: Sequence[int],
        *,
        makespan: Optional[float] = None,
        check_feasibility: bool = True,
    ) -> float:
        """Total energy (J) of one run; INFEASIBLE if area is violated.

        ``makespan`` may be passed to reuse an already-computed value;
        otherwise the BFS-schedule makespan is simulated.  Accumulation
        order is bit-identical to :meth:`_energy_reference`.
        """
        model = self.model
        if check_feasibility and not model.is_feasible(mapping):
            return INFEASIBLE
        if isinstance(mapping, np.ndarray):
            mapping = mapping.tolist()
        else:
            mapping = list(mapping)
        if makespan is None:
            makespan = model.simulate(mapping, check_feasibility=False)
        # one fused pass: `total` still receives all compute terms first
        # (in task order) and `transfer_mb` accumulates in the reference
        # loop's edge order — separate accumulators, so interleaving the
        # passes changes neither accumulation order
        compute = self._compute_l
        total = 0.0
        transfer_mb = 0.0
        host = self._host
        input_l = self._input_l
        sink_l = self._sink_l
        for i, edges in enumerate(self._edges_l):
            d = mapping[i]
            total += compute[i][d]
            for p, mb in edges:
                if mapping[p] != d:
                    transfer_mb += mb
            if d != host:
                transfer_mb += input_l[i]
                transfer_mb += sink_l[i]
        total += transfer_mb * JOULES_PER_MB
        total += makespan * self._idle_total
        return total

    def _energy_reference(
        self,
        mapping: Sequence[int],
        *,
        makespan: Optional[float] = None,
        check_feasibility: bool = True,
    ) -> float:
        """The original table-walking loop, kept as the executable spec.

        :meth:`energy` must reproduce it bit-for-bit
        (``tests/test_batch_population.py``); not used on any hot path.
        """
        model = self.model
        if check_feasibility and not model.is_feasible(mapping):
            return INFEASIBLE
        mapping = list(mapping)
        if makespan is None:
            makespan = model.simulate(mapping, check_feasibility=False)
        compute = self._compute
        total = 0.0
        for i in range(model.n):
            total += compute[i][mapping[i]]
        # transfer energy: off-device edges plus source/sink host I/O,
        # read from the graph alone (an oracle for the table volumes)
        transfer_mb = 0.0
        g = model.graph
        index = model.index
        host = model.platform.host_index
        for i, t in enumerate(model.tasks):
            d = mapping[i]
            for p in g.predecessors(t):
                if mapping[index[p]] != d:
                    transfer_mb += g.data_mb(p, t)
            if g.in_degree(t) == 0 and d != host:
                transfer_mb += g.input_mb(t)
            if g.out_degree(t) == 0 and d != host:
                # a sink returns its input volume, capped at one edge unit
                transfer_mb += min(g.input_mb(t), DEFAULT_DATA_MB)
        total += transfer_mb * JOULES_PER_MB
        total += makespan * self._idle_total
        return total

