"""Linear-time model-based makespan evaluation (paper Sec. II-B / III-A).

The paper's key enabler is a cost function that re-evaluates a *complete*
mapping in O(edges), so the greedy decomposition mapper can afford a full
re-evaluation per candidate move.  :class:`CostModel` implements that
function as a list-scheduling simulation over a fixed priority order:

- tasks are visited in a topological *schedule* order;
- a task's ready time is the max over its predecessors of
  ``finish(pred) + transfer`` (transfer is zero on the same device);
- serializing devices (CPU, GPU) offer a bounded number of concurrent task
  ``slots`` — the task starts at ``max(ready, earliest_slot_available)``
  (a 16-core CPU is 4 slots of 4 cores; the GPU is a single slot);
- the FPGA is *spatial*: no serialization, instead the total mapped task
  ``area`` must fit the device (hard feasibility);
- **streaming**: for an edge ``u -> v`` with both tasks on a streaming
  device, ``v`` starts once ``u``'s pipeline is filled
  (``start(u) + exec(u) / streamability(u)``) instead of after ``u``
  finishes, and ``v`` cannot finish before ``u`` does (pipeline drain) —
  this is the dataflow behaviour that makes co-mapping whole subgraphs to
  the FPGA attractive, which the series-parallel decomposition exploits;
- source tasks mapped off-host pay the initial host-to-device transfer of
  their input; sink tasks pay the return transfer of their result
  (volume = input volume capped at one edge unit, ``FlatModel.sink_mb``).

All tables (execution times, per-edge transfer costs for every device pair)
are precomputed once per graph, so one evaluation is a tight O(V + E) loop —
the hot path of the whole library (hpc guide: optimize the bottleneck only).

Evaluation architecture — one specification, one compiled loop body:

- the tables are one read-only numpy set,
  :class:`repro.evaluation.kernel.FlatModel` (``flat``), built once from
  the graph and platform; every layer reads it or the public names
  derived from it, and none re-derives a table from the graph;
- the specification is the nested-list walk :meth:`_simulate_reference`
  over lists derived from that set once (``exec_rows``, ``fill_rows``,
  ``initial_rows``, ``final_rows``, ``preds``), which the runtime engine
  and the list schedulers read too; with a ``record`` list it also
  yields the per-task records of :func:`repro.evaluation.trace.simulate_trace`;
- with the compiled kernel loaded every entry goes to its C function,
  all on the one C loop ``span_core`` over the set's arrays; without it
  every entry runs :meth:`_simulate_reference` itself (the fallback
  kernel), so there is no second Python loop;
- :meth:`simulate` is one scratch pass (construction makespan);
- :meth:`simulate_min` is the 101-schedule reported suite: one C call
  (``repro_span_min``) over the suite's ``(K, n)`` order array, each walk
  bounded by the best makespan so far, or the minimum of one reference
  walk per schedule;
- :meth:`simulate_many` scores a ``(P, n)`` population (NSGA-II, Pareto
  NSGA-II) and is the one place that decides genome dedup:
  vectorized, exact area feasibility over all rows, then the C
  kernel's ``repro_span_batch_dedup`` lane loop (one ctypes call per
  population, dedup in-kernel) or one reference walk per distinct
  feasible row;
- :class:`repro.evaluation.delta.DeltaEvaluator` keeps per-position
  prefix snapshots under the fixed BFS schedule and re-simulates **only
  the suffix** from the first position a move touches — O(affected
  suffix) instead of O(V + E) per candidate move (greedy, tabu and
  annealing mappers); its snapshots come from the same C loop run with
  recording buffers.  Without the C kernel a move is one reference walk
  of the moved mapping, charged as the suffix it stands for;
- exactness contract: every C path performs bit-for-bit the same float64
  operations in the same order as :meth:`_simulate_reference` (pinned by
  ``tests/test_kernel_delta.py`` / ``tests/test_batch_population.py``,
  and the mapper trajectories on both kernels by ``tests/test_golden.py``)
  — they are optimizations, never approximations.

Bookkeeping: ``n_simulations`` counts full scratch simulations (one per
:meth:`simulate` call, as before); ``n_delta_evaluations`` counts
incremental suffix re-evaluations and ``delta_steps`` sums their suffix
lengths, in task steps; ``n_batched_evaluations`` counts distinct lanes
simulated by :meth:`simulate_many` (each a full pass) and
``n_batch_calls`` the calls, so ``n_batched_evaluations / n_batch_calls``
is the realized mean batch width.  Every counter is an integer;
``n_simulations + n_batched_evaluations + delta_steps / n`` is the
model-evaluation effort in units of one O(V + E) pass.
"""

from __future__ import annotations

import ctypes
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.taskgraph import TaskGraph
from ..obs import metrics as _metrics
from ..platform.platform import Platform
from ._ckernel import load_ckernel
from .kernel import DEDUP_TABLE_FACTOR, FlatModel

__all__ = ["CostModel", "INFEASIBLE", "AREA_TOL", "AREA_UNIT",
           "to_area_units", "area_limit_units"]

#: Makespan reported for mappings that violate a hard constraint.
INFEASIBLE = float("inf")

#: The grid every area-feasibility *decision* counts on.  Task areas and
#: device capacities are rounded to whole units once, when a model is
#: built (:func:`to_area_units`, :func:`area_limit_units`), and held as
#: integer-valued float64: every partial sum of a graph's areas is then
#: an integer below 2**53, exact in any summation order, so the static
#: check (:meth:`CostModel.is_feasible`), its vectorized twin
#: (:meth:`CostModel.feasible_mask`), the incremental delta and C scan
#: checks (:mod:`repro.evaluation.delta`), NSGA-II's repair, the list
#: schedulers and the runtime engine (its replan path and its cross-job
#: :class:`~repro.runtime.ledger.AreaLedger`) all decide a threshold
#: with one comparison and agree at the boundary.  Real-valued areas
#: (``CostModel.area``, :meth:`CostModel.area_usage`) stay for display
#: and for the MILP formulations' constraints.
AREA_UNIT = 1e-9

#: Absolute slack allowed on a device's area budget, exactly one
#: :data:`AREA_UNIT`: a summed usage up to ``capacity + AREA_TOL`` counts
#: as feasible, i.e. up to :func:`area_limit_units` units.
AREA_TOL = AREA_UNIT


def to_area_units(area: np.ndarray) -> np.ndarray:
    """``area`` in whole units of :data:`AREA_UNIT` (integer-valued
    float64).  Raises :class:`ValueError` unless their sum stays below
    2**53, where every partial sum is exact in float64."""
    units = np.rint(np.asarray(area, dtype=np.float64) / AREA_UNIT)
    if units.sum() >= 2.0 ** 53:
        raise ValueError(
            f"summed task area {float(np.sum(area))!r} exceeds 2**53 "
            f"area units of {AREA_UNIT!r}: area sums would not be exact"
        )
    return units


def area_limit_units(platform: Platform) -> Dict[int, float]:
    """Per area-capped device (``area_capacities()`` order) its budget in
    units: the capacity in whole units of :data:`AREA_UNIT` plus
    :data:`AREA_TOL`, one unit.  A usage fits iff it is at most this."""
    return {
        d: float(np.rint(cap / AREA_UNIT)) + 1.0
        for d, cap in platform.area_capacities().items()
    }


class CostModel:
    """Precomputed cost tables and the makespan simulation for one graph.

    ``use_ckernel`` selects the compiled C kernel explicitly (``True`` /
    ``False``); the default ``None`` uses it when available (see
    :mod:`repro.evaluation._ckernel`).  Results are identical either way.
    """

    def __init__(
        self,
        graph: TaskGraph,
        platform: Platform,
        *,
        use_ckernel: Optional[bool] = None,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.platform = platform
        self.tasks: List[int] = graph.tasks()
        self.index: Dict[int, int] = {t: i for i, t in enumerate(self.tasks)}
        self.n = len(self.tasks)
        self.m = platform.n_devices

        # --- the one table set (read-only numpy, see kernel.py) ---------
        # On a topology-aware platform its transfer rows are already the
        # *routed effective* costs (multi-hop latencies summed,
        # bandwidths composed), so interconnect topology is priced here,
        # at table-build time, and nowhere in the simulation inner loop.
        self.flat = flat = FlatModel(graph, platform)
        self.exec_table: np.ndarray = flat.exec
        self.area: np.ndarray = flat.area
        #: ``area`` on the :data:`AREA_UNIT` grid, and per area-capped
        #: device its budget there: every feasibility decision reads these
        self.area_units: np.ndarray = to_area_units(flat.area)
        self.limit_units: Dict[int, float] = area_limit_units(platform)

        # --- the reference walk's nested lists, derived once -------------
        self.exec_rows: List[List[float]] = flat.exec.tolist()
        self.fill_rows: List[List[float]] = flat.fill.tolist()
        self.initial_rows: List[List[float]] = flat.initial.tolist()
        self.final_rows: List[List[float]] = flat.final.tolist()
        #: ``area_units`` as floats, for the engine's and list schedulers'
        #: loops
        self.area_units_list: List[float] = self.area_units.tolist()
        #: per edge id: the m x m transfer seconds, ``[du][dv]``
        self.trans_rows: List[List[List[float]]] = (
            flat.pred_trans.reshape(-1, self.m, self.m).tolist()
        )
        src = flat.pred_src.tolist()
        ptr = flat.pred_ptr.tolist()
        #: per task: ``[(pred_index, transfer_row), ...]`` in edge order
        self.preds: List[List[Tuple[int, List[List[float]]]]] = [
            list(zip(src[a:b], self.trans_rows[a:b]))
            for a, b in zip(ptr, ptr[1:])
        ]
        self._streaming_dev: List[bool] = [d.streaming for d in platform.devices]
        self._serializes: List[bool] = [d.serializes for d in platform.devices]
        self._slots: List[int] = [d.slots for d in platform.devices]

        # --- default schedule (breadth-first) ----------------------------
        self.bfs_order: List[int] = [self.index[t] for t in graph.bfs_order()]

        # --- compiled kernel (optional, bit-identical) -------------------
        self.bfs_order_np = np.asarray(self.bfs_order, dtype=np.int64)
        self._use_ckernel = use_ckernel
        self._init_ckernel(use_ckernel)

        #: number of full makespan simulations performed (harness stats)
        self.n_simulations = 0
        #: number of incremental suffix re-evaluations (delta evaluator)
        self.n_delta_evaluations = 0
        #: summed suffix lengths of the incremental re-evaluations
        self.delta_steps = 0
        #: lanes evaluated through the population entry (simulate_many);
        #: each lane is one full pass, counted here instead of
        #: ``n_simulations`` so callers can prove the batch path is taken
        self.n_batched_evaluations = 0
        #: number of simulate_many calls that simulated at least one lane
        self.n_batch_calls = 0

    # ------------------------------------------------------------------
    def _init_ckernel(self, use_ckernel: Optional[bool]) -> None:
        self._ck = None
        self._ck_ctx = None
        if use_ckernel is False:
            return
        ck = load_ckernel()
        if ck is None:
            if use_ckernel is True:
                raise RuntimeError("C kernel requested but unavailable")
            return
        self._ck = ck
        self._ck_ctx = ck.make_ctx(self.flat)
        self._ck_ctx_p = ctypes.byref(self._ck_ctx)
        self._ws_start = np.empty(self.n)
        self._ws_finish = np.empty(self.n)
        self._ws_avail = np.empty(max(1, self.flat.n_slots))
        # raw data pointers cached once: ndarray.ctypes.data costs ~1 us
        # per access, which would dominate a batched call
        self._ws_start_p = self._ws_start.ctypes.data
        self._ws_finish_p = self._ws_finish.ctypes.data
        self._ws_avail_p = self._ws_avail.ctypes.data
        self._bfs_order_p = self.bfs_order_np.ctypes.data
        self._span_batch_dedup_c = ck.lib.repro_span_batch_dedup
        self._dedup_table: Optional[np.ndarray] = None
        self._ck_repair = None  # repro_vary's tables, see repair_tables

    # -- pickling: ctypes handles cannot cross process boundaries --------
    def __getstate__(self):
        state = self.__dict__.copy()
        for key in ("_ck", "_ck_ctx", "_ck_ctx_p", "_ws_start",
                    "_ws_finish", "_ws_avail", "_ws_start_p",
                    "_ws_finish_p", "_ws_avail_p", "_bfs_order_p",
                    "_span_batch_dedup_c",
                    "_dedup_table", "_ck_repair"):
            state.pop(key, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # reload/recompile lazily in the receiving process (e.g. a
        # repro.parallel worker), honouring the constructor's explicit
        # use_ckernel choice; auto falls back to the Python kernel when
        # the receiving host cannot build the C kernel
        pref = state.get("_use_ckernel")
        self._init_ckernel(None if pref is True else pref)

    # ------------------------------------------------------------------
    # feasibility
    # ------------------------------------------------------------------
    def area_usage(self, mapping: Sequence[int]) -> Dict[int, float]:
        """Summed task area per area-constrained device (real-valued, for
        display; decisions read :attr:`area_units`)."""
        mapping = np.asarray(mapping)
        return {
            d: float(self.area[mapping == d].sum()) for d in self.limit_units
        }

    def is_feasible(self, mapping: Sequence[int]) -> bool:
        """True iff all device area budgets are respected."""
        mapping = np.asarray(mapping)
        units = self.area_units
        return all(units[mapping == d].sum() <= limit
                   for d, limit in self.limit_units.items())

    def check_devices(self, mapping: np.ndarray) -> None:
        """Raise :class:`ValueError` unless every entry of ``mapping`` is
        a device index in ``[0, m)``.

        Both kernels index their tables with the device unchecked: the C
        kernel would read out of bounds, and a negative index in the
        reference walk would silently read a neighbouring entry.
        One min/max per call, at every entry a mapping comes in by.
        """
        if mapping.size and (mapping.min() < 0 or mapping.max() >= self.m):
            raise ValueError(f"mapping: device index outside [0, {self.m})")

    def check_order(self, order: Sequence[int], *,
                    rows: bool = False) -> np.ndarray:
        """``order`` as a C-contiguous int64 array, or :class:`ValueError`
        unless it has ``n`` entries (with ``rows``: a ``(K, n)`` array,
        one schedule per row), each a task index in ``[0, n)``.

        Both kernels index their tables with the schedule's tasks
        unchecked, just as with devices (:meth:`check_devices`).
        """
        if isinstance(order, np.ndarray) and order.dtype == np.int64:
            order_np = np.ascontiguousarray(order)
        else:
            order_np = np.ascontiguousarray(order, dtype=np.int64)
        name = "orders" if rows else "order"
        if order_np.ndim != 1 + rows or order_np.shape[-1:] != (self.n,):
            raise ValueError(
                f"{name}: expected {'rows of ' * rows}{self.n} task "
                f"indices, got shape {order_np.shape}"
            )
        if order_np.size and (order_np.min() < 0 or order_np.max() >= self.n):
            raise ValueError(f"{name}: task index outside [0, {self.n})")
        return order_np

    def feasible_mask(self, mappings: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_feasible` over the rows of ``(P, n)``: one
        matmul per area device over the whole population.  The unit sums
        are exact in BLAS order too, so every row decides as the scalar
        check does."""
        mask = np.ones(len(mappings), dtype=bool)
        units = self.area_units
        for d, limit in self.limit_units.items():
            mask &= (mappings == d) @ units <= limit
        return mask

    def repair_tables(self):
        """The C kernel's area-repair tables (``repro_vary``, see
        :func:`repro.mappers.genetic.vary`), built on first use: task
        areas and, per device of ``area_capacities()``, its budget, all
        in units.  ``None`` without the C kernel."""
        if self._ck is None:
            return None
        if self._ck_repair is None:
            limits = self.limit_units
            self._ck_repair = self._ck.make_repair(
                self.area_units,
                np.fromiter(limits, dtype=np.int64, count=len(limits)),
                np.fromiter(limits.values(), dtype=np.float64,
                            count=len(limits)),
                self.platform.host_index, self.m,
            )
        return self._ck_repair

    def simulate_many(self, mappings: np.ndarray) -> np.ndarray:
        """Construction makespans of every row of a ``(P, n)`` array.

        The population entry behind
        :meth:`~repro.evaluation.evaluator.MappingEvaluator.construction_makespans`,
        and the one place that decides genome dedup: identical rows are
        simulated once and share the exact value, so a converged
        population costs one simulation per *distinct* feasible genome.
        With the C kernel loaded the whole population is one
        ``repro_span_batch_dedup`` call (in-kernel open-addressing on a
        64-bit row hash, duplicates verified by full row comparison, so a
        hash collision costs a lane or a probe step, never a wrong
        value).  Without it, a dict keyed on each feasible row's bytes
        holds one reference walk per distinct row.  Every lane is
        bit-identical to a scalar :meth:`simulate` of that row
        (:data:`INFEASIBLE` for rows failing the area check).

        Distinct simulated lanes count toward ``n_batched_evaluations``
        (not ``n_simulations``), and each call that simulates at least
        one lane toward ``n_batch_calls``.
        """
        pop = np.ascontiguousarray(mappings, dtype=np.int64)
        if pop.ndim != 2 or pop.shape[1] != self.n:
            raise ValueError(
                f"expected a (P, {self.n}) array of mappings, got {pop.shape}"
            )
        P = pop.shape[0]
        if P == 0:
            return np.empty(0)
        self.check_devices(pop)
        feas = self.feasible_mask(pop)
        if not feas.any():
            return np.full(P, INFEASIBLE)
        registry = _metrics.get_registry()
        if self._ck is not None:
            res = np.empty(P)
            table_size = 1 << (DEDUP_TABLE_FACTOR * P - 1).bit_length()
            if self._dedup_table is None or len(self._dedup_table) < table_size:
                self._dedup_table = np.empty(table_size, dtype=np.int64)
            simulated = self._span_batch_dedup_c(
                self._ck_ctx_p,
                pop.ctypes.data,
                self._bfs_order_p,
                P,
                feas.view(np.uint8).ctypes.data,
                res.ctypes.data,
                self._dedup_table.ctypes.data,
                table_size,
                self._ws_start_p,
                self._ws_finish_p,
                self._ws_avail_p,
            )
            if simulated:
                self.n_batched_evaluations += simulated
                self.n_batch_calls += 1
            if registry is not None:
                registry.counter("kernel.calls.c_dedup").inc()
                registry.histogram("kernel.batch_size").observe_int(P)
                registry.counter("kernel.dedup_hits").inc(P - simulated)
                registry.counter("kernel.dedup_lanes").inc(P)
            return res
        res = np.full(P, INFEASIBLE)
        lanes: Dict[bytes, float] = {}
        for r in np.flatnonzero(feas).tolist():
            row = pop[r]
            key = row.tobytes()
            ms = lanes.get(key)
            if ms is None:
                ms = lanes[key] = self._simulate_reference(
                    row.tolist(), check_feasibility=False
                )
            res[r] = ms
        self.n_batched_evaluations += len(lanes)
        self.n_batch_calls += 1
        if registry is not None:
            registry.counter("kernel.calls.py").inc()
            registry.histogram("kernel.batch_size").observe_int(len(lanes))
        return res

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def simulate(
        self,
        mapping: Sequence[int],
        order: Optional[Sequence[int]] = None,
        *,
        check_feasibility: bool = True,
        contention: bool = True,
    ) -> float:
        """Makespan of ``mapping`` under a topological ``order`` (task indices).

        ``order`` defaults to the breadth-first schedule.  Returns
        :data:`INFEASIBLE` if an area budget is violated.  With
        ``contention=False`` the device-serialization constraint is dropped
        (used for the critical-path lower bound).

        One ``repro_span`` call on the C kernel, bit-identical to
        :meth:`_simulate_reference`, which runs here without it.
        """
        if isinstance(mapping, np.ndarray) and mapping.dtype == np.int64:
            map_np = np.ascontiguousarray(mapping)
        else:
            map_np = np.ascontiguousarray(mapping, dtype=np.int64)
        self.check_devices(map_np)
        order_np = self.bfs_order_np if order is None else self.check_order(order)
        if check_feasibility and not self.is_feasible(map_np):
            return INFEASIBLE
        self.n_simulations += 1
        if self._ck is not None:
            return self._ck.lib.repro_span(
                self._ck_ctx_p,
                map_np.ctypes.data,
                order_np.ctypes.data,
                self._ws_start.ctypes.data,
                self._ws_finish.ctypes.data,
                self._ws_avail.ctypes.data,
                1 if contention else 0,
            )
        return self._simulate_reference(
            map_np.tolist(),
            None if order is None else order_np.tolist(),
            check_feasibility=False,
            contention=contention,
        )

    def simulate_min(self, mapping: Sequence[int], orders: np.ndarray) -> float:
        """Minimum makespan of ``mapping`` over the rows of a ``(K, n)``
        int64 ``orders`` array (the reported makespan over a
        :class:`~repro.evaluation.schedules.ScheduleSuite`).

        Returns :data:`INFEASIBLE` if an area budget is violated, else
        counts ``K`` full simulations.  Each schedule after the first runs
        with the best makespan so far as its bound and stops once it
        cannot beat it, so the minimum is exact: bit-identical to the
        minimum of :meth:`simulate` over the rows.  One
        ``repro_span_min`` call on the C kernel; without it the minimum
        of one unbounded :meth:`_simulate_reference` walk per row.  Both
        kernels refuse the same inputs (:meth:`check_devices`,
        :meth:`check_order`).
        """
        if not self.is_feasible(mapping):
            return INFEASIBLE
        map_np = np.ascontiguousarray(mapping, dtype=np.int64)
        self.check_devices(map_np)
        orders = self.check_order(orders, rows=True)
        self.n_simulations += len(orders)
        if self._ck is not None:
            return self._ck.span_min(
                self._ck_ctx,
                map_np,
                orders,
                self._ws_start,
                self._ws_finish,
                self._ws_avail,
            )
        mapping = map_np.tolist()
        return min(
            (self._simulate_reference(mapping, order, check_feasibility=False)
             for order in orders.tolist()),
            default=INFEASIBLE,
        )

    def _simulate_reference(
        self,
        mapping: Sequence[int],
        order: Optional[Sequence[int]] = None,
        *,
        check_feasibility: bool = True,
        contention: bool = True,
        record: Optional[list] = None,
    ) -> float:
        """The original nested-list walk, kept as the executable spec.

        The C kernel's entries and the incremental delta evaluator must
        reproduce this bit-for-bit (``tests/test_kernel_delta.py``); it
        is also the walk every entry runs when the C kernel is not
        loaded.  Does not touch the counters.

        With a ``record`` list, one ``(index, device, slot, ready, start,
        finish, streamed)`` tuple is appended per schedule position —
        ``slot`` is the slot within the device (-1 when the device does
        not serialize) and ``streamed`` whether any input streamed from a
        co-mapped producer.  :func:`repro.evaluation.trace.simulate_trace`
        reads it; without ``record`` the walk costs what it always did
        (it is the reference side of the speed gates).
        """
        if check_feasibility and not self.is_feasible(mapping):
            return INFEASIBLE
        if order is None:
            order = self.bfs_order
        mapping = list(mapping)

        exec_ = self.exec_rows
        fill = self.fill_rows
        pred = self.preds
        streaming_dev = self._streaming_dev
        serializes = self._serializes
        initial = self.initial_rows
        final = self.final_rows

        start = [0.0] * self.n
        finish = [0.0] * self.n
        # per-device slot availability times (earliest-slot list scheduling)
        avail = [[0.0] * s for s in self._slots]
        makespan = 0.0
        recording = record is not None

        for i in order:
            d = mapping[i]
            ready = initial[i][d]
            drain = 0.0
            for p, trans in pred[i]:
                dp = mapping[p]
                if dp == d and streaming_dev[d]:
                    # on-chip streaming: start after the producer's pipeline
                    # is filled; cannot finish before the producer finishes.
                    r = start[p] + fill[p][dp]
                    fp = finish[p]
                    if fp > drain:
                        drain = fp
                else:
                    r = finish[p] + trans[dp][d]
                if r > ready:
                    ready = r
            st = ready
            slot = -1
            if contention and serializes[d]:
                slots_d = avail[d]
                slot = 0
                earliest = slots_d[0]
                for j in range(1, len(slots_d)):
                    if slots_d[j] < earliest:
                        earliest = slots_d[j]
                        slot = j
                if earliest > ready:
                    st = earliest
            fin = st + exec_[i][d]
            if drain > fin:
                fin = drain
            start[i] = st
            finish[i] = fin
            if slot >= 0:
                avail[d][slot] = fin
            if recording:
                # a plain loop: a generator here would turn the walk's
                # locals into closure cells and slow every position
                streamed = False
                if streaming_dev[d]:
                    for p, _ in pred[i]:
                        if mapping[p] == d:
                            streamed = True
                record.append((i, d, slot, ready, st, fin, streamed))
            end = fin + final[i][d]
            if end > makespan:
                makespan = end
        return makespan

    # ------------------------------------------------------------------
    # bounds (used by tests and sanity checks)
    # ------------------------------------------------------------------
    def critical_path_bound(self, mapping: Sequence[int]) -> float:
        """Makespan without device contention: a lower bound on the makespan.

        This is the same monotone recurrence as :meth:`simulate` with the
        serialization constraint dropped, so it correctly accounts for
        streaming overlap (a plain longest-path over execution times would
        *over*-estimate streamed chains and not be a valid bound).
        """
        return self.simulate(
            list(mapping), check_feasibility=False, contention=False
        )

    def serial_bound(self, mapping: Sequence[int]) -> float:
        """Sum of all execution, transfer and I/O times: an upper bound."""
        mapping = list(mapping)
        total = 0.0
        for i in range(self.n):
            d = mapping[i]
            total += (self.exec_rows[i][d] + self.initial_rows[i][d]
                      + self.final_rows[i][d])
            for p, trans in self.preds[i]:
                dp = mapping[p]
                if not (dp == d and self._streaming_dev[d]):
                    total += trans[dp][d]
        return total
