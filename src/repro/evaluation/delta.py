"""Incremental (delta) makespan evaluation for greedy move search.

With the schedule order fixed (the construction BFS order), remapping a
candidate subgraph ``S`` can only change simulation state from the first
schedule position of ``S`` onward: every task scheduled earlier keeps its
start/finish, and the device slot-availability state at that position is
unchanged.  :class:`DeltaEvaluator` therefore keeps, for the current
*base* mapping, per-position prefix snapshots of

- ``start``/``finish`` of every task (shared arrays — positions before
  the suffix are simply read as-is),
- the flat slot-availability vector *before* each position,
- the running prefix-max task end (the makespan over the prefix),

and :meth:`evaluate_move` re-simulates **only the suffix** from the first
affected position, on the compiled kernel's one loop body ``span_core``
(the scratch entries' loop).  The per-move cost drops
from O(V + E) to O(affected suffix) — and the returned makespan is
bit-identical to a scratch ``CostModel.simulate`` of the moved mapping
(pinned by ``tests/test_kernel_delta.py``): delta evaluation is an
optimization, never an approximation.

Feasibility is likewise incremental: per-device area sums are maintained
for the base mapping and a move only applies its own delta.  The sums
are in whole area units (``CostModel.area_units``), exact in any order,
so the feasibility *decision* always matches ``CostModel.is_feasible``.

Committing an accepted move is suffix-sized too: :meth:`apply_move`
with the candidate's ``first_pos`` resumes the recording rebuild from
that position — the prefix snapshots are still valid, so the
tabu/annealing accept path never pays a full O(V + E) rebuild.  A full
rebuild is the same recording walk started at position 0 (row 0 of the
snapshots is always the zero slot vector, and the fixed BFS order is
topological, so no stale start/finish is ever read).

The snapshots exist only on the C kernel: its entries
``repro_eval_move`` and ``repro_rebuild_from`` (both on ``span_core``)
hold them.  Without the compiled kernel the evaluator keeps just the
base mapping and its area usage; a move, a commit and a rebuild are each
one ``CostModel._simulate_reference`` walk of the whole mapping, and
``bound`` is ignored.  Both kernels charge the counters identically (a
fallback move is charged as the suffix it stands for), so mapper
statistics do not depend on the kernel.

A greedy *scan pass* scores every move of a :class:`MoveTable` once
against the same base — the decomposition mapper's inner loop.
:meth:`DeltaEvaluator.scan` runs it as one ``repro_scan`` call on the C
kernel (no-op skip, incremental area check, counters and
``repro_eval_move`` per move, all native); elsewhere it is
:func:`scan_moves`, the reference scan, which scores each move through
:meth:`DeltaEvaluator.evaluate_move` and also serves the mapper's
full-objective scorer.

Bookkeeping: every suffix re-simulation (and every suffix commit)
increments ``model.n_delta_evaluations`` and adds its suffix length to
the integer ``model.delta_steps``; full base rebuilds count toward
``model.n_simulations``.  The C scan returns a pass's counters summed:
``suffix_total`` for ``delta_steps``, and the ``delta.suffix_len``
histogram as bucket counts, so both scans leave identical counters.
"""

from __future__ import annotations

import ctypes
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as _metrics
from ..sp.subgraphs import schedule_span
from ._ckernel import ReproScan, _require
from .costmodel import INFEASIBLE, CostModel
from .kernel import INF

__all__ = ["Candidate", "DeltaEvaluator", "MoveTable", "scan_moves"]

#: strict-improvement margin of a greedy scan pass (see :func:`scan_moves`)
SCAN_EPS = 1e-12


class Candidate(NamedTuple):
    """A candidate subgraph prepared for fast repeated move evaluation."""

    members: List[int]     #: task indices
    arr: np.ndarray        #: the same indices as an int64 array (C kernel)
    ptr: object            #: ``arr``'s data pointer as ``c_void_p`` (C kernel)
    first_pos: int         #: first schedule position the candidate touches
    area: float            #: summed task area units (incremental feasibility)
    c_len: object          #: ``len(members)`` as ``c_int64`` (C kernel)
    c_first: object        #: ``first_pos`` as ``c_int64`` (C kernel)


class MoveTable(NamedTuple):
    """The (candidate, device) moves of a greedy search, in scan order."""

    pairs: List[Tuple[Candidate, int]]  #: ``(candidate, device)`` per move
    native: object = None  #: ``repro_scan``'s tables (C kernel only)


def scan_moves(
    scorer,
    table: MoveTable,
    current: float,
    *,
    expected: Optional[np.ndarray] = None,
    order: Optional[np.ndarray] = None,
    gamma: Optional[float] = None,
) -> Tuple[float, int]:
    """One greedy scan pass over ``table``: the reference scan.

    Every move that is not a no-op (some member not yet on the device)
    is scored with ``scorer.evaluate_move`` against the live base
    mapping ``scorer.base_list``.  Returns ``(best, index)``, with index
    ``-1`` when no move improves.

    - Basic mode (``expected`` is None): each move is scored with the
      bound ``best - SCAN_EPS`` and the first makespan below it wins;
      ``best`` starts at ``current``.
    - Gamma mode: no bound; each move's gain ``current - makespan`` is
      written into ``expected`` (0 for a no-op) and the first gain above
      ``best + SCAN_EPS`` wins; ``best`` starts at 0.  Moves are visited
      in ``order`` (default: table order), and with ``gamma`` the pass
      stops once ``best > SCAN_EPS`` and the next move expects at most
      ``best / gamma + SCAN_EPS`` (paper Sec. III-D).

    ``DeltaEvaluator.scan`` runs the same pass in one ``repro_scan``
    call on the C kernel; this function serves the pure-Python kernel
    and the full-objective scorer, and is what the C scan is checked
    against.
    """
    eps = SCAN_EPS
    mp = scorer.base_list
    evaluate = scorer.evaluate_move
    pairs = table.pairs
    best_idx = -1
    if expected is None:
        best = current
        for k, (cand, d) in enumerate(pairs):
            for t in cand.members:
                if mp[t] != d:
                    break
            else:  # no-op move: already mapped there
                continue
            ms = evaluate(cand, d, bound=best - eps)
            if ms < best - eps:
                best = ms
                best_idx = k
        return best, best_idx
    exp = expected.tolist()
    best = 0.0
    for k in range(len(pairs)) if order is None else order.tolist():
        if gamma is not None and best > eps and exp[k] <= best / gamma + eps:
            break
        cand, d = pairs[k]
        for t in cand.members:
            if mp[t] != d:
                break
        else:
            exp[k] = 0.0
            continue
        gain = current - evaluate(cand, d)
        exp[k] = gain
        if gain > best + eps:
            best = gain
            best_idx = k
    expected[:] = exp
    return best, best_idx


class DeltaEvaluator:
    """Suffix-only move evaluation against a mutable base mapping.

    Usage::

        delta = DeltaEvaluator(model)
        current = delta.reset(mapping)           # full sim + snapshots
        cand = delta.candidate([3, 4])           # prepared once, reused
        ms = delta.evaluate_move(cand, device)   # suffix-only trial
        current = delta.apply_move(              # commit + suffix rebuild
            cand.members, device, first_pos=cand.first_pos
        )

    ``evaluate_move`` accepts a ``bound``: the suffix simulation aborts
    (returning ``inf``) once the running makespan reaches it.  Since the
    makespan is a running max, the exact value could only be >= bound,
    so callers that only *compare* against the bound (the basic greedy
    scan) lose nothing — callers that need exact values (the gamma
    heuristic's expectations) simply pass no bound.
    """

    def __init__(self, model: CostModel) -> None:
        self.model = model
        self.n = model.n
        self.m = model.m
        self.order: List[int] = model.bfs_order
        pos = [0] * self.n
        for j, i in enumerate(self.order):
            pos[i] = j
        self.pos: List[int] = pos

        # task areas and per area device its budget, in area units (also
        # handed to the C scan)
        self._area: List[float] = model.area_units_list
        self._area_devs: List[int] = sorted(model.limit_units)
        self._area_limits: List[float] = [
            model.limit_units[d] for d in self._area_devs
        ]

        # Suffix-length histogram, captured once here so the per-move
        # cost when observability is on stays one attribute test plus a
        # bucket increment — and exactly one attribute test when off.
        registry = _metrics.get_registry()
        self._suffix_hist = (
            registry.histogram("delta.suffix_len")
            if registry is not None else None
        )

        n = self.n
        self._map: List[int] = []
        self._usage: List[float] = []
        self.base_makespan: float = INF

        self._np_map = np.zeros(n, dtype=np.int64)
        self._ck = model._ck
        if self._ck is not None:
            # the C kernel's state: preallocated once, refilled in place
            # and never reallocated (the kernel keeps raw pointers)
            n_slots = model.flat.n_slots
            self._order_np = model.bfs_order_np
            self._pos_np = np.asarray(pos, dtype=np.int64)
            self._start_np = np.zeros(n)
            self._finish_np = np.zeros(n)
            self._snap_np = np.zeros((n, n_slots))
            self._pre_ms_np = np.zeros(n)
            self._ts_ws = np.empty(n)
            self._tf_ws = np.empty(n)
            self._avail_ws = np.empty(max(1, n_slots))
            self._old_ws = np.empty(n, dtype=np.int64)
            self._dctx = self._ck.make_delta(
                model._ck_ctx,
                self._np_map,
                self._order_np,
                self._pos_np,
                self._start_np,
                self._finish_np,
                self._ts_ws,
                self._tf_ws,
                self._snap_np,
                self._pre_ms_np,
                self._avail_ws,
                self._old_ws,
            )
            self._dctx_p = ctypes.byref(self._dctx)
            self._ctx_p = model._ck_ctx_p
            self._eval_move_c = self._ck.lib.repro_eval_move
            self._rebuild_from_c = self._ck.lib.repro_rebuild_from
            # prebuilt ctypes arguments: converting Python ints/floats on
            # every call costs more than the native suffix simulation
            self._c_devices = [ctypes.c_int64(d) for d in range(self.m)]
            self._c_inf = ctypes.c_double(INF)
            # the C scan reads the base usage in place
            self._usage_np = np.zeros(len(self._area_devs))
            self._scan_c = self._ck.lib.repro_scan

    # ------------------------------------------------------------------
    def candidate(self, sub: Sequence[int]) -> Candidate:
        """Prepare a candidate subgraph for repeated move evaluation.

        Done once per candidate and reused for every device and every
        round — the per-move work stays proportional to the suffix.  The
        C kernel's per-candidate arguments (data pointer, length, first
        position) are built here once, as ctypes values: converting them
        per move would cost more than the native suffix simulation.
        The members are range-checked here, once.
        """
        if isinstance(sub, np.ndarray) and sub.dtype == np.int64:
            sub_np = np.ascontiguousarray(sub)
            sub_list = sub_np.tolist()
        else:
            sub_list = [int(t) for t in sub]
            sub_np = np.asarray(sub_list, dtype=np.int64)
        self._check_tasks(sub_list, "candidate")
        first, _last = schedule_span(sub_list, self.pos)
        area = self._area
        ptr = c_len = c_first = None
        if self._ck is not None:
            ptr = ctypes.c_void_p(sub_np.ctypes.data)
            c_len = ctypes.c_int64(len(sub_list))
            c_first = ctypes.c_int64(first)
        return Candidate(
            sub_list,
            sub_np,
            ptr,
            first,
            sum(map(area.__getitem__, sub_list)),
            c_len,
            c_first,
        )

    def _check_tasks(self, tasks: List[int], where: str) -> None:
        if tasks and (min(tasks) < 0 or max(tasks) >= self.n):
            raise ValueError(f"{where}: task index outside [0, {self.n})")

    # ------------------------------------------------------------------
    def move_table(
        self, cands: Sequence[Candidate], n_devices: int
    ) -> MoveTable:
        """Every ``(candidate, device)`` move, candidate-major.

        On the C kernel this also builds and checks ``repro_scan``'s
        tables (member CSR, first positions, area sums, move pairs and
        the area check's inputs) — once per search, never per pass.
        """
        pairs = [(cand, d) for cand in cands for d in range(n_devices)]
        if self._ck is None:
            return MoveTable(pairs)
        sizes = [len(cand.members) for cand in cands]
        cand_ptr = np.zeros(len(cands) + 1, dtype=np.int64)
        np.cumsum(sizes, out=cand_ptr[1:])
        members = (np.concatenate([cand.arr for cand in cands])
                   if cands else np.empty(0, dtype=np.int64))
        native = self._ck.make_moves(
            self.model._ck_ctx,
            cand_ptr,
            members,
            np.array([cand.first_pos for cand in cands], dtype=np.int64),
            np.array([cand.area for cand in cands], dtype=np.float64),
            np.repeat(np.arange(len(cands), dtype=np.int64), n_devices),
            np.tile(np.arange(n_devices, dtype=np.int64), len(cands)),
            self.model.area_units,
            np.asarray(self._area_devs, dtype=np.int64),
            np.asarray(self._area_limits, dtype=np.float64),
            self._usage_np,
        )
        native._owner = self  # its tables index this evaluator's state
        return MoveTable(pairs, native)

    # ------------------------------------------------------------------
    def scan(
        self,
        table: MoveTable,
        current: float,
        *,
        expected: Optional[np.ndarray] = None,
        order: Optional[np.ndarray] = None,
        gamma: Optional[float] = None,
    ) -> Tuple[float, int]:
        """One greedy scan pass; same contract and result as
        :func:`scan_moves`, counters included.

        On the C kernel the pass is one ``repro_scan`` call.  The
        counters come back summed: the suffix lengths as ``suffix_total``
        and the suffix-length histogram as buckets.
        """
        native = table.native
        if native is None:
            return scan_moves(self, table, current, expected=expected,
                              order=order, gamma=gamma)
        if native._owner is not self:
            raise ValueError("scan: the move table belongs to another evaluator")
        n_moves = native.n_moves
        if expected is not None:
            _require(expected, np.float64, (n_moves,), "expected")
        if order is not None:
            _require(order, np.int64, (n_moves,), "order")
        model = self.model
        state = ReproScan(
            best=current if expected is None else 0.0,
            best_idx=-1,
        )
        if self._scan_c(
            self._ctx_p,
            self._dctx_p,
            ctypes.byref(native),
            None if order is None else order.ctypes.data,
            None if expected is None else expected.ctypes.data,
            current,
            0.0 if gamma is None else gamma,
            SCAN_EPS,
            ctypes.byref(state),
        ):
            raise ValueError(f"order: move index outside [0, {n_moves})")
        model.n_delta_evaluations += state.n_evals
        model.delta_steps += state.suffix_total
        if self._suffix_hist is not None and state.n_evals:
            self._suffix_hist.observe_counts(
                state.suffix_buckets, state.suffix_total
            )
        return state.best, state.best_idx

    # ------------------------------------------------------------------
    def reset(self, mapping: Sequence[int]) -> float:
        """Set the base mapping (must be feasible) and rebuild snapshots."""
        np_map = np.asarray(mapping, dtype=np.int64)
        self.model.check_devices(np_map)
        if not self.model.is_feasible(np_map):
            raise ValueError("delta evaluation needs a feasible base mapping")
        np.copyto(self._np_map, np_map)
        self._map = self._np_map.tolist()
        self._set_usage()
        return self._rebuild()

    def _set_usage(self) -> None:
        """Recount the base mapping's per-area-device usage in area units
        (and the C scan's copy of it)."""
        units = self.model.area_units
        np_map = self._np_map
        self._usage = [float(units[np_map == a].sum())
                       for a in self._area_devs]
        if self._ck is not None:
            self._usage_np[:] = self._usage

    # ------------------------------------------------------------------
    def _move_feasible(self, sub_list: List[int], device: int, sub_area: float) -> bool:
        """Incremental area check in area units: the sums are exact, so
        this is ``CostModel.is_feasible`` of the moved mapping."""
        mp = self._map
        area = self._area
        for ai, a in enumerate(self._area_devs):
            removed = 0.0
            for t in sub_list:
                if mp[t] == a:
                    removed += area[t]
            added = sub_area if device == a else 0.0
            if removed == 0.0 and added == 0.0:
                continue
            if self._usage[ai] - removed + added > self._area_limits[ai]:
                return False
        return True

    # ------------------------------------------------------------------
    def evaluate_move(
        self, cand: Candidate, device: int, *, bound: float = INF
    ) -> float:
        """Makespan after remapping the candidate to ``device``.

        Bit-identical to ``model.simulate`` of the moved mapping (or
        :data:`INFEASIBLE`).  On the C kernel the result is ``inf`` when
        the running makespan reaches ``bound`` first; without it the
        move is one reference walk of the moved mapping and ``bound`` is
        ignored (an exact value compares the same way).  The base
        mapping and snapshots are untouched.
        """
        if not 0 <= device < self.m:
            raise ValueError(
                f"evaluate_move: device index outside [0, {self.m})"
            )
        sub_list = cand.members
        first_pos = cand.first_pos
        if not self._move_feasible(sub_list, device, cand.area):
            return INFEASIBLE
        model = self.model
        model.n_delta_evaluations += 1
        model.delta_steps += self.n - first_pos
        if self._suffix_hist is not None:
            self._suffix_hist.observe_int(self.n - first_pos)

        if self._ck is not None:
            # the C side applies the move, simulates the suffix against
            # the snapshotted base and restores the mapping
            return self._eval_move_c(
                self._ctx_p,
                self._dctx_p,
                cand.ptr,
                cand.c_len,
                self._c_devices[device],
                cand.c_first,
                self._c_inf if bound == INF else bound,
            )

        moved = self._map.copy()
        for t in sub_list:
            moved[t] = device
        return model._simulate_reference(
            moved, self.order, check_feasibility=False
        )

    # ------------------------------------------------------------------
    def apply_move(
        self,
        sub_list: List[int],
        device: int,
        *,
        first_pos: Optional[int] = None,
    ) -> float:
        """Commit a move to the base mapping and rebuild the snapshots.

        With ``first_pos`` (the candidate's first schedule position, from
        :meth:`candidate`) the rebuild resumes from that position — the
        prefix snapshots are still valid, so a commit costs O(affected
        suffix); suffix values are bit-identical to a full rebuild.
        Without it a full O(V + E) recording rebuild runs.  ``first_pos``
        must lie in ``[0, first schedule position of sub_list]``: a later
        start would keep stale snapshots of the moved members.
        """
        if not 0 <= device < self.m:
            raise ValueError(f"apply_move: device index outside [0, {self.m})")
        self._check_tasks(sub_list, "apply_move")
        if first_pos is not None and not (
                0 <= first_pos <= schedule_span(sub_list, self.pos)[0]):
            raise ValueError(f"apply_move: first_pos {first_pos} is not in "
                             "[0, the members' first schedule position]")
        for t in sub_list:
            self._map[t] = device
        self._np_map[sub_list] = device
        self._set_usage()
        return self._rebuild(first_pos or 0)

    def _rebuild(self, k: int = 0) -> float:
        """The recording walk from position ``k`` to the end.

        Reads the snapshots at ``k`` and rewrites those from ``k`` on,
        with the base start/finish of the suffix: ``repro_rebuild_from``
        on the C kernel.  Without it there are no snapshots and the base
        makespan is one reference walk, charged like the walk it
        replaces.  ``k = 0`` is the full rebuild and counts as one full
        simulation (``model.n_simulations``); a resumed walk counts as an
        incremental evaluation (``n_delta_evaluations``) of ``n - k``
        steps (``delta_steps``).
        """
        model = self.model
        if k == 0:
            model.n_simulations += 1
        else:
            model.n_delta_evaluations += 1
            model.delta_steps += self.n - k
            if self._suffix_hist is not None:
                self._suffix_hist.observe_int(self.n - k)
        if self._ck is not None:
            self.base_makespan = self._rebuild_from_c(
                self._ctx_p, self._dctx_p, k
            )
        else:
            self.base_makespan = model._simulate_reference(
                self._map, self.order, check_feasibility=False
            )
        return self.base_makespan

    # ------------------------------------------------------------------
    @property
    def mapping(self) -> np.ndarray:
        """A copy of the current base mapping."""
        return self._np_map.copy()

    @property
    def base_list(self) -> List[int]:
        """The live base mapping as a Python list — treat as read-only.

        Exposed (not copied) so greedy scans can do per-move no-op checks
        without per-move allocations; it is mutated in place by
        :meth:`apply_move` and stays valid across iterations.
        """
        return self._map
