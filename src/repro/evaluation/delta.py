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
affected position, sharing the literal loop body of the scratch kernel
(:func:`repro.evaluation.kernel.simulate_span`).  The per-move cost drops
from O(V + E) to O(affected suffix) — and the returned makespan is
bit-identical to a scratch ``CostModel.simulate`` of the moved mapping
(pinned by ``tests/test_kernel_delta.py``): delta evaluation is an
optimization, never an approximation.

Feasibility is likewise incremental: per-device area sums are maintained
for the base mapping and a move only applies its own delta.  Because the
scratch check sums areas in a different floating-point order, a decision
falling within a tiny band of the tolerance threshold is re-derived from
an exact scratch sum, so the feasibility *decision* always matches
``CostModel.is_feasible`` exactly.

Committing an accepted move is suffix-sized too: :meth:`apply_move`
with the candidate's ``first_pos`` resumes the recording rebuild from
that position — the prefix snapshots are still valid, so the
tabu/annealing accept path never pays a full O(V + E) rebuild.  A full
rebuild is the same recording walk started at position 0 (row 0 of the
snapshots is always the zero slot vector, and the fixed BFS order is
topological, so no stale start/finish is ever read).

Each kernel runs every operation through its one loop body: the C
entries ``repro_eval_move`` and ``repro_rebuild_from`` (both on
``span_core``) when the compiled kernel is loaded, otherwise
:func:`~repro.evaluation.kernel.simulate_span`, which records the
snapshots when handed the recording buffers.  Both kernels charge the
counters identically.

Bookkeeping: every suffix re-simulation (and every suffix commit)
increments ``model.n_delta_evaluations`` and adds ``suffix_length / n``
to ``model.delta_work`` (full-evaluation equivalents); full base
rebuilds count toward ``model.n_simulations``.
"""

from __future__ import annotations

import ctypes
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from ..obs import metrics as _metrics
from ..sp.subgraphs import schedule_span
from .costmodel import AREA_TOL, INFEASIBLE, CostModel, area_guard_band
from .kernel import INF, simulate_span

__all__ = ["Candidate", "DeltaEvaluator"]


class Candidate(NamedTuple):
    """A candidate subgraph prepared for fast repeated move evaluation."""

    members: List[int]     #: task indices
    arr: np.ndarray        #: the same indices as an int64 array (C kernel)
    ptr: object            #: ``arr``'s data pointer as ``c_void_p`` (C kernel)
    first_pos: int         #: first schedule position the candidate touches
    area: float            #: summed task area (incremental feasibility)
    c_len: object          #: ``len(members)`` as ``c_int64`` (C kernel)
    c_first: object        #: ``first_pos`` as ``c_int64`` (C kernel)

# Near the area threshold, the incremental usage sum falls back to an
# exact scratch recount (see _move_feasible); the band for "near" is
# repro.evaluation.costmodel.area_guard_band, shared with
# CostModel.feasible_mask's vectorized check and the runtime area ledger.


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
        self.flat = model.flat
        self.n = model.n
        self.order: List[int] = model.bfs_order
        pos = [0] * self.n
        for j, i in enumerate(self.order):
            pos[i] = j
        self.pos: List[int] = pos

        self._area: List[float] = model._area.tolist()
        self._area_devs: List[int] = sorted(model._area_limits)
        self._area_limits: List[float] = [
            model._area_limits[d] for d in self._area_devs
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
        self._start: List[float] = [0.0] * n
        self._finish: List[float] = [0.0] * n
        self._tstart: List[float] = [0.0] * n
        self._tfinish: List[float] = [0.0] * n
        # row 0 of the snapshots stays the zero slot vector and
        # pre_ms[0] stays 0, so a full rebuild is the walk from position 0
        self._snap_avail: List[List[float]] = [self.flat.fresh_avail()] * n
        self._pre_ms: List[float] = [0.0] * n
        self.base_makespan: float = INF

        self._np_map = np.zeros(n, dtype=np.int64)
        self._ck = model._ck
        if self._ck is not None:
            # the C kernel's state: preallocated once, refilled in place
            # and never reallocated (the kernel keeps raw pointers)
            n_slots = self.flat.n_slots
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
            self._c_devices = [ctypes.c_int64(d) for d in range(self.flat.m)]
            self._c_inf = ctypes.c_double(INF)

    # ------------------------------------------------------------------
    def candidate(self, sub: Sequence[int]) -> Candidate:
        """Prepare a candidate subgraph for repeated move evaluation.

        Done once per candidate and reused for every device and every
        round — the per-move work stays proportional to the suffix.  The
        C kernel's per-candidate arguments (data pointer, length, first
        position) are built here once, as ctypes values: converting them
        per move would cost more than the native suffix simulation.
        """
        if isinstance(sub, np.ndarray) and sub.dtype == np.int64:
            sub_np = np.ascontiguousarray(sub)
            sub_list = sub_np.tolist()
        else:
            sub_list = [int(t) for t in sub]
            sub_np = np.asarray(sub_list, dtype=np.int64)
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

    # ------------------------------------------------------------------
    def reset(self, mapping: Sequence[int]) -> float:
        """Set the base mapping (must be feasible) and rebuild snapshots."""
        np_map = np.asarray(mapping, dtype=np.int64)
        self.model.check_devices(np_map)
        if not self.model.is_feasible(np_map):
            raise ValueError("delta evaluation needs a feasible base mapping")
        np.copyto(self._np_map, np_map)
        self._map = self._np_map.tolist()
        usage = self.model.area_usage(self._np_map)
        self._usage = [usage[d] for d in self._area_devs]
        return self._rebuild()

    # ------------------------------------------------------------------
    def _move_feasible(self, sub_list: List[int], device: int, sub_area: float) -> bool:
        """Incremental area check, exact-recount fallback near the threshold.

        Matches ``CostModel.is_feasible`` of the moved mapping exactly:
        the base is feasible, so only devices whose usage changes are
        re-checked (gaining devices can violate; losing devices are
        re-checked too in case of zero/degenerate areas).
        """
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
            new_usage = self._usage[ai] - removed + added
            limit = self._area_limits[ai] + AREA_TOL
            if abs(new_usage - limit) <= area_guard_band(limit):
                new_usage = self._exact_usage(sub_list, device, a)
            if new_usage > limit:
                return False
        return True

    def _exact_usage(self, sub_list: List[int], device: int, a: int) -> float:
        """Scratch (same summation order as ``area_usage``) trial usage."""
        trial = self._np_map.copy()
        trial[sub_list] = device
        return float(self.model._area[trial == a].sum())

    # ------------------------------------------------------------------
    def evaluate_move(
        self, cand: Candidate, device: int, *, bound: float = INF
    ) -> float:
        """Makespan after remapping the candidate to ``device``.

        Bit-identical to ``model.simulate`` of the moved mapping (or
        :data:`INFEASIBLE`); ``inf`` when the running makespan reaches
        ``bound`` first.  The base mapping and snapshots are untouched.
        """
        sub_list = cand.members
        first_pos = cand.first_pos
        if not self._move_feasible(sub_list, device, cand.area):
            return INFEASIBLE
        model = self.model
        model.n_delta_evaluations += 1
        model.delta_work += (self.n - first_pos) / self.n
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

        mp = self._map
        old = [mp[t] for t in sub_list]
        for t in sub_list:
            mp[t] = device
        ts = self._tstart
        tf = self._tfinish
        order = self.order
        try:
            return simulate_span(
                self.flat,
                mp,
                order,
                first_pos,
                ts,
                tf,
                self._snap_avail[first_pos].copy(),
                self._pre_ms[first_pos],
                bound=bound,
            )
        finally:
            for t, o in zip(sub_list, old):
                mp[t] = o
            bs = self._start
            bf = self._finish
            for j in range(first_pos, self.n):
                i = order[j]
                ts[i] = bs[i]
                tf[i] = bf[i]

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
        Without it a full O(V + E) recording rebuild runs.
        """
        for t in sub_list:
            self._map[t] = device
        self._np_map[sub_list] = device
        # exact scratch recount per area device (same summation order as
        # area_usage, without the dict round trip — apply_move runs once
        # per accepted SA/tabu move, so this is warm-path code)
        area = self.model._area  # noqa: SLF001
        np_map = self._np_map
        self._usage = [float(area[np_map == a].sum()) for a in self._area_devs]
        return self._rebuild(first_pos or 0)

    def _rebuild(self, k: int = 0) -> float:
        """The recording walk from position ``k`` to the end.

        Reads the snapshots at ``k`` and rewrites those from ``k`` on,
        with the base start/finish of the suffix: ``repro_rebuild_from``
        on the C kernel, otherwise
        :func:`~repro.evaluation.kernel.simulate_span` with its recording
        buffers plus a refresh of the suffix's trial mirrors.  ``k = 0``
        is the full rebuild and counts as one full simulation
        (``model.n_simulations``); a resumed walk counts as an
        incremental evaluation (``n_delta_evaluations`` / fractional
        ``delta_work``).
        """
        model = self.model
        if k == 0:
            model.n_simulations += 1
        else:
            model.n_delta_evaluations += 1
            model.delta_work += (self.n - k) / self.n
            if self._suffix_hist is not None:
                self._suffix_hist.observe_int(self.n - k)
        if self._ck is not None:
            self.base_makespan = self._rebuild_from_c(
                self._ctx_p, self._dctx_p, k
            )
            return self.base_makespan
        order = self.order
        start = self._start
        finish = self._finish
        self.base_makespan = simulate_span(
            self.flat,
            self._map,
            order,
            k,
            start,
            finish,
            self._snap_avail[k].copy(),
            self._pre_ms[k],
            snap_avail=self._snap_avail,
            pre_ms=self._pre_ms,
        )
        ts = self._tstart
        tf = self._tfinish
        for j in range(k, self.n):
            i = order[j]
            ts[i] = start[i]
            tf[i] = finish[i]
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
