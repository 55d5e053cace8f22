"""Flat-array cost kernel: the tight inner loop of the makespan simulation.

:class:`FlatModel` flattens the per-graph tables of
:class:`~repro.evaluation.costmodel.CostModel` onto CSR-style contiguous
numpy arrays:

- ``pred_ptr``/``pred_src`` — CSR predecessor structure: the predecessors
  of task ``i`` are ``pred_src[pred_ptr[i]:pred_ptr[i + 1]]``;
- ``pred_trans`` — one flattened ``m * m`` transfer table per edge
  (``pred_trans[e, du * m + dv]`` = seconds from device ``du`` to ``dv``;
  on a topology-aware platform these are the *routed effective* costs,
  so the kernel never sees links, routes or hops — lint rule KER002
  pins that);
- ``exec``/``fill``/``initial``/``final`` — ``(n, m)`` contiguous
  ``float64`` tables (execution, pipeline fill, host→device input,
  device→host result).

The C kernel (:mod:`repro.evaluation._ckernel`) reads those arrays.
The simulation itself is an inherently *sequential* list-scheduling
recurrence (slot state couples every step), so the pure-Python fallback
mirrors the arrays once into flat Python lists (``exec_l[i * m + d]``
etc.), which CPython indexes several times faster than ndarray scalars.

:func:`simulate_span` is the one pure-Python evaluation loop.  A full
scratch simulation (:func:`simulate_flat`) is a span from position 0;
an incremental suffix re-simulation (:mod:`repro.evaluation.delta`) is a
span from the first position a move touches; the delta evaluator's
base rebuild is a span handed the two recording buffers (slot vector
and running makespan before each position); a population is a loop of
scratch spans over its distinct rows; the reported makespan
(``CostModel.simulate_min``) is a loop of scratch spans over a schedule
suite, each bounded by the best makespan so far.  Scratch, delta and rebuild thus
run literally the same statements, as do the C kernel's entries on its
one ``span_core``.

Exactness contract: :func:`simulate_span` performs bit-for-bit the same
float64 operations in the same order as the nested-list walk kept as
``CostModel._simulate_reference`` (pinned by
``tests/test_kernel_delta.py``), so kernel selection is transparent —
it is an optimization, never an approximation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["FlatModel", "simulate_span", "simulate_flat", "INF"]

INF = float("inf")

# ---------------------------------------------------------------------------
# Python-side mirrors of the C batch kernel's lane/dedup constants.  The
# in-kernel genome dedup (``repro_span_batch_dedup`` in
# :mod:`repro.evaluation._ckernel`) hashes rows with 64-bit FNV-1a and
# requires a power-of-two probe table of at least ``DEDUP_TABLE_FACTOR``
# times the lane count; ``CostModel.simulate_many`` sizes its table from
# these mirrors.  ``_ckernel.source_consistency_problems()`` (surfaced as
# lint rule KER001 and pinned by ``tests/test_ckernel_sanitize.py``)
# verifies the C source literally embeds the same values, so an edit to
# one side without the other cannot land silently.
# ---------------------------------------------------------------------------

#: FNV-1a 64-bit offset basis used by the in-kernel row hash
DEDUP_FNV_OFFSET = 1469598103934665603
#: FNV-1a 64-bit prime used by the in-kernel row hash
DEDUP_FNV_PRIME = 1099511628211
#: the dedup probe table must hold at least this many slots per lane
DEDUP_TABLE_FACTOR = 2

__all__ += ["DEDUP_FNV_OFFSET", "DEDUP_FNV_PRIME", "DEDUP_TABLE_FACTOR"]


class FlatModel:
    """CSR/flat-array view of one ``CostModel``'s tables (see module doc)."""

    __slots__ = (
        "n",
        "m",
        "pred_ptr",
        "pred_src",
        "pred_trans",
        "exec",
        "fill",
        "initial",
        "final",
        "streaming",
        "serializes",
        "slots",
        "slot_ptr",
        "n_slots",
        "streaming_u8",
        "serializes_u8",
        # interpreter-friendly flat list mirrors (built once, read-only)
        "exec_l",
        "fill_l",
        "initial_l",
        "final_l",
        "pred_l",
        "streaming_l",
        "serializes_l",
        "slot_ptr_l",
    )

    def __init__(
        self,
        *,
        exec_table: np.ndarray,
        fill_table: np.ndarray,
        initial_table: np.ndarray,
        final_table: np.ndarray,
        pred_lists: Sequence[Sequence[Tuple[int, Sequence[Sequence[float]]]]],
        streaming: Sequence[bool],
        serializes: Sequence[bool],
        slots: Sequence[int],
    ) -> None:
        n, m = exec_table.shape
        self.n = n
        self.m = m
        self.exec = np.ascontiguousarray(exec_table, dtype=np.float64)
        self.fill = np.ascontiguousarray(fill_table, dtype=np.float64)
        self.initial = np.ascontiguousarray(initial_table, dtype=np.float64)
        self.final = np.ascontiguousarray(final_table, dtype=np.float64)

        ptr = np.zeros(n + 1, dtype=np.int64)
        src: List[int] = []
        trans_rows: List[np.ndarray] = []
        for i, plist in enumerate(pred_lists):
            for p, row in plist:
                src.append(p)
                trans_rows.append(np.asarray(row, dtype=np.float64).ravel())
            ptr[i + 1] = len(src)
        self.pred_ptr = ptr
        self.pred_src = np.asarray(src, dtype=np.int64)
        self.pred_trans = (
            np.vstack(trans_rows)
            if trans_rows
            else np.empty((0, m * m), dtype=np.float64)
        )

        self.streaming = np.asarray(streaming, dtype=bool)
        self.serializes = np.asarray(serializes, dtype=bool)
        self.streaming_u8 = self.streaming.astype(np.uint8)
        self.serializes_u8 = self.serializes.astype(np.uint8)
        self.slots = np.asarray(slots, dtype=np.int64)
        # serializing devices get a contiguous slot range in one flat
        # availability vector; non-serializing (spatial) devices get none
        slot_ptr = np.zeros(m + 1, dtype=np.int64)
        for d in range(m):
            width = int(self.slots[d]) if self.serializes[d] else 0
            slot_ptr[d + 1] = slot_ptr[d] + width
        self.slot_ptr = slot_ptr
        self.n_slots = int(slot_ptr[-1])

        # flat Python mirrors for the interpreter loop
        self.exec_l = self.exec.ravel().tolist()
        self.fill_l = self.fill.ravel().tolist()
        self.initial_l = self.initial.ravel().tolist()
        self.final_l = self.final.ravel().tolist()
        trans_l = self.pred_trans.tolist()
        src_l = self.pred_src.tolist()
        self.pred_l: List[List[Tuple[int, List[float]]]] = [
            [
                (src_l[e], trans_l[e])
                for e in range(int(ptr[i]), int(ptr[i + 1]))
            ]
            for i in range(n)
        ]
        self.streaming_l = self.streaming.tolist()
        self.serializes_l = self.serializes.tolist()
        self.slot_ptr_l = slot_ptr.tolist()

    # ------------------------------------------------------------------
    def fresh_avail(self) -> List[float]:
        """A zeroed flat slot-availability vector."""
        return [0.0] * self.n_slots


def simulate_span(
    flat: FlatModel,
    mapping: List[int],
    order: Sequence[int],
    k: int,
    start: List[float],
    finish: List[float],
    avail: List[float],
    makespan: float,
    *,
    contention: bool = True,
    bound: float = INF,
    snap_avail: Optional[List[List[float]]] = None,
    pre_ms: Optional[List[float]] = None,
) -> float:
    """Simulate schedule positions ``k .. len(order)-1`` in place.

    ``start``/``finish`` must hold valid values for every task scheduled
    before position ``k`` (they are read for predecessors and written for
    the span's tasks); ``avail`` is the flat slot-availability vector at
    position ``k`` and ``makespan`` the running max task-end over
    positions ``< k``.  Returns the final makespan, or ``inf`` as soon as
    the running makespan reaches ``bound`` (the caller's
    branch-and-bound cutoff: max is monotone, so the final value could
    only be larger and an exact result is not needed to reject the move).

    With ``snap_avail``/``pre_ms`` given (the delta evaluator's recording
    walk) the slot vector and the running makespan *before* each position
    ``j`` are stored in ``snap_avail[j]``/``pre_ms[j]``; a recording walk
    must reach every position, so it never aborts on the bound.

    The float operations replicate ``CostModel._simulate_reference``
    bit-for-bit — see the module docstring's exactness contract.
    """
    m = flat.m
    exec_l = flat.exec_l
    fill_l = flat.fill_l
    initial_l = flat.initial_l
    final_l = flat.final_l
    pred_l = flat.pred_l
    streaming = flat.streaming_l
    serializes = flat.serializes_l
    slot_ptr = flat.slot_ptr_l
    record = pre_ms is not None

    for j in range(k, len(order)):
        if record:
            snap_avail[j] = avail.copy()
            pre_ms[j] = makespan
        i = order[j]
        d = mapping[i]
        row = i * m
        ready = initial_l[row + d]
        drain = 0.0
        for p, trans in pred_l[i]:
            dp = mapping[p]
            if dp == d and streaming[d]:
                # on-chip streaming: start after the producer's pipeline
                # is filled; cannot finish before the producer finishes.
                r = start[p] + fill_l[p * m + dp]
                fp = finish[p]
                if fp > drain:
                    drain = fp
            else:
                r = finish[p] + trans[dp * m + d]
            if r > ready:
                ready = r
        st = ready
        slot = -1
        if contention and serializes[d]:
            s0 = slot_ptr[d]
            s1 = slot_ptr[d + 1]
            slot = s0
            earliest = avail[s0]
            for q in range(s0 + 1, s1):
                v = avail[q]
                if v < earliest:
                    earliest = v
                    slot = q
            if earliest > ready:
                st = earliest
        fin = st + exec_l[row + d]
        if drain > fin:
            fin = drain
        start[i] = st
        finish[i] = fin
        if slot >= 0:
            avail[slot] = fin
        end = fin + final_l[row + d]
        if end > makespan:
            makespan = end
            if makespan >= bound and not record:
                return INF
    return makespan


def simulate_flat(
    flat: FlatModel,
    mapping: List[int],
    order: Sequence[int],
    *,
    contention: bool = True,
    out_start: Optional[List[float]] = None,
    out_finish: Optional[List[float]] = None,
) -> float:
    """Full scratch simulation (a span from position 0 on fresh state)."""
    start = [0.0] * flat.n if out_start is None else out_start
    finish = [0.0] * flat.n if out_finish is None else out_finish
    return simulate_span(
        flat,
        mapping,
        order,
        0,
        start,
        finish,
        flat.fresh_avail(),
        0.0,
        contention=contention,
    )
