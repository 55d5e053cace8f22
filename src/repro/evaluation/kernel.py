"""Flat-array view of the cost tables, as the compiled kernel reads them.

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

The C kernel (:mod:`repro.evaluation._ckernel`) reads those arrays: its
one loop body ``span_core`` serves every entry (scratch, population,
reported suite, delta move, recording rebuild and greedy scan).  There
is no second Python loop: without the compiled kernel every entry runs
the nested-list walk kept as ``CostModel._simulate_reference``, the
specification ``span_core`` mirrors statement for statement.

Exactness contract: ``span_core`` performs bit-for-bit the same float64
operations in the same order as ``CostModel._simulate_reference``
(pinned by ``tests/test_kernel_delta.py``), so kernel selection is
transparent — it is an optimization, never an approximation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["FlatModel", "INF"]

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
