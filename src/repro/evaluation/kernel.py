"""The cost tables of one graph on one platform: one read-only set.

:class:`FlatModel` is built once per ``CostModel`` from ``(graph,
platform)`` with numpy; the reference walk's nested lists are derived
from it (``CostModel.exec_rows``, ``preds``, ...).  Rows follow
``g.tasks()``; every array is C-contiguous and read-only, also after
unpickling:

- ``exec``/``fill``/``initial``/``final`` — ``(n, m)`` ``float64``
  (execution, pipeline fill, host→device input of a source,
  device→host result of a sink; host I/O is 0 on the host and for other
  tasks);
- ``pred_ptr``/``pred_src`` — predecessor CSR in ``g.predecessors``
  order; the position in ``pred_src`` is the edge id.  Per edge,
  ``edge_mb`` and ``pred_trans[e, du * m + dv]`` = ``latency_s[du, dv] +
  edge_mb[e] / 1000 / bandwidth_gbps[du, dv]``, diagonal included (on a
  topology-aware platform the *routed effective* costs, so the kernel
  never sees links, routes or hops — lint rule KER002 pins that);
- ``succ_ptr``/``succ_dst``/``succ_edge`` — its transpose: successors in
  ascending index, each with its edge id;
- ``input_mb``/``sink_mb`` — the volume a source stages from the host and
  a sink returns (input capped at ``DEFAULT_DATA_MB``), else 0; ``area``;
- ``streaming_u8``/``serializes_u8``/``slot_ptr`` — device flags and the
  serializing devices' slot ranges in one availability vector.

The C kernel (:mod:`repro.evaluation._ckernel`) points into those arrays,
so the set outlives every context built over it; its one loop body
``span_core`` serves every entry.  Without it every entry runs
``CostModel._simulate_reference``, the specification ``span_core``
mirrors statement for statement: bit-for-bit the same float64
operations in the same order (``tests/test_kernel_delta.py``).  The
tables equal their scalar definitions bit for bit
(``tests/test_costmodel.py``).
"""

from __future__ import annotations

import numpy as np

from ..graphs.taskgraph import DEFAULT_DATA_MB, TaskGraph
from ..platform.platform import Platform
from ..platform.taskmodel import exec_time_table

__all__ = ["FlatModel", "INF"]

INF = float("inf")

# ---------------------------------------------------------------------------
# Python-side mirrors of the C batch kernel's lane/dedup constants.  The
# in-kernel genome dedup (``repro_span_batch_dedup`` in ``kernel.c``,
# loaded by :mod:`repro.evaluation._ckernel`) hashes rows with 64-bit
# FNV-1a and requires a power-of-two probe table of at least
# ``DEDUP_TABLE_FACTOR`` times the lane count; ``CostModel.simulate_many``
# sizes its table from these mirrors.
# ``_ckernel.source_consistency_problems()`` (surfaced as lint rule KER001
# and pinned by ``tests/test_ckernel_sanitize.py``) verifies that
# ``kernel.c`` literally holds the same values, so an edit to one side
# without the other cannot land silently.
# ---------------------------------------------------------------------------

#: FNV-1a 64-bit offset basis used by the in-kernel row hash
DEDUP_FNV_OFFSET = 1469598103934665603
#: FNV-1a 64-bit prime used by the in-kernel row hash
DEDUP_FNV_PRIME = 1099511628211
#: the dedup probe table must hold at least this many slots per lane
DEDUP_TABLE_FACTOR = 2

__all__ += ["DEDUP_FNV_OFFSET", "DEDUP_FNV_PRIME", "DEDUP_TABLE_FACTOR"]


class FlatModel:
    """The read-only cost tables of ``graph`` on ``platform`` (see module
    doc)."""

    __slots__ = (
        "n", "m", "exec", "fill", "initial", "final",
        "pred_ptr", "pred_src", "pred_trans", "edge_mb",
        "succ_ptr", "succ_dst", "succ_edge", "input_mb", "sink_mb", "area",
        "streaming_u8", "serializes_u8", "slot_ptr", "n_slots",
    )

    def __init__(self, graph: TaskGraph, platform: Platform) -> None:
        tasks = graph.tasks()
        index = {t: i for i, t in enumerate(tasks)}
        self.n, self.m = n, m = len(tasks), platform.n_devices
        params = [graph.params(t) for t in tasks]

        preds = [graph.predecessors(t) for t in tasks]
        indeg = np.fromiter(map(len, preds), dtype=np.int64, count=n)
        self.pred_ptr = _offsets(indeg)
        n_edges = int(self.pred_ptr[-1])
        self.pred_src = np.fromiter(
            (index[p] for ps in preds for p in ps), dtype=np.int64,
            count=n_edges,
        )
        self.edge_mb = np.fromiter(
            (graph.data_mb(p, t) for t, ps in zip(tasks, preds) for p in ps),
            dtype=np.float64, count=n_edges,
        )
        lat = platform.latency_s
        bw = platform.bandwidth_gbps
        self.pred_trans = (
            lat + self.edge_mb[:, None, None] / 1000.0 / bw
        ).reshape(n_edges, m * m)

        # stable, so each task's successors keep ascending index order
        self.succ_edge = np.argsort(self.pred_src, kind="stable")
        self.succ_dst = np.repeat(np.arange(n, dtype=np.int64),
                                  indeg)[self.succ_edge]
        outdeg = np.bincount(self.pred_src, minlength=n)
        self.succ_ptr = _offsets(outdeg)

        self.exec = exec_time_table(graph, platform)
        stream = np.array([max(p.streamability, 1.0) for p in params])
        self.fill = self.exec / stream[:, None]
        self.area = np.array([p.area for p in params], dtype=np.float64)

        source = indeg == 0
        sink = outdeg == 0
        self.input_mb = np.array(
            [graph.input_mb(t) if s else 0.0 for t, s in zip(tasks, source)],
            dtype=np.float64,
        )
        self.sink_mb = np.array(
            [min(graph.input_mb(t), DEFAULT_DATA_MB) if s else 0.0
             for t, s in zip(tasks, sink)],
            dtype=np.float64,
        )
        # Platform.transfer_time's formula against the host row/column,
        # with its same-device 0.0 on the host entry
        host = platform.host_index
        self.initial = lat[host] + self.input_mb[:, None] / 1000.0 / bw[host]
        self.final = lat[:, host] + self.sink_mb[:, None] / 1000.0 / bw[:, host]
        for table, keep in ((self.initial, source), (self.final, sink)):
            table[:, host] = 0.0
            table[~keep] = 0.0

        devices = platform.devices
        self.streaming_u8 = np.array([d.streaming for d in devices],
                                     dtype=np.uint8)
        self.serializes_u8 = np.array([d.serializes for d in devices],
                                      dtype=np.uint8)
        # serializing devices get a contiguous slot range in one flat
        # availability vector; non-serializing (spatial) devices get none
        self.slot_ptr = _offsets([d.slots if d.serializes else 0
                                  for d in devices])
        self.n_slots = int(self.slot_ptr[-1])
        self._freeze()

    def _freeze(self) -> None:
        for name in self.__slots__:
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    # -- pickling: protocol 4 drops the read-only flag -------------------
    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self._freeze()


def _offsets(counts) -> np.ndarray:
    """CSR offsets ``[0, c0, c0 + c1, ...]`` of ``counts`` as int64."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr
