"""Optional compiled C kernel over the flat cost tables.

The list-scheduling recurrence is inherently sequential, so the Python
walk ``CostModel._simulate_reference`` is bound by interpreter dispatch
(~1-2 us per schedule position).  ``kernel.c``, shipped next to this
module, is the very same recurrence — statement for statement — in C,
reading the arrays of :class:`repro.evaluation.kernel.FlatModel`.  This
module compiles it with the system C compiler and loads it via
:mod:`ctypes`:

- no third-party dependency: only ``cc``/``gcc``/``clang`` if present;
- compiled once per source version into a per-user cache directory
  (atomic rename, safe under concurrent workers);
- strict IEEE semantics: ``-ffp-contract=off`` and no fast-math, so
  every double operation matches CPython float arithmetic bit for bit
  (pinned against ``CostModel._simulate_reference`` by
  ``tests/test_kernel_delta.py``);
- anything failing (no compiler, sandboxed filesystem, load error)
  degrades silently to the pure-Python fallback, where every entry runs
  the reference walk itself — the C path is an optimization, never a
  requirement.

Set ``REPRO_PURE_PYTHON=1`` to force the fallback (used by the
test-suite to cover both paths).

The eight entry points (``kernel.c`` states their contracts; their
ctypes prototypes are the one table ``_ENTRIES``) are listed here; all
but ``repro_random_orders`` and ``repro_vary`` run the one loop body
``span_core``:

- ``repro_span``       — full scratch simulation into caller buffers;
- ``repro_span_batch_dedup`` — lane loop over a whole ``(B, n)``
  population with in-kernel genome dedup (open-addressing table,
  duplicates verified by full row comparison) and per-lane feasibility
  skipping: one native call per population, one simulation per
  *distinct* feasible genome, and no grouping work on the Python side;
- ``repro_rebuild_from`` — the delta base's recording walk (per-position
  slot availability + running makespan) resumed from a position whose
  prefix snapshots are still valid, so committing an accepted move
  costs O(affected suffix) instead of O(V + E) (the tabu/annealing
  accept path); from position 0 it is the full rebuild;
- ``repro_eval_move``  — suffix-only re-simulation of one candidate
  move against the snapshotted base, with bound-abort;
- ``repro_scan``       — one whole greedy scan pass of the decomposition
  mapper (basic or gamma mode): per move the no-op skip, the incremental
  area check, the counters and a ``repro_eval_move`` call (see
  :meth:`repro.evaluation.delta.DeltaEvaluator.scan`);
- ``repro_span_min``   — the reported makespan (paper Sec. IV-A): one
  mapping over all ``K`` rows of a schedule suite in one call, each walk
  bounded by the best makespan so far (the minimum stays exact);
- ``repro_random_orders`` — the schedule suite's ``K`` random Kahn walks
  over successor CSR arrays, drawing through the caller's numpy bit
  generator exactly as ``Generator.integers`` does (see
  :mod:`repro.evaluation.schedules` for the draw-stream contract);
- ``repro_vary``       — one NSGA-II generation's single-point crossover,
  per-gene mutation and area repair of a ``(P, n)`` population in place,
  drawing through the caller's bit generator exactly as the numpy
  reference does (see :mod:`repro.mappers.genetic` for the draw-order
  contract).

Area feasibility in both ``repro_scan`` and ``repro_vary`` reads areas
and budgets in whole units of ``costmodel.AREA_UNIT`` (integer-valued
doubles): every sum is exact in any order, so each threshold is one
comparison that agrees with ``CostModel.is_feasible`` bit for bit.

Every buffer crosses into C through a checked builder or wrapper
(:meth:`CKernel.make_ctx`, :meth:`CKernel.make_delta`,
:meth:`CKernel.make_moves`, :meth:`CKernel.make_repair`,
:meth:`CKernel.span_min`, :meth:`CKernel.random_orders`,
:meth:`CKernel.vary`): each checks the shape, dtype and
C-contiguity of every buffer, CSR offsets, and the range of every index
the C side reads through, once when the structure is built.  The per-call
entries then trust them; ``repro_scan`` checks its per-pass ``order``
itself.  ``tests/kernel_harness.c`` replays every entry under
AddressSanitizer on buffers allocated at exactly these sizes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import subprocess
import sys
from typing import Optional

import numpy as np

__all__ = [
    "CKernel",
    "ReproCtx",
    "ReproDelta",
    "ReproMoves",
    "ReproRepair",
    "ReproScan",
    "SCAN_BUCKETS",
    "load_ckernel",
]

#: the kernel source, shipped as package data next to this module
_KERNEL_C = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "kernel.c")

_P = ctypes.POINTER
_f64 = _P(ctypes.c_double)
_i64 = _P(ctypes.c_int64)
_u8 = _P(ctypes.c_uint8)


class ReproCtx(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int64),
        ("m", ctypes.c_int64),
        ("n_slots", ctypes.c_int64),
        ("exec_t", _f64),
        ("fill_t", _f64),
        ("initial_t", _f64),
        ("final_t", _f64),
        ("pred_ptr", _i64),
        ("pred_src", _i64),
        ("pred_trans", _f64),
        ("streaming", _u8),
        ("serializes", _u8),
        ("slot_ptr", _i64),
    ]


class ReproDelta(ctypes.Structure):
    _fields_ = [
        ("mapping", _i64),
        ("order", _i64),
        ("pos", _i64),
        ("base_start", _f64),
        ("base_finish", _f64),
        ("ts", _f64),
        ("tf", _f64),
        ("snap_avail", _f64),
        ("pre_ms", _f64),
        ("avail_ws", _f64),
        ("old_ws", _i64),
    ]


#: bucket count of ``ReproScan.suffix_buckets`` (bit lengths 0..63 of a
#: non-negative int64), mirrored from the C struct (lint rule KER001)
SCAN_BUCKETS = 64


class ReproMoves(ctypes.Structure):
    _fields_ = [
        ("n_moves", ctypes.c_int64),
        ("n_area", ctypes.c_int64),
        ("cand_ptr", _i64),
        ("members", _i64),
        ("first_pos", _i64),
        ("cand_area", _f64),
        ("move_cand", _i64),
        ("move_dev", _i64),
        ("area", _f64),
        ("area_dev", _i64),
        ("area_limit", _f64),
        ("usage", _f64),
    ]


class ReproScan(ctypes.Structure):
    _fields_ = [
        ("best", ctypes.c_double),
        ("best_idx", ctypes.c_int64),
        ("n_evals", ctypes.c_int64),
        ("suffix_total", ctypes.c_int64),
        ("suffix_buckets", ctypes.c_int64 * SCAN_BUCKETS),
    ]


class ReproRepair(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int64),
        ("m", ctypes.c_int64),
        ("host", ctypes.c_int64),
        ("n_area", ctypes.c_int64),
        ("area", _f64),
        ("area_dev", _i64),
        ("limit", _f64),
    ]


def _require(arr, dtype, shape, name) -> None:
    """Raise :class:`ValueError` unless ``arr`` is a C-contiguous numpy
    array of ``dtype`` and ``shape`` (the C entries trust both)."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype
            and arr.shape == shape and arr.flags.c_contiguous):
        got = (f"{arr.dtype} {arr.shape}" if isinstance(arr, np.ndarray)
               else type(arr).__name__)
        raise ValueError(
            f"{name}: expected a C-contiguous {np.dtype(dtype)} array of "
            f"shape {shape}, got {got}"
        )


def _require_range(arr, hi, name, what="index") -> None:
    """Raise :class:`ValueError` unless every entry of ``arr`` is in
    ``[0, hi)``."""
    if arr.size and (arr.min() < 0 or arr.max() >= hi):
        raise ValueError(f"{name}: {what} outside [0, {hi})")


def _require_csr(ptr, size, name) -> None:
    """Raise :class:`ValueError` unless ``ptr`` is a CSR offset array
    over ``size`` entries: starts at 0, never decreases, ends at
    ``size``."""
    if ptr[0] != 0 or ptr[-1] != size or (np.diff(ptr) < 0).any():
        raise ValueError(f"{name}: malformed CSR offsets")


def _struct(cls, buffers, **scalars):
    """A ``cls`` struct holding ``scalars`` and, in field order, raw
    pointers into the C-contiguous numpy ``buffers``.  The buffers ride
    along on it (``_buffers``, in field order), so the struct keeps
    alive what it points into."""
    fields = [(name, typ) for name, typ in cls._fields_
              if name not in scalars]
    assert len(fields) == len(buffers), cls.__name__
    st = cls(**scalars, **{
        name: ctypes.cast(arr.ctypes.data, typ)
        for (name, typ), arr in zip(fields, buffers)
    })
    st._buffers = tuple(buffers)
    return st


_vp, _int, _int64, _double = (ctypes.c_void_p, ctypes.c_int, ctypes.c_int64,
                              ctypes.c_double)

#: every entry of ``kernel.c`` as (name, restype, argtypes), in source
#: order.  Array and struct arguments are void* so callers can pass the
#: raw integer from ndarray.ctypes.data without a per-call cast.  Lint
#: rule KER001 checks this table against the C prototypes.
_ENTRIES = (
    ("repro_span", _double, (_vp, _vp, _vp, _vp, _vp, _vp, _int)),
    ("repro_rebuild_from", _double, (_vp, _vp, _int64)),
    ("repro_span_batch_dedup", _int64,
     (_vp, _vp, _vp, _int64, _vp, _vp, _vp, _int64, _vp, _vp, _vp)),
    ("repro_eval_move", _double,
     (_vp, _vp, _vp, _int64, _int64, _int64, _double)),
    ("repro_scan", _int64,
     (_vp, _vp, _vp, _vp, _vp, _double, _double, _double, _vp)),
    ("repro_span_min", _double, (_vp, _vp, _vp, _int64, _vp, _vp, _vp)),
    ("repro_random_orders", _int64,
     (_vp, _vp, _vp, _int64, _int64, _vp, _vp, _vp, _vp)),
    ("repro_vary", None,
     (_vp, _vp, _int64, _int64, _double, _double, _vp, _vp)),
)


class CKernel:
    """Loaded C kernel: typed entry points over the shared library."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self.lib = lib
        for name, restype, argtypes in _ENTRIES:
            entry = getattr(lib, name)
            entry.restype = restype
            entry.argtypes = argtypes

    # ------------------------------------------------------------------
    def span_min(self, ctx, mapping, orders, start, finish, avail) -> float:
        """Minimum makespan of ``mapping`` over the rows of ``orders``
        (``repro_span_min``); ``start``/``finish``/``avail`` are
        workspaces.  Every buffer and the device and task indices are
        checked before the call, because the C side indexes with them
        unchecked."""
        n = ctx.n
        _require(mapping, np.int64, (n,), "mapping")
        _require(orders, np.int64, (len(orders), n), "orders")
        _require(start, np.float64, (n,), "start")
        _require(finish, np.float64, (n,), "finish")
        _require(avail, np.float64, (max(1, ctx.n_slots),), "avail")
        _require_range(mapping, ctx.m, "mapping", "device index")
        _require_range(orders, n, "orders", "task index")
        return self.lib.repro_span_min(
            ctypes.byref(ctx), mapping.ctypes.data, orders.ctypes.data,
            len(orders), start.ctypes.data, finish.ctypes.data,
            avail.ctypes.data,
        )

    def random_orders(self, succ_ptr, succ_dst, indeg, k, rng):
        """``k`` random topological orders as one ``(k, n)`` int64 array
        (``repro_random_orders``), drawn through ``rng``'s bit generator
        with its lock held: the orders and the generator's state
        afterwards equal ``k`` calls of the Python walk.  Raises
        :class:`ValueError` when the CSR arrays are malformed or the graph
        has a cycle."""
        n = len(indeg)
        _require(indeg, np.int64, (n,), "indeg")
        _require(succ_ptr, np.int64, (n + 1,), "succ_ptr")
        _require(succ_dst, np.int64, (len(succ_dst),), "succ_dst")
        if n >= 1 << 32:
            raise ValueError(f"random_orders: {n} tasks, at most 2**32 - 1")
        _require_csr(succ_ptr, len(succ_dst), "succ_ptr")
        _require_range(succ_dst, n, "succ_dst", "task index")
        out = np.empty((k, n), dtype=np.int64)
        ready = np.empty(n, dtype=np.int64)
        work = np.empty(n, dtype=np.int64)
        bitgen = rng.bit_generator
        with bitgen.lock:
            filled = self.lib.repro_random_orders(
                succ_ptr.ctypes.data, succ_dst.ctypes.data, indeg.ctypes.data,
                n, k, bitgen.ctypes.bit_generator, out.ctypes.data,
                ready.ctypes.data, work.ctypes.data,
            )
        if filled != k * n:
            raise ValueError("random_orders: the graph has a cycle")
        return out

    def make_repair(self, area, area_dev, limit, host, m) -> ReproRepair:
        """Build ``repro_vary``'s ``ReproRepair`` tables over ``n`` task
        areas and the area devices' indices and budgets (whole area
        units), after checking every buffer and the device indices."""
        n, n_area = len(area), len(area_dev)
        _require(area, np.float64, (n,), "area")
        _require(area_dev, np.int64, (n_area,), "area_dev")
        _require(limit, np.float64, (n_area,), "limit")
        _require_range(area_dev, m, "area_dev", "device index")
        if not 0 <= host < m:
            raise ValueError(f"host: device index outside [0, {m})")
        if n >= 1 << 32 or m >= 1 << 32:
            raise ValueError(f"make_repair: {n} tasks, {m} devices, "
                             f"each at most 2**32 - 1")
        tables = _struct(ReproRepair, (area, area_dev, limit),
                         n=n, m=m, host=host, n_area=n_area)
        # repro_vary's workspace (>= max(P*n, n) int64), grown by vary
        tables._work = np.empty(max(1, n), dtype=np.int64)
        tables._work_p = tables._work.ctypes.data
        return tables

    def vary(self, tables, pop, rng, crossover_rate, mutation_rate, *,
             variation=True) -> None:
        """Crossover, mutation and area repair of the rows of ``pop``,
        in place, as one ``repro_vary`` call drawing through ``rng``'s
        bit generator with its lock held (``variation=False``: the
        repair only).  The C side only compares and overwrites the genes
        of ``pop``, never indexes with them, so they need no range
        check; the workspace on ``tables`` makes concurrent calls on one
        model unsafe, as with the model's other workspaces."""
        P, n = pop.shape
        _require(pop, np.int64, (P, n), "pop")
        if n != tables.n:
            raise ValueError(f"pop: expected {tables.n} genes, got {n}")
        if len(tables._work) < P * n:
            tables._work = np.empty(P * n, dtype=np.int64)
            tables._work_p = tables._work.ctypes.data
        bitgen = rng.bit_generator
        with bitgen.lock:
            self.lib.repro_vary(
                ctypes.byref(tables), pop.ctypes.data, P, int(variation),
                crossover_rate, mutation_rate, bitgen.ctypes.bit_generator,
                tables._work_p,
            )

    # ------------------------------------------------------------------
    def make_delta(
        self,
        ctx,
        mapping,
        order,
        pos,
        base_start,
        base_finish,
        ts,
        tf,
        snap_avail,
        pre_ms,
        avail_ws,
        old_ws,
    ) -> ReproDelta:
        """Build a ``ReproDelta`` for ``ctx`` over preallocated numpy
        buffers, after checking every buffer's dtype, shape and
        C-contiguity and the range of ``order`` and ``pos``.

        The buffers must stay alive and must never be reallocated (refill
        in place) — the struct holds raw pointers into them.  ``mapping``
        is filled later; its devices are checked where a mapping comes
        in (``DeltaEvaluator.reset``).
        """
        n = ctx.n
        for arr, name in ((mapping, "mapping"), (order, "order"),
                          (pos, "pos"), (old_ws, "old_ws")):
            _require(arr, np.int64, (n,), name)
        for arr, name in ((base_start, "base_start"),
                          (base_finish, "base_finish"), (ts, "ts"),
                          (tf, "tf"), (pre_ms, "pre_ms")):
            _require(arr, np.float64, (n,), name)
        _require(snap_avail, np.float64, (n, ctx.n_slots), "snap_avail")
        _require(avail_ws, np.float64, (max(1, ctx.n_slots),), "avail_ws")
        _require_range(order, n, "order", "task index")
        _require_range(pos, n, "pos", "schedule position")
        return _struct(ReproDelta, (mapping, order, pos, base_start,
                                    base_finish, ts, tf, snap_avail, pre_ms,
                                    avail_ws, old_ws))

    # ------------------------------------------------------------------
    def make_ctx(self, flat) -> ReproCtx:
        """Build a ``ReproCtx`` over a FlatModel's arrays, after checking
        their dtypes, shapes and C-contiguity, the predecessor and slot
        CSR offsets and the predecessor task indices.  The struct holds
        raw pointers into the FlatModel's numpy buffers (and keeps them
        alive).
        """
        n, m, n_slots = flat.n, flat.m, flat.n_slots
        for arr, name in ((flat.exec, "exec"), (flat.fill, "fill"),
                          (flat.initial, "initial"), (flat.final, "final")):
            _require(arr, np.float64, (n, m), name)
        _require(flat.pred_ptr, np.int64, (n + 1,), "pred_ptr")
        n_edges = len(flat.pred_src)
        _require(flat.pred_src, np.int64, (n_edges,), "pred_src")
        _require(flat.pred_trans, np.float64, (n_edges, m * m), "pred_trans")
        _require(flat.streaming_u8, np.uint8, (m,), "streaming")
        _require(flat.serializes_u8, np.uint8, (m,), "serializes")
        _require(flat.slot_ptr, np.int64, (m + 1,), "slot_ptr")
        _require_csr(flat.pred_ptr, n_edges, "pred_ptr")
        _require_csr(flat.slot_ptr, n_slots, "slot_ptr")
        _require_range(flat.pred_src, n, "pred_src", "task index")
        return _struct(ReproCtx, (flat.exec, flat.fill, flat.initial,
                                  flat.final, flat.pred_ptr, flat.pred_src,
                                  flat.pred_trans, flat.streaming_u8,
                                  flat.serializes_u8, flat.slot_ptr),
                       n=n, m=m, n_slots=n_slots)

    # ------------------------------------------------------------------
    def make_moves(
        self,
        ctx,
        cand_ptr,
        members,
        first_pos,
        cand_area,
        move_cand,
        move_dev,
        area,
        area_dev,
        area_limit,
        usage,
    ) -> ReproMoves:
        """Build the ``ReproMoves`` tables of ``repro_scan`` for ``ctx``,
        after checking every buffer's dtype, shape and C-contiguity, the
        member CSR (each candidate at most ``n`` long, the size of the
        delta state's ``old_ws``) and the range of every task, position,
        candidate and device index the C side reads through.

        The struct holds raw pointers; the buffers ride along on it
        (``_buffers``), and ``usage`` is refilled in place by its owner.
        """
        n, m = ctx.n, ctx.m
        n_cand = len(first_pos)
        n_moves = len(move_cand)
        n_area = len(area_dev)
        _require(cand_ptr, np.int64, (n_cand + 1,), "cand_ptr")
        _require(members, np.int64, (len(members),), "members")
        _require(first_pos, np.int64, (n_cand,), "first_pos")
        _require(cand_area, np.float64, (n_cand,), "cand_area")
        _require(move_cand, np.int64, (n_moves,), "move_cand")
        _require(move_dev, np.int64, (n_moves,), "move_dev")
        _require(area, np.float64, (n,), "area")
        _require(area_dev, np.int64, (n_area,), "area_dev")
        for arr, name in ((area_limit, "area_limit"), (usage, "usage")):
            _require(arr, np.float64, (n_area,), name)
        _require_csr(cand_ptr, len(members), "cand_ptr")
        if n_cand and np.diff(cand_ptr).max() > n:
            raise ValueError(f"cand_ptr: a candidate longer than {n} tasks")
        _require_range(members, n, "members", "task index")
        _require_range(first_pos, n, "first_pos", "schedule position")
        _require_range(move_cand, n_cand, "move_cand", "candidate index")
        _require_range(move_dev, m, "move_dev", "device index")
        _require_range(area_dev, m, "area_dev", "device index")
        return _struct(ReproMoves, (cand_ptr, members, first_pos, cand_area,
                                    move_cand, move_dev, area, area_dev,
                                    area_limit, usage),
                       n_moves=n_moves, n_area=n_area)


#: base compile flags (part of the .so cache key, so changing them
#: recompiles).  -O3/-funroll-loops only reorder integer/branch work;
#: float semantics stay strict IEEE (-ffp-contract=off, fast-math never
#: passed), so the optimized build remains bit-identical to the Python
#: kernel.
_CFLAGS = ["-O3", "-funroll-loops", "-fPIC", "-shared", "-ffp-contract=off"]

#: the ``REPRO_CKERNEL_SANITIZE`` spellings of UndefinedBehaviorSanitizer,
#: the one sanitizer that works in a kernel dlopen()ed by CPython
_SANITIZERS = ("ubsan", "undefined")


def sanitize_flags() -> list:
    """Extra compile flags from ``REPRO_CKERNEL_SANITIZE``.

    ``REPRO_CKERNEL_SANITIZE=ubsan`` builds the kernel with
    ``-fsanitize=undefined -fno-omit-frame-pointer``.  The flags are
    folded into the ``.so`` cache key (like the base flags), so plain
    and sanitized builds coexist in the cache and flipping the variable
    between runs never serves a stale build.
    UBSan instruments UB checks only — float semantics are untouched,
    so a sanitized kernel stays bit-identical to the reference walk
    (pinned by the ``kernel-sanitize`` CI job running the equivalence
    suites under this variable).

    Unknown tokens raise :class:`ValueError`: a typo'd sanitizer must
    not silently run an unsanitized (or worse, pure-Python) kernel.
    The AddressSanitizer spellings are unknown too: dlopen()ed into an
    uninstrumented CPython, ASan sees none of the buffers the kernel
    touches, so it runs in the standalone harness
    ``tests/kernel_harness.c`` instead.
    """
    spec = os.environ.get("REPRO_CKERNEL_SANITIZE", "")
    tokens = {t.strip().lower() for t in spec.split(",")} - {""}
    unknown = sorted(tokens.difference(_SANITIZERS))
    if unknown:
        raise ValueError(
            f"REPRO_CKERNEL_SANITIZE: unknown sanitizer "
            f"{','.join(unknown)!r} (known: {', '.join(_SANITIZERS)}); "
            f"AddressSanitizer runs in the standalone harness "
            f"tests/kernel_harness.c"
        )
    if not tokens:
        return []
    return ["-fsanitize=undefined", "-fno-omit-frame-pointer"]


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-kernel")


def kernel_source() -> str:
    """The text of ``kernel.c``, byte for byte."""
    with open(_KERNEL_C, encoding="utf-8", newline="") as fh:
        return fh.read()


def _source_hash(cflags) -> str:
    """Cache key: source text + flags + python version."""
    return hashlib.sha256(
        (kernel_source() + " ".join(cflags)
         + sys.version.split()[0]).encode()
    ).hexdigest()[:16]


def _compile(cflags) -> Optional[str]:
    """Compile ``kernel.c`` with ``cflags``; return the .so path or None."""
    for cc in ("cc", "gcc", "clang"):
        try:
            cache = _cache_dir()
            os.makedirs(cache, exist_ok=True)
            so_path = os.path.join(cache, f"ckernel-{_source_hash(cflags)}.so")
            if os.path.exists(so_path):
                return so_path
            # stage the .so in the cache dir itself: os.replace is atomic
            # only within one filesystem, so a concurrent process never
            # dlopens a half-written file
            stage = f"{so_path}.tmp.{os.getpid()}"
            try:
                subprocess.run(
                    [cc, *cflags, "-o", stage, _KERNEL_C],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                os.replace(stage, so_path)  # atomic under concurrency
            finally:
                if os.path.exists(stage):
                    os.unlink(stage)
            return so_path
        # any failure => try the next compiler, else the silent
        # pure-Python fallback: the C path is an optimization, never a
        # requirement
        except Exception:  # noqa: BLE001  # repro-lint: disable=EXC001
            continue
    return None


_LOADED: Optional[CKernel] = None
_TRIED = False
_SO_PATH: Optional[str] = None
_SANITIZE: list = []


def load_ckernel() -> Optional[CKernel]:
    """The process-wide kernel, compiled/loaded on first use (or None).

    The first call in a process decides the build (including
    ``REPRO_PURE_PYTHON`` and ``REPRO_CKERNEL_SANITIZE``); later changes
    to either variable require a new process, same as before.
    """
    global _LOADED, _TRIED, _SO_PATH, _SANITIZE
    if _TRIED:
        return _LOADED
    _TRIED = True
    if os.environ.get("REPRO_PURE_PYTHON"):
        return None
    extra = sanitize_flags()  # raises on a typo'd sanitizer — see above
    so_path = _compile(_CFLAGS + extra)
    if so_path is None:
        return None
    try:
        _LOADED = CKernel(ctypes.CDLL(so_path))
        _SO_PATH = so_path
        _SANITIZE = extra
    except Exception:  # noqa: BLE001
        _LOADED = None
    return _LOADED


def kernel_status() -> dict:
    """Which span kernel this process runs, and why — the ``repro env``
    / benchmark-stamp view of :func:`load_ckernel`.

    Triggers a compile attempt on first call (same as any evaluation
    would), so ``available`` reflects what a real run will actually use.
    """
    kern = load_ckernel()
    return {
        "kernel": "c" if kern is not None else "python",
        "available": kern is not None,
        "pure_python_forced": bool(os.environ.get("REPRO_PURE_PYTHON")),
        "so_path": _SO_PATH,
        "cache_dir": _cache_dir(),
        "cflags": " ".join(_CFLAGS + _SANITIZE),
        "sanitize": os.environ.get("REPRO_CKERNEL_SANITIZE", "") or None,
    }


# ---------------------------------------------------------------------------
# consistency between kernel.c and its Python mirrors
# ---------------------------------------------------------------------------

#: C scalar types of the entry prototypes -> their ctypes (pointers are
#: void* in :data:`_ENTRIES`)
_C_SCALARS = {"void": None, "int": _int, "int64_t": _int64, "double": _double}

#: a top-level function definition in ``kernel.c``: its return type
#: (with ``static``, if any), name and parameter list
_C_FUNCTION = re.compile(r"^([A-Za-z_][\w \t*]*?)\s*\b(\w+)\(([^)]*)\)\s*\{",
                         re.MULTILINE)


def _c_type(decl: str):
    """The ctypes type of a C return type or parameter declaration (the
    declaration itself when it is none of :data:`_C_SCALARS`)."""
    if "*" in decl:
        return _vp
    return _C_SCALARS.get(decl.replace("const", " ").split()[0], decl)


def source_consistency_problems() -> list:
    """Mismatches between ``kernel.c`` and its Python-side mirrors.

    Returns ``[(line, message), ...]`` — empty when consistent — where
    ``line`` is the line of ``kernel.c`` at the offending C statement.
    The checked invariants (lint rule KER001):

    - every non-static function of ``kernel.c`` has exactly one entry in
      :data:`_ENTRIES`, and each entry's restype and argtypes (count and
      types) match its C prototype;
    - the in-kernel dedup's FNV-1a offset basis and prime equal
      ``repro.evaluation.kernel.DEDUP_FNV_OFFSET`` / ``DEDUP_FNV_PRIME``
      (``CostModel.simulate_many`` sizes and trusts the same table);
    - the documented table-sizing contract (``>= FACTOR*B`` slots)
      matches ``DEDUP_TABLE_FACTOR``;
    - infeasible lanes are marked with C ``INFINITY``, which is the same
      sentinel as ``costmodel.INFEASIBLE`` / ``kernel.INF``;
    - ``ReproScan.suffix_buckets`` has :data:`SCAN_BUCKETS` entries, the
      length of the ctypes mirror that ``DeltaEvaluator.scan`` reads.
    """
    from .costmodel import INFEASIBLE
    from .kernel import (
        DEDUP_FNV_OFFSET,
        DEDUP_FNV_PRIME,
        DEDUP_TABLE_FACTOR,
        INF,
    )

    source = kernel_source()
    problems = []

    def line_of(offset: int) -> int:
        return source.count("\n", 0, offset) + 1

    table = {}
    for name, restype, argtypes in _ENTRIES:
        if name in table:
            problems.append((1, f"entry table lists {name} twice"))
        table[name] = (restype, tuple(argtypes))
    defined = set()
    for fn in _C_FUNCTION.finditer(source):
        ret, name, params = fn.groups()
        if ret.split()[0] == "static":
            continue
        line = line_of(fn.start())
        defined.add(name)
        if name not in table:
            problems.append((line, f"C entry {name} is missing from the "
                                   f"entry table"))
            continue
        c_args = tuple(_c_type(p) for p in params.split(",")
                       if p.strip() not in ("", "void"))
        restype, argtypes = table[name]
        if len(argtypes) != len(c_args):
            problems.append((line, f"entry table gives {name} "
                                   f"{len(argtypes)} arguments, its C "
                                   f"prototype has {len(c_args)}"))
        elif argtypes != c_args or restype is not _c_type(ret):
            problems.append((line, f"entry table types of {name} differ "
                                   f"from its C prototype"))
    for name in sorted(table.keys() - defined):
        problems.append((1, f"entry table lists {name}, which kernel.c "
                            f"does not define"))

    def check(pattern: str, expected: int, what: str,
              mirror: str = "repro.evaluation.kernel") -> None:
        m = re.search(pattern, source)
        if m is None:
            problems.append((
                1,
                f"C source: cannot locate the {what} "
                f"(pattern {pattern!r}); update the mirror check",
            ))
        elif int(m.group(1)) != expected:
            problems.append((
                line_of(m.start()),
                f"C {what} is {m.group(1)}, Python mirror "
                f"({mirror}) says {expected}",
            ))

    check(r"uint64_t h = (\d+)ULL", DEDUP_FNV_OFFSET, "FNV-1a offset basis")
    check(r"\* (\d+)ULL", DEDUP_FNV_PRIME, "FNV-1a prime")
    check(
        r">=\s*(\d+)\*B", DEDUP_TABLE_FACTOR,
        "dedup table-sizing factor (slots per lane)",
    )
    check(
        r"suffix_buckets\[(\d+)\]", SCAN_BUCKETS,
        "scan suffix-bucket count", "_ckernel.SCAN_BUCKETS",
    )
    if "out[b] = INFINITY" not in source:
        problems.append((
            1, "C source no longer marks infeasible lanes with INFINITY",
        ))
    if not (INFEASIBLE == INF == float("inf")):
        problems.append((
            1,
            "INFEASIBLE / kernel.INF are no longer the +inf sentinel "
            "the C kernel emits",
        ))
    return problems
