"""Every C kernel entry under AddressSanitizer, outside CPython.

An ASan build of the kernel loaded into CPython sees none of the buffers
the kernel touches (CPython and numpy allocate them all, and the
late-loaded ASan runtime intercepts none of those allocations).  So
``tests/kernel_harness.c`` includes ``kernel.c`` and runs as its own
program built with ``-fsanitize=address,undefined``.  This test dumps
cases built from the equivalence tests' helpers: every buffer the
builders (``CKernel.make_ctx``, ``make_delta``, ``make_moves``,
``make_repair``) put into a struct, and every other entry argument at
the size its Python caller gives it, one raw file each.  The harness
``malloc``s each at exactly its file size and replays all eight entries.

- The six deterministic entries must equal the in-process kernel bit
  for bit on the same inputs, replayed in the same order.
- ``repro_random_orders`` and ``repro_vary`` draw from the harness's
  own generator, so their results are checked structurally: topological
  permutations, and genes in range that fit every area budget.
  ``test_vary`` and ``test_schedules`` pin both against numpy.
- A copy of ``kernel.c`` with a one-past-the-end write into ``pre_ms``
  must make the harness fail with an ASan ``heap-buffer-overflow``.

Both tests skip only where the toolchain cannot build and run an ASan
binary.
"""

import ctypes
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.evaluation import CostModel, DeltaEvaluator
from repro.evaluation._ckernel import _KERNEL_C, ReproScan, load_ckernel
from repro.evaluation.delta import SCAN_EPS
from repro.evaluation.schedules import ScheduleSuite, successor_csr
from repro.graphs import TaskGraph
from repro.platform import cpu_gpu_platform, paper_platform, with_topology
from tests.test_kernel_delta import (
    graph_family,
    streaming_chain,
    tight_platform,
)

HARNESS = Path(__file__).with_name("kernel_harness.c")
ASAN_FLAGS = ["-O1", "-g", "-fsanitize=address,undefined",
              "-fno-sanitize-recover=all", "-ffp-contract=off",
              "-fno-omit-frame-pointer"]
#: the anchor in ``repro_rebuild_from`` before which the mutation test
#: plants its one-past-the-end ``pre_ms`` write
ANCHOR = "    return span_core(c, d->mapping, d->order,"
OVERRUN = "    ((double *)d->pre_ms)[c->n] = 1.0;\n"

#: entries whose results the harness reproduces bit for bit; the rest
#: draw from the harness's own generator
STRUCTURAL = ("orders.", "vary.")


def _one_task():
    g = TaskGraph()
    g.add_task(0, complexity=3.0, streamability=2.0, area=1.0)
    return g


def _cases():
    rng = np.random.default_rng(32)
    return {
        # paper platform: a 4-slot CPU and a streaming FPGA
        "sp": (graph_family("sp", 24, rng), paper_platform()),
        # 2-slot CPU, a 6-unit FPGA: many moves are area-infeasible
        "almost_sp": (graph_family("almost_sp", 24, rng), tight_platform()),
        "workflow": (graph_family("workflow", 24, rng), paper_platform()),
        "streaming": (streaming_chain(10), tight_platform()),
        "mesh": (graph_family("sp", 16, rng),
                 with_topology(paper_platform(), "mesh")),
        "one_task": (_one_task(), paper_platform()),
        # no area device: zero-length area buffers
        "no_area": (graph_family("layered", 16, rng), cpu_gpu_platform()),
    }


CASES = _cases()


def _cc():
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


@pytest.fixture(scope="module")
def build(tmp_path_factory):
    """``build(kernel_dir)`` compiles the harness over the ``kernel.c`` in
    ``kernel_dir`` and returns the binary's path; skips when the
    toolchain cannot build and run an ASan program."""
    if load_ckernel() is None:
        pytest.skip("no C kernel available")
    cc = _cc()
    root = tmp_path_factory.mktemp("harness")
    probe = root / "probe.c"
    probe.write_text("#include <stdlib.h>\nint main(void) { char *p = "
                     "malloc(2); p[1] = 0; int r = p[1]; free(p); "
                     "return r; }\n")
    try:
        subprocess.run([cc, "-fsanitize=address", "-o", root / "probe", probe],
                       check=True, capture_output=True, timeout=120)
        subprocess.run([root / "probe"], check=True, capture_output=True,
                       timeout=60)
    except (TypeError, OSError, subprocess.SubprocessError) as exc:
        pytest.skip(f"the toolchain cannot build an ASan binary: {exc}")

    def compile_over(kernel_dir: Path) -> Path:
        binary = Path(tempfile.mkdtemp(dir=root)) / "kernel_harness"
        proc = subprocess.run(
            [cc, *ASAN_FLAGS, "-I", str(kernel_dir), str(HARNESS),
             "-o", str(binary), "-lm"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return binary

    return compile_over


def _run(binary: Path, case_dir: Path):
    return subprocess.run(
        [str(binary), str(case_dir)], capture_output=True, text=True,
        timeout=120,
    )


# ---------------------------------------------------------------------------
# the case dump and its in-process replay
# ---------------------------------------------------------------------------

def _write(case_dir: Path, name: str, value) -> None:
    if isinstance(value, np.ndarray):
        data = value.tobytes()
    elif isinstance(value, float):
        data = np.float64(value).tobytes()
    else:
        data = np.int64(value).tobytes()
    (case_dir / name).write_bytes(data)


def _dump_struct(case_dir: Path, prefix: str, st) -> None:
    """One file per member of a builder's struct: each scalar, and each
    buffer it points into (``_buffers``, in field order)."""
    pointers = [name for name, typ in st._fields_
                if issubclass(typ, ctypes._Pointer)]
    assert len(pointers) == len(st._buffers)
    for name, typ in st._fields_:
        if name not in pointers:
            _write(case_dir, f"{prefix}.{name}", getattr(st, name))
    for name, arr in zip(pointers, st._buffers):
        address = ctypes.cast(getattr(st, name), ctypes.c_void_p).value
        assert address == arr.ctypes.data, (prefix, name)
        _write(case_dir, f"{prefix}.{name}", arr)


def _feasible_mapping(model, rng):
    for _ in range(200):
        mapping = rng.integers(0, model.m, size=model.n)
        if model.is_feasible(mapping):
            return mapping
    return np.full(model.n, model.platform.host_index)


def _prepare(case_dir: Path, g, platform, seed: int) -> dict:
    """Dump one case into ``case_dir``, then replay the harness's calls
    in-process on the same buffers; returns the expected ``out.*`` bytes
    of the deterministic entries."""
    lib = load_ckernel().lib
    rng = np.random.default_rng(seed)
    model = CostModel(g, platform, use_ckernel=True)
    n, m = model.n, model.m
    ev = DeltaEvaluator(model)
    ev.reset(_feasible_mapping(model, rng))
    base_ms = ev.base_makespan
    # singletons, a random pair and the whole graph (old_ws at its size)
    subs = [[i] for i in range(n)] + [
        sorted(rng.choice(n, size=min(2, n), replace=False).tolist()),
        list(range(n)),
    ]
    cands = [ev.candidate(sub) for sub in subs]
    table = ev.move_table(cands, m)
    repair = model.repair_tables()
    ctx, delta, moves = model._ck_ctx, ev._dctx, table.native
    for prefix, st in (("ctx", ctx), ("delta", delta), ("moves", moves),
                       ("repair", repair)):
        _dump_struct(case_dir, prefix, st)

    # entry arguments, each at the size its Python caller gives it
    mapping = rng.integers(0, m, size=n)
    bfs = model.bfs_order_np
    ws = {"start": np.zeros(n), "finish": np.zeros(n),
          "avail": np.zeros(max(1, model.flat.n_slots))}
    lanes = rng.integers(0, m, size=(9, n))
    lanes[3] = lanes[0]                     # a duplicate lane
    lanes[7] = lanes[5]                     # a duplicate of an infeasible one
    feas = model.feasible_mask(lanes)
    feas[5] = feas[8] = False               # infeasible whatever the areas
    feas_u8 = feas.view(np.uint8)
    table_size = 1 << (2 * len(lanes) - 1).bit_length()
    orders = ScheduleSuite.paper(g, rng, n_random=6).orders
    cand = cands[n]                         # the random pair (or singleton)
    device = int((delta._buffers[0][cand.members[0]] + 1) % m)
    undo = delta._buffers[0][cand.arr].copy()
    scan_order = rng.permutation(moves.n_moves).astype(np.int64)
    succ_ptr, succ_dst, indeg0 = successor_csr(g)
    pop = rng.integers(0, m, size=(7, n))   # odd: one row without a mate
    area_devs = sorted(model.limit_units)
    repair_pop = np.full((4, n), area_devs[0] if area_devs else 0,
                         dtype=np.int64)
    args = {
        "span.mapping": mapping, "span.order": bfs,
        "span.start": ws["start"], "span.finish": ws["finish"],
        "span.avail": ws["avail"],
        "batch.mappings": lanes, "batch.feas": feas_u8,
        "batch.out": np.zeros(len(lanes)),
        "batch.table": np.zeros(table_size, dtype=np.int64),
        "min.orders": orders,
        "move.sub": cand.arr, "move.device": device, "move.k": cand.first_pos,
        "move.undo": undo, "move.bound": 0.5 * base_ms,
        "scan.eps": SCAN_EPS, "scan.expected": np.zeros(moves.n_moves),
        "scan.order": scan_order, "scan.gamma": 1.5,
        "rng.seed": seed,
        "orders.succ_ptr": succ_ptr, "orders.succ_dst": succ_dst,
        "orders.indeg0": indeg0,
        "orders.out": np.zeros((5, n), dtype=np.int64),
        "orders.ready": np.zeros(n, dtype=np.int64),
        "orders.indeg": np.zeros(n, dtype=np.int64),
        "vary.pop": pop, "vary.repair_pop": repair_pop,
        "vary.work": np.zeros(max(1, pop.size), dtype=np.int64),
        "vary.crossover_rate": 0.9, "vary.mutation_rate": 0.3,
    }
    for name, value in args.items():
        _write(case_dir, name, value)

    # the same calls in-process, in the harness's order
    out = {}
    ctx_p, delta_p, moves_p = (ctypes.byref(ctx), ctypes.byref(delta),
                               ctypes.byref(moves))
    ptr = {k: v.ctypes.data for k, v in ws.items()}
    for contention in (1, 0):
        ms = lib.repro_span(ctx_p, mapping.ctypes.data, bfs.ctypes.data,
                            ptr["start"], ptr["finish"], ptr["avail"],
                            contention)
        out[f"span{contention}.ms"] = np.float64(ms).tobytes()
        out[f"span{contention}.start"] = ws["start"].tobytes()
        out[f"span{contention}.finish"] = ws["finish"].tobytes()
    res = np.zeros(len(lanes))
    simulated = lib.repro_span_batch_dedup(
        ctx_p, lanes.ctypes.data, bfs.ctypes.data, len(lanes),
        feas_u8.ctypes.data, res.ctypes.data,
        np.zeros(table_size, dtype=np.int64).ctypes.data, table_size,
        ptr["start"], ptr["finish"], ptr["avail"])
    out["batch.simulated"] = np.int64(simulated).tobytes()
    out["batch.out"] = res.tobytes()
    ms = lib.repro_span_min(ctx_p, mapping.ctypes.data, orders.ctypes.data,
                            len(orders), ptr["start"], ptr["finish"],
                            ptr["avail"])
    out["min.ms"] = np.float64(ms).tobytes()

    dmap, base_start, base_finish = delta._buffers[0], *delta._buffers[3:5]
    snap, pre_ms = delta._buffers[7], delta._buffers[8]
    for key, k in (("rebuild0", 0), ("rebuild_move", cand.first_pos),
                   ("rebuild_undo", cand.first_pos)):
        if key == "rebuild_move":
            dmap[cand.arr] = device
        elif key == "rebuild_undo":
            dmap[cand.arr] = undo
        out[f"{key}.ms"] = np.float64(
            lib.repro_rebuild_from(ctx_p, delta_p, k)).tobytes()
        out[f"{key}.base_start"] = base_start.tobytes()
        out[f"{key}.base_finish"] = base_finish.tobytes()
        out[f"{key}.snap_avail"] = snap.tobytes()
        out[f"{key}.pre_ms"] = pre_ms.tobytes()
    for key, bound in (("unbounded", np.inf), ("bounded", 0.5 * base_ms)):
        out[f"eval.{key}"] = np.float64(lib.repro_eval_move(
            ctx_p, delta_p, cand.arr.ctypes.data, len(cand.arr), device,
            cand.first_pos, bound)).tobytes()
    out["eval.mapping"] = dmap.tobytes()

    expected = np.zeros(moves.n_moves)
    for key, order, exp, gamma in (
            ("scan_basic", None, None, 0.0),
            ("scan_gamma", None, expected, 0.0),
            ("scan_order", scan_order, expected, 1.5)):
        state = ReproScan(best=base_ms if exp is None else 0.0, best_idx=-1)
        status = lib.repro_scan(
            ctx_p, delta_p, moves_p,
            None if order is None else order.ctypes.data,
            None if exp is None else exp.ctypes.data,
            base_ms, gamma, SCAN_EPS, ctypes.byref(state))
        out[f"{key}.status"] = np.int64(status).tobytes()
        out[f"{key}.state"] = bytes(state)
        if exp is not None:
            out[f"{key}.expected"] = exp.tobytes()
    return out


def _check_structural(case_dir: Path, g, model) -> None:
    """The harness-generator entries: every row of ``orders.out`` is a
    topological permutation, and every varied or repaired genome has its
    genes in ``[0, m)`` and fits every area budget (``limit_units``)."""
    n, m = model.n, model.m
    rows = np.fromfile(case_dir / "out.orders.out", dtype=np.int64)
    rows = rows.reshape(-1, n)
    filled = np.fromfile(case_dir / "out.orders.filled", dtype=np.int64)
    assert filled.tolist() == [rows.size]
    succ_ptr, succ_dst, _ = successor_csr(g)
    for row in rows:
        assert sorted(row.tolist()) == list(range(n))
        pos = np.empty(n, dtype=np.int64)
        pos[row] = np.arange(n)
        for t in range(n):
            for s in succ_dst[succ_ptr[t]:succ_ptr[t + 1]]:
                assert pos[t] < pos[s]
    for name, shape in (("vary.pop", (7, n)), ("vary.repair_pop", (4, n))):
        pop = np.fromfile(case_dir / f"out.{name}", dtype=np.int64)
        pop = pop.reshape(shape)
        assert pop.min() >= 0 and pop.max() < m
        for d, limit in model.limit_units.items():
            assert ((pop == d) @ model.area_units <= limit).all()


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_harness_replays_every_entry(build, tmp_path):
    binary = build(Path(_KERNEL_C).parent)
    for seed, (name, (g, platform)) in enumerate(CASES.items()):
        case_dir = tmp_path / name
        case_dir.mkdir()
        expected = _prepare(case_dir, g, platform, seed)
        proc = _run(binary, case_dir)
        assert proc.returncode == 0, f"{name}: {proc.stderr}"
        got = {p.name[len("out."):]: p.read_bytes()
               for p in case_dir.glob("out.*")}
        deterministic = {k: v for k, v in got.items()
                         if not k.startswith(STRUCTURAL)}
        assert deterministic.keys() == expected.keys(), name
        for key, data in expected.items():
            assert deterministic[key] == data, f"{name}: {key}"
        _check_structural(case_dir, g, CostModel(g, platform))


def test_harness_catches_a_pre_ms_overrun(build, tmp_path):
    source = Path(_KERNEL_C).read_text(encoding="utf-8")
    if source.count(ANCHOR) != 1:
        pytest.fail(f"repro_rebuild_from's anchor {ANCHOR!r} is gone from "
                    f"kernel.c; move the planted overrun")
    mutant = tmp_path / "mutant"
    mutant.mkdir()
    (mutant / "kernel.c").write_text(source.replace(ANCHOR, OVERRUN + ANCHOR),
                                     encoding="utf-8")
    binary = build(mutant)
    case_dir = tmp_path / "sp"
    case_dir.mkdir()
    g, platform = CASES["sp"]
    _prepare(case_dir, g, platform, 0)
    proc = _run(binary, case_dir)
    assert proc.returncode != 0
    assert "heap-buffer-overflow" in proc.stderr
    assert "repro_rebuild_from" in proc.stderr
