"""The greedy scan pass: one ``repro_scan`` call on the C kernel, the
reference :func:`~repro.evaluation.delta.scan_moves` everywhere else.

A scan pass is what the decomposition mapper's two heuristics repeat
every round: skip no-op moves, check each move's area incrementally,
score it against the delta base and charge the counters.  The C scan
must be indistinguishable from the reference: same winning move, same
expectations, same mapping and makespan, every ``MappingResult.stats``
entry and the ``delta.suffix_len`` histogram.

Area is decided in whole units of ``AREA_UNIT`` on every path.  The
threshold cases are built so that float sums of the same areas in the
incremental and the scratch order land on opposite sides of ``capacity
+ AREA_TOL``, while the unit sum is exactly the device's
``limit_units`` or one unit over it; every path must decide them as
``CostModel.is_feasible`` does.  A hypothesis test drives random areas
to exactly the limit and one unit over it through every area check,
with the tasks in two orders.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.evaluation import CostModel, DeltaEvaluator, MappingEvaluator
from repro.evaluation._ckernel import load_ckernel
from repro.evaluation.costmodel import AREA_TOL, AREA_UNIT
from repro.evaluation.delta import scan_moves
from repro.evaluation.kernel import FlatModel
from repro.graphs import TaskGraph
from repro.graphs.generators import random_almost_sp_graph, random_sp_graph
from repro.mappers.decomposition import DecompositionMapper
from repro.mappers.genetic import repair_area, repair_area_reference
from repro.platform import Platform, cpu, fpga, gpu, paper_platform
from repro.runtime.ledger import AreaLedger
from tests.conftest import make_evaluator
from tests.test_area_ledger import _sweep_first_fit

HAVE_CKERNEL = load_ckernel() is not None
needs_ckernel = pytest.mark.skipif(
    not HAVE_CKERNEL, reason="the C scan needs the compiled kernel"
)
MODES = [False] + ([None] if HAVE_CKERNEL else [])
MODE_IDS = ["python"] + (["ckernel"] if HAVE_CKERNEL else [])


class _PythonScanDelta(DeltaEvaluator):
    """The delta evaluator with the reference scan: on the C kernel every
    move is still one ``repro_eval_move`` call, driven from Python."""

    scan = scan_moves


class _PythonScanMapper(DecompositionMapper):
    def _scorer(self, evaluator):
        return _PythonScanDelta(evaluator.model)


# ---------------------------------------------------------------------------
# C scan == reference scan, whole mapper runs
# ---------------------------------------------------------------------------
HEURISTICS = {
    "basic": ("basic", {}),
    "first_fit": ("first_fit", {}),
    "gamma2": ("gamma", {"gamma": 2.0}),
}
GRAPHS = {
    "sp": lambda seed: random_sp_graph(40, np.random.default_rng(seed)),
    "almost_sp": lambda seed: random_almost_sp_graph(
        30, 10, np.random.default_rng(seed)
    ),
}


def _observed_run(mapper_cls, strategy, heuristic, kw, graph, seed):
    ev = make_evaluator(graph, paper_platform(), seed=seed, n_random=3)
    obs.observe()
    try:
        result = mapper_cls(strategy, heuristic, **kw).map(
            ev, rng=np.random.default_rng(seed)
        )
    finally:
        _tracer, registry = obs.shutdown()
    return result, registry.snapshot()["delta.suffix_len"]


@needs_ckernel
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("graph", list(GRAPHS))
@pytest.mark.parametrize("heuristic", list(HEURISTICS))
@pytest.mark.parametrize("strategy", ["single_node", "series_parallel"])
def test_c_scan_matches_reference_scan(strategy, heuristic, graph, seed):
    name, kw = HEURISTICS[heuristic]
    g = GRAPHS[graph](seed)
    fast, fast_hist = _observed_run(
        DecompositionMapper, strategy, name, kw, g, seed)
    ref, ref_hist = _observed_run(
        _PythonScanMapper, strategy, name, kw, g, seed)
    np.testing.assert_array_equal(fast.mapping, ref.mapping)
    assert fast.makespan == ref.makespan
    assert fast.stats == ref.stats
    assert fast.stats["iterations"] > 0
    assert fast_hist == ref_hist
    assert fast_hist["n"] == fast.stats["n_delta_evaluations"]


# ---------------------------------------------------------------------------
# the threshold: float sums straddle it, unit sums sit on or one unit over
# ---------------------------------------------------------------------------
CAPACITY = 6.0
#: (x1, x2, y): tasks 1 and 2 (areas x1, x2) sit on the FPGA, and moving
#: task 0 (area y) there too gives a float usage (x1 + x2) - 0.0 + y in
#: the incremental order on the other side of CAPACITY + AREA_TOL than
#: (y + x1) + x2 in the scratch order.  In area units the three sum to
#: exactly the FPGA's limit_units ("exact_feasible") or to one unit over
#: it ("exact_infeasible": x1 and x2 round up by 0.4 units each).
BAND_CASES = {
    "exact_feasible": (2.274, 1.27, float.fromhex("0x1.3a5e3541a2af3p+1")),
    "exact_infeasible": (2.2130000006, 1.7290000006,
                         float.fromhex("0x1.076c8b43278d9p+1")),
}


def band_platform(capacity=CAPACITY):
    devices = [
        cpu("c", lane_gops=1.0, lanes=4, slots=2, setup_s=0.0),
        gpu("g", lane_gops=2.0, lanes=1, setup_s=0.0),
        fpga("f", stream_gops=20.0, area_capacity=capacity, setup_s=0.0),
    ]
    bw = [[np.inf, 50.0, 50.0], [50.0, np.inf, 50.0], [50.0, 50.0, np.inf]]
    lat = [[0.0, 1e-6, 1e-6], [1e-6, 0.0, 1e-6], [1e-6, 1e-6, 0.0]]
    return Platform(devices, bw, lat)


def band_graph(case):
    """The chain 1 -> 2 -> 0; tasks 1 and 2 gain most from the FPGA, so
    a greedy search moves them first and then meets task 0 in the band."""
    x1, x2, y = BAND_CASES[case]
    g = TaskGraph()
    g.add_task(0, complexity=1.0, area=y)
    g.add_task(1, complexity=8.0, area=x1)
    g.add_task(2, complexity=4.0, area=x2)
    g.add_edge(1, 2, data_mb=0.1)
    g.add_edge(2, 0, data_mb=0.1)
    return g


@pytest.mark.parametrize("case", list(BAND_CASES))
def test_band_cases_straddle_the_threshold(case):
    """The construction itself: the two float orders disagree, and the
    unit sum is the limit or one unit over it."""
    x1, x2, y = BAND_CASES[case]
    limit = CAPACITY + AREA_TOL
    incremental = float(np.array([x1, x2]).sum()) - 0.0 + y
    scratch = float(np.array([y, x1, x2]).sum())
    assert abs(incremental - limit) < 1e-6 and abs(scratch - limit) < 1e-6
    assert (incremental > limit) != (scratch > limit)
    model = CostModel(band_graph(case), band_platform())
    over = model.area_units.sum() - model.limit_units[2]
    assert over == (0.0 if case == "exact_feasible" else 1.0)


def _band_scan(case, use_ckernel, scan, basic):
    """One scan pass from the base with tasks 1 and 2 on the FPGA."""
    model = CostModel(band_graph(case), band_platform(), use_ckernel=use_ckernel)
    fpga_dev = 2
    delta = DeltaEvaluator(model)
    current = delta.reset([0, fpga_dev, fpga_dev])
    table = delta.move_table(
        [delta.candidate([t]) for t in range(model.n)], model.m)
    expected = None if basic else np.zeros(len(table.pairs))
    best, idx = scan(delta, table, current, expected=expected)
    counters = (model.n_delta_evaluations, model.delta_steps,
                model.n_simulations)
    return model, current, best, idx, expected, counters


@pytest.mark.parametrize("basic", [False, True], ids=["gamma", "basic"])
@pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("case", list(BAND_CASES))
def test_scan_decides_the_band_exactly(case, use_ckernel, basic):
    model, current, best, idx, expected, counters = _band_scan(
        case, use_ckernel, DeltaEvaluator.scan, basic)
    trial = np.array([2, 2, 2])
    feasible = model.is_feasible(trial)
    assert feasible == (case == "exact_feasible")
    k = 2  # candidate 0 (task 0) on device 2 (the FPGA)
    if not basic:
        assert np.isfinite(expected[k]) == feasible
        if feasible:
            assert expected[k] == current - model.simulate(trial)
    ref = _band_scan(case, use_ckernel, scan_moves, basic)
    assert (best, idx, counters) == (ref[2], ref[3], ref[5])
    if not basic:
        np.testing.assert_array_equal(expected, ref[4])


@pytest.mark.parametrize("heuristic", ["basic", "first_fit"])
@pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("case", list(BAND_CASES))
def test_mapper_through_the_band(case, use_ckernel, heuristic):
    """Whole single-node runs meet the threshold and agree with the
    reference scan; the final mapping is feasible exactly as
    ``is_feasible`` says."""
    def run(mapper_cls):
        ev = make_evaluator(band_graph(case), band_platform(), n_random=2)
        # the kernel under test (the evaluator picks the default one)
        ev.model = CostModel(ev.graph, ev.platform, use_ckernel=use_ckernel)
        return mapper_cls("single_node", heuristic).map(
            ev, rng=np.random.default_rng(0))

    fast = run(DecompositionMapper)
    ref = run(_PythonScanMapper)
    np.testing.assert_array_equal(fast.mapping, ref.mapping)
    assert fast.makespan == ref.makespan
    assert fast.stats == ref.stats
    all_fpga = case == "exact_feasible"
    assert (list(fast.mapping) == [2, 2, 2]) == all_fpga


# ---------------------------------------------------------------------------
# every area check, at exactly limit_units and one unit over it
# ---------------------------------------------------------------------------
FPGA_DEV = 2  # band_platform's area device


def _chain(areas, order):
    """The chain 0 -> 1 -> ... with ``areas[t]`` on task ``t``, the tasks
    added (and so indexed and summed) in ``order``."""
    g = TaskGraph()
    for t in order:
        g.add_task(t, complexity=1.0 + t, area=areas[t])
    for t in range(len(areas) - 1):
        g.add_edge(t, t + 1, data_mb=0.1)
    return g


def _verdicts(model):
    """Each area check's verdict on putting every task on the FPGA."""
    n = model.n
    full = np.full(n, FPGA_DEV, dtype=np.int64)
    out = {
        "is_feasible": model.is_feasible(full),
        "feasible_mask": bool(model.feasible_mask(
            np.stack([full, np.zeros(n, dtype=np.int64)]))[0]),
    }
    # the delta checks: from the base with task 0 on the host, move it
    t = model.index[0]
    base = full.copy()
    base[t] = 0
    for name, scan in (("scan_moves", scan_moves),
                       ("DeltaEvaluator.scan", DeltaEvaluator.scan)):
        delta = DeltaEvaluator(model)
        current = delta.reset(base)
        table = delta.move_table([delta.candidate([t])], model.m)
        expected = np.zeros(len(table.pairs))
        scan(delta, table, current, expected=expected)
        out[name] = bool(np.isfinite(expected[FPGA_DEV]))
    out["evaluate_move"] = bool(np.isfinite(
        delta.evaluate_move(delta.candidate([t]), FPGA_DEV)))
    # NSGA-II's repair (repro_vary on the C kernel) and its numpy
    # reference leave the row alone, drawing nothing, iff it fits
    ev = MappingEvaluator(model.graph, model.platform, n_random_schedules=1)
    ev.model = model
    untouched = np.random.default_rng(0).bit_generator.state
    for name, repair in (("repair_area", repair_area),
                         ("repair_area_reference", repair_area_reference)):
        pop, rng = full[None].copy(), np.random.default_rng(0)
        repair(pop, ev, rng)
        out[name] = (bool((pop == full).all())
                     and rng.bit_generator.state == untouched)
    # the runtime ledger against the sweep oracle: the tasks' claims over
    # one window, in index order; the last one fits iff all do
    limit = model.limit_units[FPGA_DEV]
    ledger, claims = AreaLedger(limit), []
    for a in model.area_units_list:
        got = ledger.first_fit(0.0, 0.0, 1.0, 0.0, a)
        s, fin, claims = _sweep_first_fit(claims, 0.0, 0.0, 1.0, 0.0, a, limit)
        assert got == (s, fin)
    out["ledger"] = got == (0.0, 1.0)
    return out


@settings(max_examples=100, deadline=None)
@given(
    areas=st.lists(st.floats(0.01, 4.0), min_size=2, max_size=7),
    over=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_every_area_check_decides_the_limit_exactly(areas, over, seed):
    """Whatever the float areas, every path decides a usage of exactly
    ``limit_units`` as feasible and one unit more as infeasible, on both
    kernels and with the tasks in either of two orders."""
    total = float(np.rint(np.asarray(areas) / AREA_UNIT).sum())
    limit = total - over
    # limit_units is the capacity in units plus the one-unit tolerance
    platform = band_platform((limit - 1.0) * AREA_UNIT)
    shuffled = np.random.default_rng(seed).permutation(len(areas)).tolist()
    for order in (list(range(len(areas))), shuffled):
        g = _chain(areas, order)
        for use_ckernel in MODES:
            model = CostModel(g, platform, use_ckernel=use_ckernel)
            assert model.limit_units[FPGA_DEV] == limit
            verdicts = _verdicts(model)
            assert set(verdicts.values()) == {over == 0.0}, verdicts


def test_area_sums_past_2_53_units_are_refused():
    """Above 2**53 units a float sum is no longer exact: the model
    refuses the graph when it is built."""
    g = _chain([5e6, 5e6], [0, 1])
    with pytest.raises(ValueError, match=r"2\*\*53"):
        CostModel(g, band_platform())
    g.params(1).area = 4e6
    CostModel(g, band_platform())


# ---------------------------------------------------------------------------
# the C boundary: tables checked once, bad input raises instead of crashing
# ---------------------------------------------------------------------------
def _c_delta():
    g = random_sp_graph(12, np.random.default_rng(0))
    model = CostModel(g, paper_platform(), use_ckernel=True)
    delta = DeltaEvaluator(model)
    current = delta.reset(np.zeros(model.n, dtype=np.int64))
    cands = [delta.candidate([t]) for t in range(model.n)]
    return model, delta, current, cands


def _moves_args(model, cands):
    """The arguments ``DeltaEvaluator.move_table`` hands ``make_moves``."""
    m = model.m
    return dict(
        cand_ptr=np.arange(len(cands) + 1, dtype=np.int64),
        members=np.arange(len(cands), dtype=np.int64),
        first_pos=np.array([c.first_pos for c in cands], dtype=np.int64),
        cand_area=np.array([c.area for c in cands]),
        move_cand=np.repeat(np.arange(len(cands), dtype=np.int64), m),
        move_dev=np.tile(np.arange(m, dtype=np.int64), len(cands)),
        area=model.area_units,
        area_dev=np.array([2], dtype=np.int64),
        area_limit=np.array([10.0]),
        usage=np.zeros(1),
    )


@needs_ckernel
class TestCBoundary:
    def test_scan_rejects_bad_input(self):
        model, delta, current, cands = _c_delta()
        table = delta.move_table(cands, 3)
        expected = np.zeros(len(table.pairs))
        order = np.arange(len(table.pairs), dtype=np.int64)
        order[5] = len(table.pairs)
        with pytest.raises(ValueError, match="move index outside"):
            delta.scan(table, current, expected=expected, order=order)
        order[5] = -1
        with pytest.raises(ValueError, match="move index outside"):
            delta.scan(table, current, expected=expected, order=order)
        with pytest.raises(ValueError, match="order"):
            delta.scan(table, current, expected=expected,
                       order=order[:-1].copy())
        with pytest.raises(ValueError, match="expected"):
            delta.scan(table, current, expected=expected.astype(np.float32))
        other = DeltaEvaluator(model)
        other.reset(np.zeros(model.n, dtype=np.int64))
        with pytest.raises(ValueError, match="another evaluator"):
            other.scan(table, current)

    @pytest.mark.parametrize("field, value, match", [
        ("members", [0, 1, 12], "task index"),
        ("members", [0, 1, -1], "task index"),
        ("first_pos", [12], "schedule position"),
        ("move_cand", [12], "candidate index"),
        ("move_dev", [3], "device index"),
        ("area_dev", [3], "device index"),
    ])
    def test_make_moves_checks_ranges(self, field, value, match):
        model, _delta, _current, cands = _c_delta()
        args = _moves_args(model, cands)
        arr = args[field].copy()
        arr[-len(value):] = value
        args[field] = arr
        with pytest.raises(ValueError, match=match):
            model._ck.make_moves(model._ck_ctx, **args)

    def test_make_moves_checks_csr_and_buffers(self):
        model, _delta, _current, cands = _c_delta()
        ck, ctx = model._ck, model._ck_ctx
        args = _moves_args(model, cands)
        ck.make_moves(ctx, **args)  # the well-formed tables pass
        bad = dict(args, cand_ptr=args["cand_ptr"][::-1].copy())
        with pytest.raises(ValueError, match="CSR"):
            ck.make_moves(ctx, **bad)
        # one candidate of 13 > n tasks would overrun the old_ws workspace
        long_ptr = np.array([0] + [13] * len(cands), dtype=np.int64)
        bad = dict(args, cand_ptr=long_ptr,
                   members=np.zeros(13, dtype=np.int64))
        with pytest.raises(ValueError, match="longer than"):
            ck.make_moves(ctx, **bad)
        bad = dict(args, area=model.area_units.astype(np.float32))
        with pytest.raises(ValueError, match="area"):
            ck.make_moves(ctx, **bad)
        bad = dict(args, move_dev=args["move_dev"][::2])
        with pytest.raises(ValueError, match="move_dev"):
            ck.make_moves(ctx, **bad)

    def test_make_delta_checks_buffers(self):
        model, delta, _current, _cands = _c_delta()
        ck, n = model._ck, model.n
        bufs = [delta._np_map, delta._order_np, delta._pos_np,
                delta._start_np, delta._finish_np, delta._ts_ws,
                delta._tf_ws, delta._snap_np, delta._pre_ms_np,
                delta._avail_ws, delta._old_ws]
        ck.make_delta(model._ck_ctx, *bufs)
        for i, bad in [(4, np.zeros(n - 1)),               # base_finish short
                       (7, np.zeros((n, 1))),              # snap_avail shape
                       (10, np.zeros(n))]:                 # old_ws float
            args = list(bufs)
            args[i] = bad
            with pytest.raises(ValueError, match="expected a C-contiguous"):
                ck.make_delta(model._ck_ctx, *args)
        order = delta._order_np.copy()
        order[0] = n
        with pytest.raises(ValueError, match="order: task index"):
            ck.make_delta(model._ck_ctx, bufs[0], order, *bufs[2:])

    def test_make_ctx_checks_tables(self):
        model = CostModel(random_sp_graph(12, np.random.default_rng(0)),
                          paper_platform(), use_ckernel=True)
        flat = model.flat
        fields = {k: getattr(flat, k) for k in FlatModel.__slots__}
        model._ck.make_ctx(types.SimpleNamespace(**fields))
        for key, bad, match in [
            ("exec", flat.exec.T, "exec"),
            ("pred_src", np.where(flat.pred_src == 0, 12, flat.pred_src),
             "pred_src: task index"),
            ("pred_ptr", flat.pred_ptr[::-1].copy(), "pred_ptr"),
            ("slot_ptr", flat.slot_ptr + 1, "slot_ptr"),
            ("serializes_u8", flat.serializes_u8.astype(bool), "serializes"),
        ]:
            with pytest.raises(ValueError, match=match):
                model._ck.make_ctx(types.SimpleNamespace(**dict(fields, **{key: bad})))
