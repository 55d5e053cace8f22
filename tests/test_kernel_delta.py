"""Exactness contract of the fast evaluation core.

The compiled C kernel, the population entry and the incremental delta
evaluator (whose fallbacks run the walk itself) are *optimizations,
never approximations*: every path must reproduce the original nested-list
walk (``CostModel._simulate_reference``) **bit for bit** — makespan and
per-task start/finish — across graph families, random mappings, random
schedule orders, streaming chains, FPGA area-infeasible mappings and
``contention=False`` bounds.  The greedy mappers' trajectories (and
hence every ``improvement`` number in the committed result CSVs) follow
from these equalities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import (
    INFEASIBLE,
    CostModel,
    DeltaEvaluator,
    MappingEvaluator,
    random_topological_schedule,
)
from repro.evaluation._ckernel import load_ckernel
from repro.graphs import TaskGraph
from repro.graphs.generators import (
    augment_workflow,
    make_workflow,
    random_almost_sp_graph,
    random_layered_graph,
    random_sp_graph,
)
from repro.mappers.decomposition import DecompositionMapper
from repro.platform import Platform, cpu, fpga, gpu, paper_platform
from repro.sp.subgraphs import schedule_span
from tests.conftest import make_evaluator

HAVE_CKERNEL = load_ckernel() is not None

#: kernel modes exercised by the equivalence tests
MODES = [False] + ([None] if HAVE_CKERNEL else [])
MODE_IDS = ["python"] + (["ckernel"] if HAVE_CKERNEL else [])


def tight_platform():
    """Small-area platform so random mappings hit FPGA infeasibility."""
    devices = [
        cpu("c", lane_gops=1.0, lanes=4, slots=2, setup_s=0.0),
        gpu("g", lane_gops=8.0, lanes=1, setup_s=0.001),
        fpga("f", stream_gops=2.0, area_capacity=6.0, setup_s=0.0),
    ]
    bw = [[np.inf, 2.0, 1.0], [2.0, np.inf, 1.0], [1.0, 1.0, np.inf]]
    lat = [[0.0, 1e-4, 2e-4], [1e-4, 0.0, 1e-4], [2e-4, 1e-4, 0.0]]
    return Platform(devices, bw, lat)


def streaming_chain(n=8):
    """A chain with high streamability — exercises fill/drain co-mapping."""
    g = TaskGraph()
    for i in range(n):
        g.add_task(i, complexity=4.0, streamability=6.0, area=1.0)
    for i in range(n - 1):
        g.add_edge(i, i + 1, data_mb=200.0)
    return g


def graph_family(kind: str, n: int, rng) -> TaskGraph:
    if kind == "sp":
        return random_sp_graph(n, rng)
    if kind == "almost_sp":
        return random_almost_sp_graph(n, max(1, n // 4), rng)
    if kind == "layered":
        return random_layered_graph(max(2, n // 4), 4, rng)
    if kind == "workflow":
        g = make_workflow("montage", n, rng)
        augment_workflow(g, rng)
        return g
    if kind == "chain":
        return streaming_chain(min(n, 12))
    raise ValueError(kind)


FAMILIES = ["sp", "almost_sp", "layered", "workflow", "chain"]


# ---------------------------------------------------------------------------
# kernel == reference walk, bit-identical
# ---------------------------------------------------------------------------
class TestKernelBitIdentical:
    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_random_mappings_and_orders(self, family, use_ckernel):
        rng = np.random.default_rng(FAMILIES.index(family))
        for plat in (paper_platform(), tight_platform()):
            g = graph_family(family, 18, rng)
            model = CostModel(g, plat, use_ckernel=use_ckernel)
            n = model.n
            for _ in range(25):
                mapping = rng.integers(0, plat.n_devices, size=n)
                # makespan must match the reference EXACTLY (==, not approx),
                # including INFEASIBLE area violations
                assert _same(
                    model.simulate(mapping), model._simulate_reference(mapping)
                )
                order = random_topological_schedule(g, rng)
                assert _same(
                    model.simulate(mapping, order, check_feasibility=False),
                    model._simulate_reference(
                        mapping, order, check_feasibility=False
                    ),
                )
                # contention=False bound path
                assert _same(
                    model.simulate(
                        mapping, check_feasibility=False, contention=False
                    ),
                    model._simulate_reference(
                        mapping, check_feasibility=False, contention=False
                    ),
                )

    @pytest.mark.skipif(not HAVE_CKERNEL, reason="no C compiler available")
    def test_c_and_python_kernels_agree(self):
        rng = np.random.default_rng(77)
        plat = tight_platform()
        g = random_almost_sp_graph(30, 8, rng)
        mc = CostModel(g, plat, use_ckernel=True)
        mp_ = CostModel(g, plat, use_ckernel=False)
        for _ in range(40):
            mapping = rng.integers(0, plat.n_devices, size=30)
            assert _same(mc.simulate(mapping), mp_.simulate(mapping))

    def test_requesting_unavailable_ckernel_raises(self, monkeypatch):
        import repro.evaluation.costmodel as cm

        monkeypatch.setattr(cm, "load_ckernel", lambda: None)
        g = random_sp_graph(5, np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            CostModel(g, paper_platform(), use_ckernel=True)
        # None (auto) quietly falls back to the Python kernel
        model = CostModel(g, paper_platform(), use_ckernel=None)
        assert model._ck is None


# ---------------------------------------------------------------------------
# delta evaluation == scratch evaluation, bit-identical
# ---------------------------------------------------------------------------
class TestDeltaEquivalence:
    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_random_move_sequences(self, family, use_ckernel):
        rng = np.random.default_rng(100 + FAMILIES.index(family))
        plat = tight_platform()  # small FPGA: infeasible moves do occur
        g = graph_family(family, 16, rng)
        model = CostModel(g, plat, use_ckernel=use_ckernel)
        n = model.n
        delta = DeltaEvaluator(model)
        assert _same(
            delta.reset(np.zeros(n, dtype=np.int64)),
            model._simulate_reference([0] * n),
        )
        # guaranteed FPGA area violation: total area exceeds capacity 6
        everything = delta.candidate(np.arange(n))
        assert delta.evaluate_move(everything, 2) == INFEASIBLE
        assert model._simulate_reference([2] * n) == INFEASIBLE
        commits = 0
        for _ in range(120):
            size = int(rng.integers(1, max(2, n // 3)))
            sub = rng.choice(n, size=size, replace=False)
            d = int(rng.integers(0, plat.n_devices))
            cand = delta.candidate(sub)
            ms = delta.evaluate_move(cand, d)
            trial = delta.mapping
            trial[sub] = d
            ref = model._simulate_reference(trial)
            assert _same(ms, ref)
            if ms != INFEASIBLE and rng.random() < 0.35:
                # commit (every other one resumed at the candidate's
                # first position): the rebuilt base (makespan AND
                # per-task start/finish) must equal a scratch simulation
                commits += 1
                first_pos = cand.first_pos if commits % 2 else None
                assert _same(
                    delta.apply_move(cand.members, d, first_pos=first_pos),
                    ref,
                )
                if delta._ck is None:
                    continue  # the fallback records no state
                # ... and the whole recorded state (start/finish, slot
                # snapshots, prefix makespans) a fresh full rebuild's,
                # with the base start/finish the reference walk's
                fresh = DeltaEvaluator(model)
                fresh.reset(trial)
                for got, want in zip(_delta_state(delta), _delta_state(fresh)):
                    np.testing.assert_array_equal(got, want)
                record = []
                model._simulate_reference(trial, delta.order, record=record)
                start = np.zeros(n)
                finish = np.zeros(n)
                for i, _d, _slot, _ready, st, fin, _streamed in record:
                    start[i] = st
                    finish[i] = fin
                np.testing.assert_array_equal(delta._start_np, start)
                np.testing.assert_array_equal(delta._finish_np, finish)

    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    def test_bound_abort_is_conservative(self, use_ckernel):
        """Aborted evaluations only ever hide values >= the bound."""
        rng = np.random.default_rng(5)
        g = random_sp_graph(20, rng)
        model = CostModel(g, paper_platform(), use_ckernel=use_ckernel)
        delta = DeltaEvaluator(model)
        base = delta.reset(np.zeros(20, dtype=np.int64))
        for _ in range(60):
            t = int(rng.integers(20))
            d = int(rng.integers(3))
            cand = delta.candidate([t])
            exact = delta.evaluate_move(cand, d)
            bound = base * float(rng.uniform(0.5, 1.1))
            bounded = delta.evaluate_move(cand, d, bound=bound)
            if exact < bound:
                assert bounded == exact
            else:
                assert bounded == np.inf or bounded == exact

    def test_batch_path_matches_scratch(self):
        """A full first-pass scan (136 moves off one base) on the
        pure-Python kernel, pinned move by move to the reference."""
        rng = np.random.default_rng(9)
        plat = tight_platform()
        g = random_sp_graph(24, rng)
        model = CostModel(g, plat, use_ckernel=False)
        delta = DeltaEvaluator(model)
        delta.reset(np.zeros(24, dtype=np.int64))
        for _ in range(136):
            size = int(rng.integers(1, 6))
            sub = rng.choice(24, size=size, replace=False)
            cand = delta.candidate(sub)
            d = int(rng.integers(3))
            trial = delta.mapping
            trial[cand.members] = d
            assert _same(
                delta.evaluate_move(cand, d), model._simulate_reference(trial)
            )

    def test_delta_needs_feasible_base(self):
        g = TaskGraph()
        g.add_task(0, area=100.0)
        plat = tight_platform()
        model = CostModel(g, plat)
        with pytest.raises(ValueError):
            DeltaEvaluator(model).reset([2])

    def test_schedule_span(self):
        pos = [3, 0, 2, 1]
        assert schedule_span([0], pos) == (3, 3)
        assert schedule_span([1, 2], pos) == (0, 2)
        assert schedule_span([0, 1, 2, 3], pos) == (0, 3)


# ---------------------------------------------------------------------------
# device indices are range-checked wherever a mapping enters the model
# ---------------------------------------------------------------------------
class TestDeviceRange:
    """Both kernels index their flat tables with the device unchecked:
    out of range, the C kernel reads out of bounds and the Python kernel
    reads a neighbouring row for ``-1``.  Every entry refuses instead."""

    ENTRIES = {
        "simulate": lambda model, bad: model.simulate(bad),
        "simulate_many": lambda model, bad: model.simulate_many(
            np.stack([np.zeros_like(bad), bad])
        ),
        "simulate_min": lambda model, bad: model.simulate_min(
            bad, np.stack([model.bfs_order_np, model.bfs_order_np])
        ),
        "delta_reset": lambda model, bad: DeltaEvaluator(model).reset(bad),
    }

    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize("where", ["m", "-1"])
    def test_out_of_range_device_raises(self, entry, where, use_ckernel):
        g = random_sp_graph(20, np.random.default_rng(0))
        model = CostModel(g, paper_platform(), use_ckernel=use_ckernel)
        bad = np.zeros(model.n, dtype=np.int64)
        bad[7] = model.m if where == "m" else -1
        with pytest.raises(ValueError, match=r"device index outside \[0, 3\)"):
            self.ENTRIES[entry](model, bad)

    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    def test_last_device_still_accepted(self, use_ckernel):
        g = random_sp_graph(20, np.random.default_rng(0))
        model = CostModel(g, paper_platform(), use_ckernel=use_ckernel)
        last = [model.m - 1] * model.n
        assert _same(model.simulate(last), model._simulate_reference(last))

    # The per-move delta entries: the C kernel took device -1 as device
    # 2 (``_c_devices[-1]``), the Python kernel returned a wrong makespan,
    # ``candidate([-1])`` was task 19, and a ``first_pos`` past the
    # members' first position (5 for task 5) kept stale snapshots
    # (SIGSEGV on C for ``10**7``).  A rejected move leaves the base as is.
    _DEVICE = r"device index outside \[0, 3\)"
    _TASK = r"task index outside \[0, 20\)"
    BAD_MOVES = {
        "eval_m": (lambda d, c: d.evaluate_move(c, 3), _DEVICE),
        "eval_-1": (lambda d, c: d.evaluate_move(c, -1), _DEVICE),
        "apply_m": (lambda d, c: d.apply_move(c.members, 3), _DEVICE),
        "apply_-1": (lambda d, c: d.apply_move(c.members, -1), _DEVICE),
        "cand_20": (lambda d, c: d.candidate([3, 20]), _TASK),
        "cand_-1": (lambda d, c: d.candidate([3, -1]), _TASK),
        "apply_task_20": (lambda d, c: d.apply_move([3, 20], 1), _TASK),
        "apply_task_-1": (lambda d, c: d.apply_move([3, -1], 1), _TASK),
        **{f"first_pos_{k}": (
            lambda d, c, k=k: d.apply_move([5], 1, first_pos=k), "first_pos")
           for k in (-1, 6, 10, 10**7)},
        # an empty candidate has no schedule span (was a bare StopIteration)
        "cand_empty": (lambda d, c: d.candidate([]), "empty candidate"),
        "apply_empty": (lambda d, c: d.apply_move([], 1, first_pos=0),
                        "empty candidate"),
    }

    @staticmethod
    def _delta(use_ckernel):
        g = random_sp_graph(20, np.random.default_rng(0))
        model = CostModel(g, paper_platform(), use_ckernel=use_ckernel)
        delta = DeltaEvaluator(model)
        delta.reset(np.zeros(model.n, dtype=np.int64))
        return model, delta

    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("move", list(BAD_MOVES))
    def test_bad_move_raises(self, move, use_ckernel):
        _, delta = self._delta(use_ckernel)
        apply, match = self.BAD_MOVES[move]
        with pytest.raises(ValueError, match=match):
            apply(delta, delta.candidate([5]))
        assert not delta.mapping.any()

    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("first_pos", [0, 5, None])
    def test_valid_moves_still_accepted(self, first_pos, use_ckernel):
        model, delta = self._delta(use_ckernel)
        last = model.m - 1
        moved = np.zeros(model.n, dtype=np.int64)
        moved[5] = last
        want = model._simulate_reference(moved)
        assert _same(delta.evaluate_move(delta.candidate([5]), last), want)
        assert _same(delta.apply_move([5], last, first_pos=first_pos), want)


class TestOrderRange:
    """A caller's schedule order is checked like a mapping: out of range,
    the C kernel read out of bounds (SIGSEGV for ``10**7``) and the
    Python kernel returned a wrong makespan for ``-1``.  The reported
    makespan's suite rows are checked on both kernels too (the Python
    kernel used to return a wrong minimum where C raised)."""

    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("bad, match", [
        (np.full(20, 10**7), r"task index outside \[0, 20\)"),
        ([-1] * 20, r"task index outside \[0, 20\)"),
        (list(range(19)), "expected 20 task indices"),
        (np.arange(40).reshape(2, 20), "expected 20 task indices"),
    ], ids=["huge", "minus1", "short", "2d"])
    def test_bad_order_raises(self, bad, match, use_ckernel):
        g = random_sp_graph(20, np.random.default_rng(0))
        model = CostModel(g, paper_platform(), use_ckernel=use_ckernel)
        with pytest.raises(ValueError, match=match):
            model.simulate(np.zeros(20, dtype=np.int64), order=bad)

    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("bad", [20, -1])
    def test_bad_suite_row_raises(self, bad, use_ckernel):
        g = random_sp_graph(20, np.random.default_rng(0))
        model = CostModel(g, paper_platform(), use_ckernel=use_ckernel)
        orders = np.stack([model.bfs_order_np, np.full(20, bad)])
        with pytest.raises(ValueError, match=r"task index outside \[0, 20\)"):
            model.simulate_min(np.zeros(20, dtype=np.int64), orders)

    # a suite must have one column per task: the Python kernel returned
    # 0.44855 (against 0.59854) for the first 17 BFS positions, where C
    # raised
    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("shape", ["short", "long", "1d", "3d"])
    def test_bad_suite_shape_raises(self, shape, use_ckernel):
        g = random_sp_graph(20, np.random.default_rng(0))
        model = CostModel(g, paper_platform(), use_ckernel=use_ckernel)
        bfs = model.bfs_order_np
        orders = {
            "short": bfs[None, :17],
            "long": np.concatenate([bfs, bfs[:1]])[None],
            "1d": bfs,
            "3d": bfs[None, None],
        }[shape]
        with pytest.raises(ValueError, match="orders: expected rows of 20 task indices"):
            model.simulate_min(np.zeros(20, dtype=np.int64), orders)

    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    def test_valid_orders_still_accepted(self, use_ckernel):
        g = random_sp_graph(20, np.random.default_rng(0))
        model = CostModel(g, paper_platform(), use_ckernel=use_ckernel)
        rng = np.random.default_rng(1)
        mapping = rng.integers(0, 2, model.n)
        for order in (model.bfs_order, np.asarray(model.bfs_order),
                      random_topological_schedule(g, rng)):
            assert _same(model.simulate(mapping, order=order),
                         model._simulate_reference(mapping, order))


# ---------------------------------------------------------------------------
# mapper trajectories: delta scorer == full re-evaluation of every move
# ---------------------------------------------------------------------------
class _FullForced(DecompositionMapper):
    """Overriding ``_objective`` (even trivially) swaps the delta scorer
    for one full ``_objective`` call per move."""

    def _objective(self, evaluator, mapping):
        return DecompositionMapper._objective(self, evaluator, mapping)


class TestMapperTrajectories:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_first_fit_identical_to_full_evaluation(self, seed):
        self._check("series_parallel", "first_fit", seed)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_basic_identical_to_full_evaluation(self, seed):
        self._check("single_node", "basic", seed)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_gamma_identical_to_full_evaluation(self, seed):
        self._check("series_parallel", "gamma", seed, gamma=2.0)

    @staticmethod
    def _check(strategy, heuristic, seed, **kw):
        g = random_almost_sp_graph(22, 5, np.random.default_rng(seed))
        ev1 = make_evaluator(g, paper_platform(), seed=seed, n_random=3)
        ev2 = make_evaluator(g, paper_platform(), seed=seed, n_random=3)
        fast = DecompositionMapper(strategy, heuristic, **kw).map(
            ev1, rng=np.random.default_rng(seed)
        )
        full = _FullForced(strategy, heuristic, **kw).map(
            ev2, rng=np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(fast.mapping, full.mapping)
        assert fast.makespan == full.makespan
        assert fast.stats["iterations"] == full.stats["iterations"]


# ---------------------------------------------------------------------------
# bookkeeping: simulation / delta-evaluation counters
# ---------------------------------------------------------------------------
class TestCounters:
    def test_mapper_stats_expose_both_counters(self, platform):
        g = random_sp_graph(20, np.random.default_rng(3))
        ev = make_evaluator(g, platform, n_random=3)
        from repro.mappers import sp_first_fit

        res = sp_first_fit().map(ev, rng=np.random.default_rng(0))
        assert res.stats["n_delta_evaluations"] > 0
        # fractional accounting: equivalent evaluations weight each delta
        # evaluation by its suffix share, so full <= equivalent <= total
        assert res.stats["n_equivalent_evaluations"] <= res.n_evaluations
        assert res.n_evaluations == (
            ev.model.n_simulations + ev.model.n_delta_evaluations
        )

    def test_infeasible_delta_moves_not_counted(self):
        g = TaskGraph()
        g.add_task(0, area=100.0)
        g.add_task(1, area=1.0)
        g.add_edge(0, 1, data_mb=1.0)
        model = CostModel(g, tight_platform())
        delta = DeltaEvaluator(model)
        delta.reset([0, 0])
        before = model.n_delta_evaluations
        cand = delta.candidate([0])
        assert delta.evaluate_move(cand, 2) == INFEASIBLE  # area 100 > 6
        assert model.n_delta_evaluations == before

    def test_evaluator_equivalent_evaluations(self, platform):
        g = random_sp_graph(10, np.random.default_rng(1))
        ev = make_evaluator(g, platform, n_random=2)
        ev.construction_makespan(ev.cpu_mapping())
        assert ev.n_equivalent_evaluations == ev.model.n_simulations == 1
        assert ev.model.n_delta_evaluations == 0


def _delta_state(delta):
    """The base state a DeltaEvaluator records on the C kernel: start,
    finish, the slot snapshot before every position and the prefix
    makespans."""
    return (delta._start_np, delta._finish_np, delta._snap_np,
            delta._pre_ms_np)


def _same(a: float, b: float) -> bool:
    """Bit-identical comparison that treats INFEASIBLE/inf as equal."""
    if np.isinf(a) or np.isinf(b):
        return np.isinf(a) and np.isinf(b) and (a > 0) == (b > 0)
    return a == b
