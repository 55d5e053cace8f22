"""Decomposition-based task mapping (paper Sec. III — the core contribution).

The general principle (Sec. III-A):

1. start from the all-CPU default mapping;
2. among all (candidate subgraph, device) *moves*, find the one whose
   application most reduces the **fully re-evaluated** model-based makespan;
3. apply it; repeat until no move improves the makespan.

Because every candidate is evaluated with the full cost model, every applied
move is a guaranteed improvement and the algorithm terminates (the makespan
strictly decreases and the evaluation is deterministic).  An iteration cap of
``n`` guards against degenerate inputs (Sec. III-A).

Candidate subgraph sets (``O(n)`` by design):

- ``single_node`` (Sec. III-B): every task alone;
- ``series_parallel`` (Sec. III-C): single nodes plus the operations of the
  series-parallel decomposition forest (Algorithm 1).

Heuristics (Sec. III-D):

- ``basic``: every iteration evaluates every move;
- ``gamma`` / ``first_fit``: after the first full pass each move keeps an
  *expected improvement* in a priority queue.  A round pops moves in
  descending expected order, re-evaluates them, and stops looking ahead once
  the best actual improvement ``b`` satisfies ``expected <= b / gamma`` —
  stale-but-promising moves are recomputed lazily instead of every round.
  ``first_fit`` is the ``gamma = 1`` special case: apply the first actual
  improvement unless some move still *expects* strictly more.  When a round
  finds no improvement, every move has just been recomputed under the final
  mapping (the paper's "last iteration recomputes every possible mapping"),
  so termination is exact, not heuristic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..evaluation.delta import Candidate, DeltaEvaluator
from ..evaluation.evaluator import MappingEvaluator
from ..obs import trace as _trace
from ..sp.subgraphs import series_parallel_candidates, single_node_candidates
from .base import Mapper

__all__ = [
    "DecompositionMapper",
    "single_node",
    "series_parallel",
    "sn_first_fit",
    "sp_first_fit",
]

STRATEGIES = ("single_node", "series_parallel")
HEURISTICS = ("basic", "gamma", "first_fit")


class DecompositionMapper(Mapper):
    """Greedy decomposition-based mapper (see module docstring).

    Parameters
    ----------
    strategy:
        Candidate subgraph set: ``"single_node"`` or ``"series_parallel"``.
    heuristic:
        ``"basic"``, ``"gamma"`` or ``"first_fit"``.
    gamma:
        Look-ahead threshold for the ``"gamma"`` heuristic (>= 1).
    cut_strategy:
        Cut choice for Algorithm 1 (series-parallel strategy only).
    iteration_cap_factor:
        The iteration cap is ``ceil(factor * n_tasks)``.
    """

    def __init__(
        self,
        strategy: str = "series_parallel",
        heuristic: str = "basic",
        *,
        gamma: float = 1.0,
        cut_strategy: str = "random",
        iteration_cap_factor: float = 1.0,
        name: str = "",
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        if heuristic not in HEURISTICS:
            raise ValueError(f"unknown heuristic {heuristic!r}")
        if gamma < 1.0:
            raise ValueError("gamma must be >= 1")
        self.strategy = strategy
        self.heuristic = heuristic
        self.gamma = 1.0 if heuristic == "first_fit" else gamma
        self.cut_strategy = cut_strategy
        self.iteration_cap_factor = iteration_cap_factor
        self.name = name or self._default_name()
        super().__init__()

    def _default_name(self) -> str:
        base = "SeriesParallel" if self.strategy == "series_parallel" else "SingleNode"
        if self.heuristic == "first_fit":
            return ("SP" if base == "SeriesParallel" else "SN") + "FirstFit"
        if self.heuristic == "gamma":
            return base + f"Gamma{self.gamma:g}"
        return base

    # ------------------------------------------------------------------
    def candidate_index_sets(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> List[np.ndarray]:
        """Candidate subgraphs as arrays of task indices."""
        g = evaluator.graph
        if self.strategy == "single_node":
            sets = single_node_candidates(g)
        else:
            sets = series_parallel_candidates(
                g, rng=rng, cut_strategy=self.cut_strategy
            )
        index = evaluator.model.index.__getitem__
        return [
            np.fromiter(map(index, s), dtype=np.int64, count=len(s))
            for s in sets
        ]

    # ------------------------------------------------------------------
    def _objective(self, evaluator: MappingEvaluator, mapping) -> float:
        """Cost minimized by the greedy loop.

        Defaults to the construction (BFS-schedule) makespan; subclasses may
        optimize any other full-evaluation objective (e.g. the weighted
        makespan/energy sum of
        :class:`repro.mappers.multiobjective.EnergyAwareDecompositionMapper`)
        — the principle only requires a deterministic, fully re-evaluated
        cost (Sec. III-A).
        """
        return evaluator.construction_makespan(mapping)

    # ------------------------------------------------------------------
    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        with _trace.span("mapper.decompose", "mapper"):
            subgraphs = self.candidate_index_sets(evaluator, rng)
        n_devices = evaluator.n_devices
        mapping = evaluator.cpu_mapping()
        cap = max(1, int(np.ceil(self.iteration_cap_factor * evaluator.n_tasks)))

        # The incremental (delta) path evaluates moves by re-simulating only
        # the suffix from each move's first affected schedule position —
        # bit-identical results, O(affected suffix) per move.  It applies
        # whenever the objective is the plain construction makespan (the
        # default); subclasses with a custom ``_objective`` (e.g. the
        # energy-aware mapper) fall back to full trial evaluations.
        model = getattr(evaluator, "model", None)
        if type(self)._objective is DecompositionMapper._objective and model is not None:
            with _trace.span("mapper.construct", "mapper"):
                delta = DeltaEvaluator(model)
                prepared = [delta.candidate(sub) for sub in subgraphs]
                dmoves = [
                    (cand, d) for cand in prepared for d in range(n_devices)
                ]
            with _trace.span("mapper.improve", "mapper"):
                if self.heuristic == "basic":
                    mapping, current, iterations = self._run_basic_delta(
                        delta, mapping, dmoves, cap
                    )
                else:
                    mapping, current, iterations = self._run_gamma_delta(
                        delta, mapping, dmoves, cap
                    )
            n_moves = len(dmoves)
        else:
            with _trace.span("mapper.construct", "mapper"):
                moves: List[Tuple[np.ndarray, int]] = [
                    (sub, d) for sub in subgraphs for d in range(n_devices)
                ]
                current = self._objective(evaluator, mapping)
            with _trace.span("mapper.improve", "mapper"):
                if self.heuristic == "basic":
                    mapping, current, iterations = self._run_basic(
                        evaluator, mapping, current, moves, cap
                    )
                else:
                    mapping, current, iterations = self._run_gamma(
                        evaluator, mapping, current, moves, cap
                    )
            n_moves = len(moves)
        stats = {
            "iterations": float(iterations),
            "n_candidates": float(len(subgraphs)),
            "n_moves": float(n_moves),
        }
        return mapping, stats

    # ------------------------------------------------------------------
    def _run_basic_delta(
        self,
        delta: DeltaEvaluator,
        mapping: np.ndarray,
        moves: Sequence[Tuple[Candidate, int]],
        cap: int,
    ) -> Tuple[np.ndarray, float, int]:
        """Basic heuristic on the incremental evaluator.

        Move selection is identical to :meth:`_run_basic`: the evaluator
        returns bit-identical makespans and move order is preserved (the
        tie-break is the first strict improvement in move order).  Each
        move is one suffix evaluation with a bound-abort at the best
        makespan so far — the abort only short-circuits moves that could
        not have been selected anyway (the running makespan is a
        monotone lower bound), so the scan result is exact.
        """
        iterations = 0
        eps = 1e-12
        current = delta.reset(mapping)
        mp = delta.base_list
        evaluate = delta.evaluate_move
        while iterations < cap:
            best_ms = current
            best_move: Optional[Tuple[Candidate, int]] = None
            for cand, d in moves:
                for t in cand.members:
                    if mp[t] != d:
                        break
                else:  # no-op move: already mapped there
                    continue
                ms = evaluate(cand, d, bound=best_ms - eps)
                if ms < best_ms - eps:
                    best_ms = ms
                    best_move = (cand, d)
            if best_move is None:
                break
            delta.apply_move(best_move[0].members, best_move[1])
            current = best_ms
            iterations += 1
        return delta.mapping, current, iterations

    # ------------------------------------------------------------------
    def _run_gamma_delta(
        self,
        delta: DeltaEvaluator,
        mapping: np.ndarray,
        moves: Sequence[Tuple[Candidate, int]],
        cap: int,
    ) -> Tuple[np.ndarray, float, int]:
        """Gamma/FirstFit heuristic on the incremental evaluator.

        Mirrors :meth:`_run_gamma` exactly.  Expectations steer later
        scan orders, so every evaluated move's gain is exact (no
        bound-abort): each move is one plain suffix evaluation.
        """
        eps = 1e-12
        n_moves = len(moves)
        expected = [0.0] * n_moves
        current = delta.reset(mapping)
        mp = delta.base_list
        evaluate = delta.evaluate_move

        # First pass (Sec. III-D): evaluate every move once.
        best_gain = 0.0
        best_idx = -1
        for k, (cand, d) in enumerate(moves):
            for t in cand.members:
                if mp[t] != d:
                    break
            else:  # no-op move: already mapped there
                continue
            gain = current - evaluate(cand, d)
            expected[k] = gain
            if gain > best_gain + eps:
                best_gain = gain
                best_idx = k
        iterations = 0
        if best_idx < 0:
            return delta.mapping, current, iterations
        cand, d = moves[best_idx]
        delta.apply_move(cand.members, d)
        current -= best_gain
        iterations += 1

        gamma = self.gamma
        while iterations < cap:
            order = np.argsort(
                -np.asarray(expected), kind="stable"
            ).tolist()
            best_gain = 0.0
            best_idx = -1
            for k in order:
                if best_gain > eps and expected[k] <= best_gain / gamma + eps:
                    break
                cand, d = moves[k]
                for t in cand.members:
                    if mp[t] != d:
                        break
                else:
                    expected[k] = 0.0
                    continue
                gain = current - evaluate(cand, d)
                expected[k] = gain
                if gain > best_gain + eps:
                    best_gain = gain
                    best_idx = k
            if best_idx < 0:
                break
            cand, d = moves[best_idx]
            delta.apply_move(cand.members, d)
            current -= best_gain
            iterations += 1
        return delta.mapping, current, iterations

    # ------------------------------------------------------------------
    def _run_basic(
        self,
        evaluator: MappingEvaluator,
        mapping: np.ndarray,
        current: float,
        moves: Sequence[Tuple[np.ndarray, int]],
        cap: int,
    ) -> Tuple[np.ndarray, float, int]:
        """Scratch loop: every trial move is a full :meth:`_objective` call.

        It stays as the path for custom objectives (the delta evaluator
        only knows the construction makespan) and as the reference side
        of the mapper speed gate in ``benchmarks/test_micro.py``.
        """
        iterations = 0
        eps = 1e-12
        while iterations < cap:
            best_ms = current
            best_move: Optional[Tuple[np.ndarray, int]] = None
            for sub, d in moves:
                if np.all(mapping[sub] == d):
                    continue
                trial = mapping.copy()
                trial[sub] = d
                ms = self._objective(evaluator, trial)
                if ms < best_ms - eps:
                    best_ms = ms
                    best_move = (sub, d)
            if best_move is None:
                break
            mapping[best_move[0]] = best_move[1]
            current = best_ms
            iterations += 1
        return mapping, current, iterations

    # ------------------------------------------------------------------
    def _run_gamma(
        self,
        evaluator: MappingEvaluator,
        mapping: np.ndarray,
        current: float,
        moves: Sequence[Tuple[np.ndarray, int]],
        cap: int,
    ) -> Tuple[np.ndarray, float, int]:
        """Scratch twin of :meth:`_run_gamma_delta`, kept for the same
        reasons as :meth:`_run_basic`."""
        eps = 1e-12
        n_moves = len(moves)
        expected = [0.0] * n_moves  # expected improvement per move

        def evaluate(k: int) -> float:
            sub, d = moves[k]
            if np.all(mapping[sub] == d):
                return 0.0
            trial = mapping.copy()
            trial[sub] = d
            return current - self._objective(evaluator, trial)

        # First pass (Sec. III-D: expectations are assigned "after the first
        # iteration of the algorithm"): evaluate every move once.
        best_gain = 0.0
        best_idx = -1
        for k in range(n_moves):
            gain = evaluate(k)
            expected[k] = gain
            if gain > best_gain + eps:
                best_gain = gain
                best_idx = k
        iterations = 0
        if best_idx < 0:
            return mapping, current, iterations
        sub, d = moves[best_idx]
        mapping[sub] = d
        current -= best_gain
        iterations += 1

        while iterations < cap:
            # One round: scan moves in descending expected improvement
            # (the paper's priority queue); once an actual improvement b is
            # found, only look ahead while expected > b / gamma.  A round
            # that finds nothing has recomputed *every* move under the final
            # mapping (the paper's exact-termination pass).
            order = sorted(range(n_moves), key=lambda k: -expected[k])
            best_gain = 0.0
            best_idx = -1
            for k in order:
                if best_gain > eps and expected[k] <= best_gain / self.gamma + eps:
                    break
                gain = evaluate(k)
                expected[k] = gain
                if gain > best_gain + eps:
                    best_gain = gain
                    best_idx = k
            if best_idx < 0:
                break
            sub, d = moves[best_idx]
            mapping[sub] = d
            current -= best_gain
            iterations += 1
        return mapping, current, iterations


def single_node(**kwargs) -> DecompositionMapper:
    """The ``SingleNode`` mapper of the paper's evaluation."""
    return DecompositionMapper("single_node", "basic", **kwargs)


def series_parallel(**kwargs) -> DecompositionMapper:
    """The ``SeriesParallel`` mapper of the paper's evaluation."""
    return DecompositionMapper("series_parallel", "basic", **kwargs)


def sn_first_fit(**kwargs) -> DecompositionMapper:
    """The ``SNFirstFit`` mapper (single node + FirstFit heuristic)."""
    return DecompositionMapper("single_node", "first_fit", **kwargs)


def sp_first_fit(**kwargs) -> DecompositionMapper:
    """The ``SPFirstFit`` mapper (series-parallel + FirstFit heuristic)."""
    return DecompositionMapper("series_parallel", "first_fit", **kwargs)
