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

Each heuristic is one round loop (iteration cap, scan order,
``apply_move``) over a *move scorer*, whose ``scan`` runs one pass over
the move table: no-op skip, scoring, and the basic or gamma selection
rule (:func:`repro.evaluation.delta.scan_moves` states the contract).
The default objective (the construction makespan) is scored by
:class:`~repro.evaluation.delta.DeltaEvaluator`, which re-simulates only
the suffix from a move's first affected schedule position and returns
the same float as a full evaluation; on the C kernel each pass is one
native call.  A subclass that overrides ``_objective`` (e.g.
:class:`repro.mappers.multiobjective.EnergyAwareDecompositionMapper`) is
scored by :class:`_ObjectiveMoves`, one full ``_objective`` call per
move.  A trivial override therefore forces full re-evaluation, which is
how ``tests/test_kernel_delta.py`` checks that both scorers take the
same trajectory.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from ..evaluation.delta import DeltaEvaluator, MoveTable, scan_moves
from ..evaluation.evaluator import MappingEvaluator
from ..evaluation.kernel import INF
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
        mapping = evaluator.cpu_mapping()
        cap = max(1, int(np.ceil(self.iteration_cap_factor * evaluator.n_tasks)))

        with _trace.span("mapper.construct", "mapper"):
            scorer = self._scorer(evaluator)
            moves = scorer.move_table(
                [scorer.candidate(sub) for sub in subgraphs],
                evaluator.n_devices,
            )
        with _trace.span("mapper.improve", "mapper"):
            run = self._run_basic if self.heuristic == "basic" else self._run_gamma
            mapping, current, iterations = run(scorer, mapping, moves, cap)
        stats = {
            "iterations": float(iterations),
            "n_candidates": float(len(subgraphs)),
            "n_moves": float(len(moves.pairs)),
        }
        return mapping, stats

    def _scorer(
        self, evaluator: MappingEvaluator
    ) -> DeltaEvaluator | _ObjectiveMoves:
        """The move scorer: the delta evaluator for the default objective
        (the only one with a suffix form), else full ``_objective`` calls."""
        if type(self)._objective is DecompositionMapper._objective:
            return DeltaEvaluator(evaluator.model)
        return _ObjectiveMoves(self, evaluator)

    # ------------------------------------------------------------------
    def _run_basic(
        self,
        scorer: DeltaEvaluator | _ObjectiveMoves,
        mapping: np.ndarray,
        moves: MoveTable,
        cap: int,
    ) -> Tuple[np.ndarray, float, int]:
        """Basic heuristic: every iteration scores every move.

        The tie-break is the first strict improvement in move order.
        Each move is scored with a bound at the best value so far; the
        delta evaluator aborts a suffix once its running makespan
        reaches it.  The abort only short-circuits moves that could not
        have been selected anyway (the running makespan is a monotone
        lower bound), so the scan result is exact.
        """
        iterations = 0
        current = scorer.reset(mapping)
        while iterations < cap:
            best_ms, best_idx = scorer.scan(moves, current)
            if best_idx < 0:
                break
            cand, d = moves.pairs[best_idx]
            scorer.apply_move(cand.members, d)
            current = best_ms
            iterations += 1
        return scorer.mapping, current, iterations

    # ------------------------------------------------------------------
    def _run_gamma(
        self,
        scorer: DeltaEvaluator | _ObjectiveMoves,
        mapping: np.ndarray,
        moves: MoveTable,
        cap: int,
    ) -> Tuple[np.ndarray, float, int]:
        """Gamma/FirstFit heuristic.

        Expectations steer later scan orders, so every scored move's
        gain is exact (no bound).  A no-op move keeps an expectation of
        zero.
        """
        expected = np.zeros(len(moves.pairs))  # expected improvement per move
        current = scorer.reset(mapping)
        # First pass (Sec. III-D: expectations are assigned "after the first
        # iteration of the algorithm"): score every move once.
        best_gain, best_idx = scorer.scan(moves, current, expected=expected)
        iterations = 0
        while best_idx >= 0:
            cand, d = moves.pairs[best_idx]
            scorer.apply_move(cand.members, d)
            current -= best_gain
            iterations += 1
            if iterations >= cap:
                break
            # One round: scan moves in descending expected improvement
            # (the paper's priority queue); once an actual improvement b is
            # found, only look ahead while expected > b / gamma.  A round
            # that finds nothing has recomputed *every* move under the final
            # mapping (the paper's exact-termination pass).
            order = np.argsort(-expected, kind="stable")
            best_gain, best_idx = scorer.scan(
                moves, current, expected=expected, order=order, gamma=self.gamma
            )
        return scorer.mapping, current, iterations


class _Subgraph(NamedTuple):
    """A candidate subgraph as :class:`_ObjectiveMoves` prepares it."""

    members: List[int]     #: task indices


class _ObjectiveMoves:
    """Move scorer for an overridden ``_objective``.

    Offers the part of :class:`~repro.evaluation.delta.DeltaEvaluator`'s
    interface that the greedy loops use, and scores every move with one
    full ``mapper._objective`` call on the moved mapping; its ``scan``
    is the reference :func:`~repro.evaluation.delta.scan_moves`.
    ``bound`` is ignored: an exact value compares the same way.
    """

    scan = scan_moves

    def __init__(self, mapper: DecompositionMapper,
                 evaluator: MappingEvaluator) -> None:
        self._mapper = mapper
        self._evaluator = evaluator

    def candidate(self, sub: np.ndarray) -> _Subgraph:
        return _Subgraph(sub.tolist())

    def move_table(self, cands: List[_Subgraph], n_devices: int) -> MoveTable:
        return MoveTable([(cand, d) for cand in cands for d in range(n_devices)])

    def reset(self, mapping: np.ndarray) -> float:
        self._map = np.array(mapping, dtype=np.int64)
        self.base_list: List[int] = self._map.tolist()
        return self._mapper._objective(self._evaluator, self._map)

    def evaluate_move(self, cand: _Subgraph, device: int, *,
                      bound: float = INF) -> float:
        trial = self._map.copy()
        trial[cand.members] = device
        return self._mapper._objective(self._evaluator, trial)

    def apply_move(self, members: List[int], device: int) -> None:
        self._map[members] = device
        for t in members:
            self.base_list[t] = device

    @property
    def mapping(self) -> np.ndarray:
        return self._map.copy()


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
