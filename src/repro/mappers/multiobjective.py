"""Multi-objective mapping: makespan + energy (paper Sec. V extension).

The paper frames its single-objective study as transferable to
multi-objective optimization ("the basic algorithmic ideas presented in this
work can easily be transferred").  This module carries that out for the
(makespan, energy) pair defined in :mod:`repro.evaluation.energy`:

- :class:`ParetoNsgaIIMapper` — the *real* NSGA-II [14]: fast non-dominated
  sorting plus crowding-distance survival over both objectives.  Its
  :meth:`~repro.mappers.base.Mapper.map` result is the knee-point solution;
  the full Pareto front of the final population is kept on
  ``mapper.last_front_`` as ``(mapping, makespan, energy)`` triples.
  Each generation's makespans come from one population call
  (:meth:`~repro.evaluation.evaluator.MappingEvaluator.construction_makespans`,
  bit-identical to scalar evaluation on either kernel) and each distinct
  genome's energy is computed once per run;
- :class:`EnergyAwareDecompositionMapper` — the decomposition principle with
  a scalarized objective ``alpha * makespan/ms0 + (1-alpha) * energy/e0``
  (baselines = the all-CPU mapping), demonstrating that the greedy
  subgraph-move framework is objective-agnostic: only the full-evaluation
  cost function changes (Sec. III-A).  A custom objective has no suffix
  form, so the greedy loops score its moves with one full ``_objective``
  call each (the ``_ObjectiveMoves`` scorer of
  :mod:`repro.mappers.decomposition`).

``examples/energy_tradeoff.py`` sweeps ``alpha`` and plots both mappers'
fronts side by side.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..evaluation.energy import EnergyModel
from ..evaluation.evaluator import MappingEvaluator
from .base import Mapper
from .decomposition import DecompositionMapper
from .genetic import initial_population, vary

__all__ = [
    "dominates",
    "domination_matrix",
    "nondominated_sort",
    "crowding_distance",
    "ParetoNsgaIIMapper",
    "EnergyAwareDecompositionMapper",
]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff ``a`` Pareto-dominates ``b`` (all <=, at least one <).

    NaN objectives count as ``+inf`` (worst): they arise on
    infeasible-energy lanes — an infeasible makespan is ``inf`` and a
    zero-idle platform multiplies it by ``0.0`` — and without the guard a
    NaN point would compare incomparable to everything and pollute front
    zero.  With it, a NaN point never dominates and is dominated by any
    point that is strictly better somewhere and NaN-free there.
    """
    strictly_better = False
    for x, y in zip(a, b):
        if x != x:
            x = np.inf
        if y != y:
            y = np.inf
        if x > y:
            return False
        if x < y:
            strictly_better = True
    return strictly_better


def domination_matrix(objectives: np.ndarray) -> np.ndarray:
    """Boolean ``D[i, j]`` = point ``i`` Pareto-dominates point ``j``.

    One numpy broadcast over all pairs, replacing the O(n^2) Python
    pairwise :func:`dominates` loop; NaN objectives are mapped to
    ``+inf`` first (same guard as :func:`dominates`, with which this
    agrees decision-for-decision).
    """
    objs = np.asarray(objectives, dtype=float)
    objs = np.where(np.isnan(objs), np.inf, objs)
    if objs.ndim == 2 and objs.shape[1] == 2:
        # two-objective hot path (makespan, energy): 2-D broadcasts only,
        # no (n, n, m) temporaries or axis reductions
        x = objs[:, 0]
        y = objs[:, 1]
        le = (x[:, None] <= x[None, :]) & (y[:, None] <= y[None, :])
        lt = (x[:, None] < x[None, :]) | (y[:, None] < y[None, :])
        return le & lt
    a = objs[:, None, :]
    b = objs[None, :, :]
    return (a <= b).all(axis=-1) & (a < b).any(axis=-1)


def nondominated_sort(objectives: np.ndarray) -> List[List[int]]:
    """Fast non-dominated sorting (Deb et al. [14]); returns index fronts.

    Domination comes from one :func:`domination_matrix` broadcast; the
    front-peeling loop then visits each dominated edge once.  Front
    membership *and internal ordering* are identical to the classic
    pairwise implementation (each point's dominated list is iterated
    smaller-indices-first, the pairwise loop's append order), so
    crowding-distance tie-breaks — and hence seeded NSGA-II trajectories
    — are unchanged.
    """
    n = len(objectives)
    if n == 0:
        return []
    dom = domination_matrix(objectives)
    # plain Python ints for the peel: list indexing beats np fancy/scalar
    # indexing by ~3x over the O(sum of dominated-list lengths) decrements
    domination_count: List[int] = dom.sum(axis=0).tolist()
    fronts: List[List[int]] = []
    current: List[int] = [i for i in range(n) if domination_count[i] == 0]
    while current:
        fronts.append(current)
        nxt: List[int] = []
        for i in current:
            # ascending == the pairwise loop's append order (smaller
            # indices first, then larger), so front ordering — and hence
            # crowding tie-breaks and seeded trajectories — is unchanged
            for j in np.flatnonzero(dom[i]).tolist():
                c = domination_count[j] - 1
                domination_count[j] = c
                if c == 0:
                    nxt.append(j)
        current = nxt
    return fronts


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """Crowding distance of each point within one front.

    Vectorized per objective (one stable argsort plus one sliced
    subtraction instead of a Python loop over interior points); float
    operations match the classic per-point loop exactly.
    """
    n, m = objectives.shape
    dist = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for k in range(m):
        order = np.argsort(objectives[:, k], kind="stable")
        vals = objectives[order, k]
        lo, hi = vals[0], vals[-1]
        dist[order[0]] = dist[order[-1]] = np.inf
        span = hi - lo
        if span <= 0:
            continue
        dist[order[1:-1]] += (vals[2:] - vals[:-2]) / span
    return dist


class ParetoNsgaIIMapper(Mapper):
    """True two-objective NSGA-II over (makespan, energy)."""

    name = "ParetoNSGAII"

    def __init__(
        self,
        *,
        generations: int = 200,
        population_size: int = 100,
        crossover_rate: float = 0.9,
        mutation_rate: Optional[float] = None,
    ) -> None:
        if generations < 1 or population_size < 4:
            raise ValueError("need >= 1 generation and >= 4 individuals")
        self.generations = generations
        self.population_size = population_size
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        #: Pareto front of the final population: (mapping, makespan, energy)
        self.last_front_: List[Tuple[np.ndarray, float, float]] = []
        #: (best makespan, best energy) of the population per generation
        self.history_: List[Tuple[float, float]] = []
        self._energy_memo: Dict[bytes, float] = {}
        super().__init__()

    # -- helpers ----------------------------------------------------------
    def _evaluate(
        self, pop: np.ndarray, evaluator: MappingEvaluator, energy: EnergyModel
    ) -> np.ndarray:
        objs = np.empty((len(pop), 2))
        # makespan lanes in one population call; energy scalar per
        # *distinct* genome, memoized across the whole run (elitism and
        # crossover recreate genomes constantly; the memo shares the
        # exact value, never an approximation)
        ms = evaluator.construction_makespans(pop)
        objs[:, 0] = ms
        memo = self._energy_memo
        rows = pop.tolist()
        for r in range(len(pop)):
            if np.isfinite(ms[r]):
                key = pop[r].tobytes()
                e = memo.get(key)
                if e is None:
                    memo[key] = e = energy.energy(
                        rows[r], makespan=ms[r], check_feasibility=False
                    )
                objs[r, 1] = e
            else:
                objs[r, 1] = np.inf
        return objs

    @staticmethod
    def _survival(objs: np.ndarray, keep: int) -> np.ndarray:
        """NSGA-II environmental selection: fronts, then crowding."""
        fronts = nondominated_sort(objs)
        chosen: List[int] = []
        for front in fronts:
            if len(chosen) + len(front) <= keep:
                chosen.extend(front)
            else:
                dist = crowding_distance(objs[front])
                order = np.argsort(-dist, kind="stable")
                for pos in order[: keep - len(chosen)]:
                    chosen.append(front[pos])
                break
        return np.array(chosen, dtype=int)

    # -- main loop ----------------------------------------------------------
    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        pop_size = self.population_size
        energy = EnergyModel(evaluator.model)
        self._energy_memo: Dict[bytes, float] = {}

        pop = initial_population(evaluator, rng, pop_size)
        objs = self._evaluate(pop, evaluator, energy)
        history: List[Tuple[float, float]] = []

        for _ in range(self.generations):
            # binary tournament on (front rank approximated by domination).
            # Pairwise domination is precomputed vectorized (same NaN->inf
            # guard as `dominates`); rng.random() is drawn exactly where
            # the classic short-circuit expression would draw it — only
            # for mutually non-dominating pairs — so the stream matches
            # the pairwise loop draw for draw.
            a = rng.integers(0, pop_size, size=pop_size)
            b = rng.integers(0, pop_size, size=pop_size)
            oa = np.where(np.isnan(objs[a]), np.inf, objs[a])
            ob = np.where(np.isnan(objs[b]), np.inf, objs[b])
            a_dom = ((oa <= ob).all(1) & (oa < ob).any(1)).tolist()
            b_dom = ((ob <= oa).all(1) & (ob < oa).any(1)).tolist()
            pick_a = np.empty(pop_size, dtype=bool)
            for k in range(pop_size):
                if a_dom[k]:
                    pick_a[k] = True
                elif b_dom[k]:
                    pick_a[k] = False
                else:
                    pick_a[k] = rng.random() < 0.5
            parents = np.where(pick_a, a, b)
            children = pop[parents]
            vary(children, evaluator, rng, self.crossover_rate,
                 self.mutation_rate)
            child_objs = self._evaluate(children, evaluator, energy)

            combined = np.vstack([pop, children])
            combined_objs = np.vstack([objs, child_objs])
            keep = self._survival(combined_objs, pop_size)
            pop = combined[keep]
            objs = combined_objs[keep]
            history.append(
                (float(objs[:, 0].min()), float(objs[:, 1].min()))
            )

        self.history_ = history
        self._energy_memo = {}
        # final front and knee selection
        finite = np.isfinite(objs).all(axis=1)
        pop, objs = pop[finite], objs[finite]
        front_idx = nondominated_sort(objs)[0]
        seen = set()
        self.last_front_ = []
        for i in sorted(front_idx, key=lambda i: objs[i, 0]):
            key = (round(float(objs[i, 0]), 12), round(float(objs[i, 1]), 9))
            if key not in seen:
                seen.add(key)
                self.last_front_.append(
                    (pop[i].copy(), float(objs[i, 0]), float(objs[i, 1]))
                )
        knee = self._knee(objs[front_idx])
        best = pop[front_idx[knee]].copy()
        return best, {
            "generations": float(self.generations),
            "front_size": float(len(front_idx)),
            "best_makespan": float(objs[front_idx, 0].min()),
            "best_energy": float(objs[front_idx, 1].min()),
        }

    @staticmethod
    def _knee(front: np.ndarray) -> int:
        """Point closest to the (normalized) ideal corner."""
        lo = front.min(axis=0)
        hi = front.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        normalized = (front - lo) / span
        return int(np.argmin(np.linalg.norm(normalized, axis=1)))


class EnergyAwareDecompositionMapper(DecompositionMapper):
    """Decomposition mapping with a scalarized makespan/energy objective.

    ``alpha = 1`` reduces to the plain (makespan-only) decomposition mapper;
    ``alpha = 0`` minimizes energy alone.  Baselines for normalization are
    the all-CPU mapping's makespan and energy.
    """

    def __init__(
        self,
        alpha: float = 0.5,
        strategy: str = "series_parallel",
        heuristic: str = "first_fit",
        **kwargs,
    ) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.alpha = alpha
        self._energy: Optional[EnergyModel] = None
        self._ms0 = 1.0
        self._e0 = 1.0
        super().__init__(
            strategy, heuristic, name=kwargs.pop("name", f"EnergyAware{alpha:g}"),
            **kwargs,
        )

    def _objective(self, evaluator: MappingEvaluator, mapping) -> float:
        ms = evaluator.construction_makespan(mapping)
        if not np.isfinite(ms):
            return ms
        e = self._energy.energy(mapping, makespan=ms, check_feasibility=False)
        return self.alpha * ms / self._ms0 + (1.0 - self.alpha) * e / self._e0

    def _run(self, evaluator: MappingEvaluator, rng: np.random.Generator):
        self._energy = EnergyModel(evaluator.model)
        cpu = evaluator.cpu_mapping()
        self._ms0 = max(evaluator.cpu_construction_makespan, 1e-12)
        self._e0 = max(
            self._energy.energy(cpu, makespan=self._ms0), 1e-12
        )
        return super()._run(evaluator, rng)
