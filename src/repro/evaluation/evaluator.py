"""Mapping evaluator: the single interface all mappers share.

:class:`MappingEvaluator` bundles a graph, a platform, the precomputed
:class:`~repro.evaluation.costmodel.CostModel` and a
:class:`~repro.evaluation.schedules.ScheduleSuite`.  It distinguishes

- the **construction makespan** — breadth-first schedule only, the fast
  deterministic value the greedy decomposition mappers (and the GA fitness)
  re-evaluate thousands of times (Sec. III-A: "we fully re-evaluate the
  system for each subgraph replacement"), and
- the **reported makespan** — the minimum over the full schedule suite
  (BFS + 100 random, Sec. IV-A), used for the figures and tables.

Population-based mappers evaluate whole generations through
:meth:`MappingEvaluator.construction_makespans`: a ``(P, n)`` array of
genomes goes through **genome dedup** (identical rows are simulated once
and share the exact value) and one :meth:`CostModel.simulate_many` call.
With the C kernel loaded, dedup happens *inside* the native lane loop
(``repro_span_batch_dedup``: open-addressing on a 64-bit row hash,
duplicates verified by full row comparison — a collision costs a probe,
never a wrong value), so a population costs one ctypes call.  On the
pure-Python kernel each distinct row is one scratch span, and the dedup
in front of it is vectorized: rows are stable-sorted by a weighted
checksum and verified against their sorted neighbour, so sharing is
never speculative either way.  That dedup measures as a win (a
converged NSGA-II generation collapses to a fraction of its nominal
width; elitism and crossover-less pairs recreate parents), and it beats
``np.unique(axis=0)`` on the same populations.  Per-lane results are
bit-identical to :meth:`construction_makespan` of that row.

The *relative improvement* metric follows Sec. IV-A: average positive
relative improvement over the pure-CPU mapping, deteriorations counted as
zero.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..graphs.taskgraph import TaskGraph
from ..platform.platform import Platform
from .costmodel import INFEASIBLE, CostModel
from .schedules import ScheduleSuite

__all__ = ["MappingEvaluator"]


class MappingEvaluator:
    """Evaluate mappings of one graph on one platform."""

    def __init__(
        self,
        graph: TaskGraph,
        platform: Platform,
        *,
        suite: Optional[ScheduleSuite] = None,
        rng: Optional[np.random.Generator] = None,
        n_random_schedules: int = 100,
    ) -> None:
        self.graph = graph
        self.platform = platform
        self.model = CostModel(graph, platform)
        if suite is None:
            suite = ScheduleSuite.paper(
                graph,
                rng if rng is not None else np.random.default_rng(0),
                n_random=n_random_schedules,
            )
        self.suite = suite
        self._cpu_mapping = np.zeros(self.model.n, dtype=np.int64)
        self._cpu_construction: Optional[float] = None
        self._cpu_reported: Optional[float] = None
        # fixed random weights for the vectorized genome checksum used by
        # construction_makespans' dedup (int64 wraparound arithmetic)
        self._hash_w = np.random.default_rng(0x5EED).integers(
            np.iinfo(np.int64).min,
            np.iinfo(np.int64).max,
            size=self.model.n,
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return self.model.n

    @property
    def n_devices(self) -> int:
        return self.model.m

    @property
    def n_evaluations(self) -> int:
        """Model evaluations so far: full, delta and batched evaluations.

        Each incremental suffix re-evaluation answers one candidate-move
        query (the paper's "full re-evaluation per replacement"), so it
        counts as one evaluation here, as does each batched population
        lane; see :attr:`n_equivalent_evaluations` for the cost-weighted
        view.
        """
        return (
            self.model.n_simulations
            + self.model.n_delta_evaluations
            + self.model.n_batched_evaluations
        )

    @property
    def n_full_simulations(self) -> int:
        """Full O(V+E) scratch simulations only (scalar entry)."""
        return self.model.n_simulations

    @property
    def n_delta_evaluations(self) -> int:
        """Incremental suffix re-evaluations only."""
        return self.model.n_delta_evaluations

    @property
    def n_batched_evaluations(self) -> int:
        """Population lanes evaluated through the batch entry."""
        return self.model.n_batched_evaluations

    @property
    def n_batch_calls(self) -> int:
        """Batch-entry calls that simulated at least one lane."""
        return self.model.n_batch_calls

    @property
    def n_equivalent_evaluations(self) -> float:
        """Evaluation effort in units of one full O(V+E) simulation.

        Full simulations and batched lanes count 1; a delta evaluation
        counts its suffix fraction (``suffix length / n``).
        """
        return (
            self.model.n_simulations
            + self.model.delta_work
            + self.model.n_batched_evaluations
        )

    def cpu_mapping(self) -> np.ndarray:
        """The all-host default mapping (device 0 for every task)."""
        return self._cpu_mapping.copy()

    # ------------------------------------------------------------------
    def construction_makespan(self, mapping: Sequence[int]) -> float:
        """Fast single-schedule (BFS) makespan used during construction."""
        return self.model.simulate(mapping)

    def construction_makespans(self, mappings: np.ndarray) -> np.ndarray:
        """Construction makespans of every row of a ``(P, n)`` population.

        Identical genomes are deduplicated (simulated once, shared) and
        the distinct rows go through one :meth:`CostModel.simulate_many`
        batch call.  Per row, the result is bit-identical to
        :meth:`construction_makespan` (:data:`~repro.evaluation.costmodel.INFEASIBLE`
        for area-violating rows) — see the module docstring.
        """
        pop = np.ascontiguousarray(mappings, dtype=np.int64)
        if pop.ndim != 2:
            raise ValueError(f"expected a (P, n) population, got {pop.shape}")
        P = pop.shape[0]
        if self.model._ck is not None:  # noqa: SLF001 - package-internal
            # the C kernel dedups in-kernel (repro_span_batch_dedup):
            # one native call per population, no Python grouping work
            return self.model.simulate_many(pop, dedup=True)
        if P <= 1:
            return self.model.simulate_many(pop)
        # vectorized dedup: stable-sort rows by a 64-bit weighted checksum,
        # then open a new lane wherever the checksum changes OR the full
        # row differs from its sorted neighbour.  Equal rows hash equally,
        # so they are adjacent (stable within a run) and share one lane;
        # an (astronomically unlikely) checksum collision between distinct
        # rows fails the exact row comparison and gets its own lane —
        # collisions cost a lane, never a wrong value.
        h = pop @ self._hash_w
        sort_idx = np.argsort(h, kind="stable")
        hs = h[sort_idx]
        new_lane = np.empty(P, dtype=bool)
        new_lane[0] = True
        np.not_equal(hs[1:], hs[:-1], out=new_lane[1:])
        if new_lane.all():  # all checksums distinct => all rows distinct
            return self.model.simulate_many(pop)
        rows = pop[sort_idx]
        new_lane[1:] |= (rows[1:] != rows[:-1]).any(axis=1)
        lane_id = np.cumsum(new_lane) - 1
        ms = self.model.simulate_many(np.ascontiguousarray(rows[new_lane]))
        out = np.empty(P)
        out[sort_idx] = ms[lane_id]
        return out

    def reported_makespan(self, mapping: Sequence[int]) -> float:
        """Minimum makespan over the full schedule suite (paper Sec. IV-A)."""
        if not self.model.is_feasible(mapping):
            return INFEASIBLE
        best = INFEASIBLE
        for order in self.suite.orders:
            ms = self.model.simulate(mapping, order, check_feasibility=False)
            if ms < best:
                best = ms
        return best

    # ------------------------------------------------------------------
    @property
    def cpu_construction_makespan(self) -> float:
        if self._cpu_construction is None:
            self._cpu_construction = self.construction_makespan(self._cpu_mapping)
        return self._cpu_construction

    @property
    def cpu_reported_makespan(self) -> float:
        if self._cpu_reported is None:
            self._cpu_reported = self.reported_makespan(self._cpu_mapping)
        return self._cpu_reported

    def relative_improvement(self, mapping: Sequence[int]) -> float:
        """Positive relative improvement vs the pure-CPU mapping.

        ``max(0, (cpu - mapped) / cpu)`` on reported makespans;
        deteriorations count as zero (Sec. IV-A: one can always default to
        the pure CPU mapping).
        """
        base = self.cpu_reported_makespan
        ms = self.reported_makespan(mapping)
        if not np.isfinite(ms) or ms >= base:
            return 0.0
        return float((base - ms) / base)

    def is_feasible(self, mapping: Sequence[int]) -> bool:
        return self.model.is_feasible(mapping)
