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
:meth:`MappingEvaluator.construction_makespans`, which hands the
``(P, n)`` array of genomes to one :meth:`CostModel.simulate_many` call.
That call decides **genome dedup** (identical rows are simulated once
and share the exact value; a converged NSGA-II generation collapses to
a fraction of its nominal width): inside the native lane loop on the C
kernel, through a dict of reference walks keyed on the row bytes on the
pure-Python fallback.  Per-lane results are bit-identical to
:meth:`construction_makespan` of that row.

The evaluation counters are integer attributes of the
:class:`~repro.evaluation.costmodel.CostModel` (:attr:`MappingEvaluator.model`);
the evaluator only combines them into :attr:`~MappingEvaluator.n_evaluations`
and :attr:`~MappingEvaluator.n_equivalent_evaluations`.

The *relative improvement* metric follows Sec. IV-A: average positive
relative improvement over the pure-CPU mapping, deteriorations counted as
zero.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..graphs.taskgraph import TaskGraph
from ..platform.platform import Platform
from .costmodel import CostModel
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
    def n_equivalent_evaluations(self) -> float:
        """Evaluation effort in units of one full O(V+E) simulation.

        Full simulations and batched lanes count 1; the delta
        evaluations count their summed suffix lengths over ``n``.
        """
        model = self.model
        return (model.n_simulations + model.n_batched_evaluations
                + model.delta_steps / model.n)

    def cpu_mapping(self) -> np.ndarray:
        """The all-host default mapping (device 0 for every task)."""
        return self._cpu_mapping.copy()

    # ------------------------------------------------------------------
    def construction_makespan(self, mapping: Sequence[int]) -> float:
        """Fast single-schedule (BFS) makespan used during construction."""
        return self.model.simulate(mapping)

    def construction_makespans(self, mappings: np.ndarray) -> np.ndarray:
        """Construction makespans of every row of a ``(P, n)`` population.

        One :meth:`CostModel.simulate_many` call, which dedups identical
        genomes.  Per row, the result is bit-identical to
        :meth:`construction_makespan` (:data:`~repro.evaluation.costmodel.INFEASIBLE`
        for area-violating rows) — see the module docstring.
        """
        return self.model.simulate_many(mappings)

    def reported_makespan(self, mapping: Sequence[int]) -> float:
        """Minimum makespan over the full schedule suite (paper Sec. IV-A)."""
        return self.model.simulate_min(mapping, self.suite.orders)

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
