"""Mapper interface.

A *mapping* assigns every task (by index into ``graph.tasks()``) a device
(by index into ``platform.devices``), represented as an ``int64`` numpy
array.  Every mapping algorithm in this package derives from
:class:`Mapper` and returns a :class:`MappingResult` carrying the mapping
plus construction statistics (evaluation counts, iterations) used by the
experiment harness.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..evaluation.evaluator import MappingEvaluator
from ..obs import metrics as _metrics
from ..obs import trace as _trace

__all__ = ["Mapper", "MappingResult"]


@dataclass
class MappingResult:
    """Outcome of one mapping run."""

    mapping: np.ndarray
    #: construction (BFS-schedule) makespan of the final mapping
    makespan: float
    #: wall-clock seconds spent inside the mapper
    elapsed_s: float
    #: cost-model evaluations performed by the mapper (full simulations
    #: plus incremental delta evaluations; split in ``stats``)
    n_evaluations: int = 0
    #: algorithm-specific counters (iterations, generations, MILP status ...)
    stats: Dict[str, float] = field(default_factory=dict)


class Mapper(abc.ABC):
    """Base class for static task-mapping algorithms.

    Subclasses implement :meth:`_run`; :meth:`map` adds timing and
    evaluation-count bookkeeping around it.
    """

    #: short name used in experiment tables (defaults to the class name)
    name: str = ""

    def __init__(self) -> None:
        if not self.name:
            self.name = type(self).__name__

    def map(
        self,
        evaluator: MappingEvaluator,
        rng: Optional[np.random.Generator] = None,
    ) -> MappingResult:
        """Compute a mapping for the evaluator's graph/platform."""
        rng = rng if rng is not None else np.random.default_rng(0)
        evals_before = evaluator.n_evaluations
        model = evaluator.model
        sims_before = model.n_simulations
        deltas_before = model.n_delta_evaluations
        steps_before = model.delta_steps
        batched_before = model.n_batched_evaluations
        calls_before = model.n_batch_calls
        # wall time feeds only the reported elapsed_s diagnostic,
        # never the mapping itself
        t0 = time.perf_counter()  # repro-lint: disable=DET002
        with _trace.span("mapper.run", "mapper", {"mapper": self.name}
                         if _trace.enabled() else None):
            mapping, stats = self._run(evaluator, rng)
        elapsed = time.perf_counter() - t0  # repro-lint: disable=DET002
        n_sims = model.n_simulations - sims_before
        stats.setdefault("n_simulations", float(n_sims))
        stats.setdefault(
            "n_delta_evaluations",
            float(model.n_delta_evaluations - deltas_before),
        )
        n_batched = model.n_batched_evaluations - batched_before
        n_calls = model.n_batch_calls - calls_before
        stats.setdefault("n_batched_evaluations", float(n_batched))
        stats.setdefault(
            "batch_size_mean",
            float(n_batched) / n_calls if n_calls > 0 else 0.0,
        )
        stats.setdefault(
            "n_equivalent_evaluations",
            n_sims + n_batched + (model.delta_steps - steps_before) / model.n,
        )
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.shape != (evaluator.n_tasks,):
            raise ValueError(
                f"{self.name}: mapping has shape {mapping.shape}, "
                f"expected ({evaluator.n_tasks},)"
            )
        if mapping.min() < 0 or mapping.max() >= evaluator.n_devices:
            raise ValueError(f"{self.name}: device index out of range")
        result = MappingResult(
            mapping=mapping,
            makespan=evaluator.construction_makespan(mapping),
            elapsed_s=elapsed,
            n_evaluations=evaluator.n_evaluations - evals_before,
            stats=stats,
        )
        registry = _metrics.get_registry()
        if registry is not None:
            # Absorb this run's ad-hoc counters into the registry.
            # Write-only: nothing here feeds back into any algorithm.
            registry.counter("mapper.runs").inc()
            registry.counter("mapper.n_evaluations").inc(result.n_evaluations)
            for key in ("n_simulations", "n_delta_evaluations",
                        "n_batched_evaluations", "n_equivalent_evaluations"):
                registry.counter(f"mapper.{key}").inc(stats[key])
            if stats.get("batch_size_mean"):
                registry.gauge("mapper.batch_size_mean").set(
                    stats["batch_size_mean"]
                )
            registry.histogram("mapper.elapsed_s").observe(result.elapsed_s)
            registry.histogram("mapper.makespan").observe(result.makespan)
        return result

    @abc.abstractmethod
    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> tuple:
        """Return ``(mapping, stats_dict)``."""
