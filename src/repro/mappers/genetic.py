"""Single-objective NSGA-II genetic mapper (paper Sec. IV-A, ``NSGAII``).

The paper uses "a single objective variant of the NSGA-II algorithm [14]"
with:

- a genome holding one gene (device index) per task, in topologically
  sorted task order;
- single-point crossover with 90 % crossover rate;
- per-gene mutation rate ``1/n``;
- a population of 100 individuals;
- a repair function after variation to keep mappings feasible (FPGA area);
- 500 generations unless stated otherwise;
- the *same model-based evaluation function* as the decomposition mappers
  ("in order to ensure fairness").

With a single objective, NSGA-II's non-dominated sorting degenerates to
sorting by fitness, so the algorithm is the classic elitist (mu + lambda)
GA with binary tournament selection.  The all-CPU individual is seeded into
the initial population, so the final result never loses to the baseline.
:func:`initial_population` and the variation step :func:`vary` are shared
with :class:`~repro.mappers.multiobjective.ParetoNsgaIIMapper`.

Fitness is evaluated through the population entry
(:meth:`~repro.evaluation.evaluator.MappingEvaluator.construction_makespans`):
one call per generation scores the whole offspring block, with identical
genomes deduplicated and simulated once.  Every value is bit-identical to
a scalar construction makespan of that genome, on either kernel, so
seeded trajectories do not depend on the kernel (pinned by
``tests/test_golden.py``).

Variation draws in this order, per generation (:func:`vary_reference`
is the numpy statement of it):

1. crossover: per consecutive pair one ``random()``, drawn even when
   ``n <= 1``; below the rate and for ``n > 1`` a cut
   ``integers(1, n)``, which draws nothing for ``n == 2``;
2. mutation: all ``P * n`` ``random()`` in row-major order, then one
   ``integers(0, m)`` per marked gene in flat order (nothing for
   ``m == 1``);
3. repair, per area device in ``area_capacities()`` order and per
   over-capacity row in ascending order: one ``permutation`` of the
   row's genes on the device, drawn even when the first usage check
   stops the walk at once.

With the C kernel, :func:`vary` and :func:`repair_area` are one
``repro_vary`` call that draws through ``rng.bit_generator`` with its
lock held and reproduces each numpy draw: ``random()`` is one
``next_double``, ``integers`` numpy's 32-bit Lemire method (no draw for
a zero range), and ``permutation`` a Fisher-Yates pass with numpy's
masked rejection.  The repair's area sums run in gene order there, while
numpy's are a BLAS matmul and a pairwise sum; a comparison inside
:func:`~repro.evaluation.costmodel.area_guard_band` of the capacity is
handed back to numpy, and the call resumes after it.  Children and the
generator's state afterwards equal the numpy path's (pinned by
``tests/test_vary.py`` for PCG64, MT19937, Philox and SFC64).  Without
the C kernel (``REPRO_PURE_PYTHON=1``), with a non-finite task area, or
for a population that is not a C-contiguous int64 array, the numpy
reference runs.  With metrics on, each call counts
``kernel.calls.c_vary`` or ``kernel.calls.py_vary``.  Binary tournament
selection and survival stay in numpy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..evaluation.evaluator import MappingEvaluator
from ..obs import metrics as _metrics
from .base import Mapper

__all__ = ["NsgaIIMapper", "initial_population", "vary"]


def single_point_crossover(
    children: np.ndarray, rng: np.random.Generator, crossover_rate: float
) -> None:
    """Single-point crossover on consecutive pairs (in place).

    The rng draws happen pair by pair in the classic loop order (one
    ``random()`` per pair, one ``integers(1, n)`` per crossover), so the
    stream — and hence every seeded trajectory — is unchanged; only the
    tail swaps are applied in one vectorized pass instead of three numpy
    slice copies per pair.
    """
    pop_size, n = children.shape
    rows: List[int] = []
    cuts: List[int] = []
    for i in range(0, pop_size - 1, 2):
        if rng.random() < crossover_rate and n > 1:
            rows.append(i)
            cuts.append(int(rng.integers(1, n)))
    if not rows:
        return
    idx = np.asarray(rows)
    tail = np.arange(n) >= np.asarray(cuts)[:, None]
    a = children[idx]
    b = children[idx + 1]
    children[idx] = np.where(tail, b, a)
    children[idx + 1] = np.where(tail, a, b)


def _send_to_host(genome: np.ndarray, perm: np.ndarray, used: float,
                  capacity: float, area: np.ndarray, host: int) -> None:
    """Send the genes of ``perm`` to the host, in that order, until the
    device's usage ``used`` fits its ``capacity``."""
    for g in perm:
        if used <= capacity:
            break
        genome[g] = host
        used -= area[g]


def repair_area_reference(
    pop: np.ndarray, evaluator: MappingEvaluator, rng: np.random.Generator
) -> None:
    """Move tasks off over-committed area devices until feasible (in
    place): the numpy reference of :func:`repair_area`.

    Each over-committed genome draws one ``permutation`` of its tasks on
    the device and sends them to the host in that order.
    """
    area = evaluator.model._area  # noqa: SLF001 - package-internal
    host = evaluator.platform.host_index
    for d, capacity in evaluator.platform.area_capacities().items():
        usage = (pop == d) @ area
        for r in np.nonzero(usage > capacity)[0]:
            genome = pop[r]
            on_dev = np.nonzero(genome == d)[0]
            _send_to_host(genome, rng.permutation(on_dev),
                          float(area[on_dev].sum()), capacity, area, host)


def vary_reference(children: np.ndarray, evaluator: MappingEvaluator,
                   rng: np.random.Generator, crossover_rate: float,
                   mutation_rate: Optional[float]) -> None:
    """The numpy reference of :func:`vary`: crossover, per-gene mutation
    (rate ``1/n`` unless given) and repair, in place and in that rng
    order."""
    single_point_crossover(children, rng, crossover_rate)
    if mutation_rate is None:
        mutation_rate = 1.0 / children.shape[1]
    mask = rng.random(size=children.shape) < mutation_rate
    if mask.any():
        children[mask] = rng.integers(
            0, evaluator.n_devices, size=int(mask.sum())
        )
    repair_area_reference(children, evaluator, rng)


def _vary_native(pop: np.ndarray, evaluator: MappingEvaluator,
                 rng: np.random.Generator, crossover_rate: float,
                 mutation_rate: float, variation: bool) -> bool:
    """Run :func:`vary` (or, without ``variation``, :func:`repair_area`)
    as ``repro_vary`` calls; False, having drawn nothing, when the model
    has no C kernel tables or ``pop`` is not a C-contiguous int64 array.
    Counts the path taken as ``kernel.calls.c_vary`` or
    ``kernel.calls.py_vary``."""
    model = evaluator.model
    tables = model.repair_tables()
    native = (tables is not None and pop.dtype == np.int64
              and pop.flags.c_contiguous)
    registry = _metrics.get_registry()
    if registry is not None:
        registry.counter(
            "kernel.calls.c_vary" if native else "kernel.calls.py_vary"
        ).inc()
    if not native:
        return False
    area = model._area  # noqa: SLF001 - package-internal
    devices = list(model._area_limits.items())  # noqa: SLF001

    def recount_usage(dev: int, row: int) -> bool:
        # the reference's whole-population matmul; a row's value does not
        # depend on the other rows, which repair has already changed
        d, capacity = devices[dev]
        return bool(((pop == d) @ area)[row] > capacity)

    def finish_row(dev: int, row: int, perm: np.ndarray) -> None:
        d, capacity = devices[dev]
        _send_to_host(pop[row], perm, float(area[np.sort(perm)].sum()),
                      capacity, area, evaluator.platform.host_index)

    model._ck.vary(tables, pop, rng, crossover_rate,  # noqa: SLF001
                   mutation_rate, recount_usage, finish_row,
                   variation=variation)
    return True


def repair_area(
    pop: np.ndarray, evaluator: MappingEvaluator, rng: np.random.Generator
) -> None:
    """Move tasks off over-committed area devices until feasible (in
    place): one ``repro_vary`` call on the C kernel, else
    :func:`repair_area_reference`, with identical draws and results."""
    if not _vary_native(pop, evaluator, rng, 0.0, 0.0, variation=False):
        repair_area_reference(pop, evaluator, rng)


def initial_population(
    evaluator: MappingEvaluator, rng: np.random.Generator, size: int
) -> np.ndarray:
    """``size`` random genomes, the all-CPU one in row 0, repaired."""
    shape = (size, evaluator.n_tasks)
    pop = rng.integers(0, evaluator.n_devices, size=shape, dtype=np.int64)
    pop[0] = evaluator.platform.host_index
    repair_area(pop, evaluator, rng)
    return pop


def vary(children: np.ndarray, evaluator: MappingEvaluator,
         rng: np.random.Generator, crossover_rate: float,
         mutation_rate: Optional[float]) -> None:
    """Crossover, per-gene mutation (rate ``1/n`` unless given) and
    repair of the selected parents, in place and in that rng order: one
    ``repro_vary`` call on the C kernel, else :func:`vary_reference`,
    with identical draws and results (see the module docstring)."""
    rate = 1.0 / children.shape[1] if mutation_rate is None else mutation_rate
    if not _vary_native(children, evaluator, rng, crossover_rate, rate,
                        variation=True):
        vary_reference(children, evaluator, rng, crossover_rate,
                       mutation_rate)


class NsgaIIMapper(Mapper):
    """Single-objective NSGA-II (see module docstring)."""

    name = "NSGAII"

    def __init__(
        self,
        *,
        generations: int = 500,
        population_size: int = 100,
        crossover_rate: float = 0.9,
        mutation_rate: Optional[float] = None,
    ) -> None:
        if generations < 1 or population_size < 2:
            raise ValueError("need at least 1 generation and 2 individuals")
        self.generations = generations
        self.population_size = population_size
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        #: best construction makespan after each generation (last run)
        self.history_: List[float] = []
        super().__init__()

    # ------------------------------------------------------------------
    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        pop_size = self.population_size
        fitness_of = evaluator.construction_makespans

        pop = initial_population(evaluator, rng, pop_size)
        fitness = fitness_of(pop)
        history: List[float] = []

        for _ in range(self.generations):
            # binary tournament selection of parents
            a = rng.integers(0, pop_size, size=pop_size)
            b = rng.integers(0, pop_size, size=pop_size)
            parents = np.where(fitness[a] <= fitness[b], a, b)

            children = pop[parents]
            vary(children, evaluator, rng, self.crossover_rate,
                 self.mutation_rate)
            child_fitness = fitness_of(children)
            # (mu + lambda) elitism == single-objective NSGA-II survival
            combined = np.concatenate([pop, children])
            combined_fit = np.concatenate([fitness, child_fitness])
            keep = np.argsort(combined_fit, kind="stable")[:pop_size]
            pop = combined[keep]
            fitness = combined_fit[keep]
            history.append(float(fitness[0]))

        self.history_ = history
        best = int(np.argmin(fitness))
        stats = {
            "generations": float(self.generations),
            "best_makespan": float(fitness[best]),
        }
        return pop[best].copy(), stats
