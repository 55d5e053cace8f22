"""Golden trajectory pins for every mapping loop over the evaluation core.

Each case runs one mapper with a fixed seed on a fixed graph and reduces
the outcome to a digest: a hash of the final mapping, ``repr`` of its
construction makespan, a hash of the per-step history (plus the Pareto
front for ``ParetoNSGAII``), the algorithm's own stats, and the
evaluation counters (``n_simulations``, ``n_delta_evaluations``,
``n_batched_evaluations``, ``n_batch_calls`` and the cost-weighted
``n_equivalent_evaluations``).  Every counter is an integer count, and
``n_equivalent_evaluations`` is one division of them, so it is exact:
``n_simulations + n_batched_evaluations + delta_steps / n``, with
``delta_steps`` the summed suffix lengths of the delta evaluations.

``tests/golden/trajectories.json`` was recorded with the compiled kernel
while the evaluation core still carried the numpy lockstep kernels and
the legacy scalar mapper loops, whose trajectories the suite then
proved equal to the fast paths.  Every digest must still match bit for
bit, with the compiled kernel and with the pure-Python kernel alike, so
any change to an evaluation path that moves a single float, rng draw or
counter shows up here.  The six list schedulers (HEFT, PEFT, CPOP,
min-min, max-min, lookahead HEFT) were pinned later, while each still
carried its own copy of the EFT rule, before they moved onto the shared
list-scheduling core of :mod:`repro.mappers.heft`.  The two
:class:`~repro.mappers.multiobjective.EnergyAwareDecompositionMapper`
cases (weighted makespan/energy objective, ``alpha = 0.5``) were pinned
while custom objectives still ran on their own copies of the greedy
loops, before those loops folded into one loop per heuristic.

Re-record only for an intended behaviour change::

    PYTHONPATH=src python -m tests.test_golden --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.evaluation import CostModel, MappingEvaluator
from repro.evaluation._ckernel import load_ckernel
from repro.graphs.generators import (
    augment_workflow,
    make_workflow,
    random_almost_sp_graph,
    random_sp_graph,
)
from repro.mappers import (
    CpopMapper,
    DecompositionMapper,
    EnergyAwareDecompositionMapper,
    HeftMapper,
    LookaheadHeftMapper,
    MaxMinMapper,
    MinMinMapper,
    NsgaIIMapper,
    ParetoNsgaIIMapper,
    PeftMapper,
    SimulatedAnnealingMapper,
    TabuSearchMapper,
    series_parallel,
    single_node,
    sn_first_fit,
    sp_first_fit,
)
from repro.platform import paper_platform
from tests.test_kernel_delta import tight_platform

GOLDEN = Path(__file__).parent / "golden" / "trajectories.json"

HAVE_CKERNEL = load_ckernel() is not None
MODES = [False] + ([True] if HAVE_CKERNEL else [])
MODE_IDS = ["python"] + (["ckernel"] if HAVE_CKERNEL else [])

#: mapper name -> factory, with budgets small enough for the pure-Python
#: kernel yet large enough that, when recorded, the populations and the
#: gamma first passes ran through both the lockstep and the scalar lanes
MAPPERS = {
    "NSGAII": lambda: NsgaIIMapper(generations=12, population_size=20),
    "ParetoNSGAII": lambda: ParetoNsgaIIMapper(
        generations=8, population_size=16
    ),
    "Tabu": lambda: TabuSearchMapper(iterations=40, neighborhood=12),
    "Annealing": lambda: SimulatedAnnealingMapper(iterations=400),
    "SingleNode": single_node,
    "SeriesParallel": series_parallel,
    "SNFirstFit": sn_first_fit,
    "SPFirstFit": sp_first_fit,
    "SeriesParallelGamma2": lambda: DecompositionMapper(
        "series_parallel", "gamma", gamma=2.0
    ),
    "HEFT": HeftMapper,
    "PEFT": PeftMapper,
    "CPOP": CpopMapper,
    "MinMin": MinMinMapper,
    "MaxMin": MaxMinMapper,
    "LAHEFT": LookaheadHeftMapper,
    # a custom objective: every move is one full _objective call
    "EnergyAware0.5-SPFirstFit": lambda: EnergyAwareDecompositionMapper(
        0.5, "series_parallel", "first_fit"
    ),
    "EnergyAware0.5-SingleNode": lambda: EnergyAwareDecompositionMapper(
        0.5, "single_node", "basic"
    ),
}

#: the list schedulers: one pass, no search, no rng draw
LIST_SCHEDULERS = ("HEFT", "PEFT", "CPOP", "MinMin", "MaxMin", "LAHEFT")

GRAPHS = ("sp", "almost_sp", "montage")
SEEDS = (0, 1, 2)
N_TASKS = 30

#: the area-tight platform case: infeasible moves must be skipped alike,
#: and the list schedulers must run out of FPGA area the same way
TIGHT_CASES = [
    (mapper, "sp_tight", 9)
    for mapper in ("Tabu", "Annealing") + LIST_SCHEDULERS
]

CASES = [
    (mapper, graph, seed)
    for mapper in MAPPERS
    for graph in GRAPHS
    for seed in SEEDS
] + TIGHT_CASES

#: checked by ``tests/test_batch_population.py::TestMetaheuristicTrajectories``
PINNED_ELSEWHERE = [
    (mapper, "sp", seed)
    for mapper in ("NSGAII", "ParetoNSGAII", "Tabu", "Annealing")
    for seed in SEEDS
] + [("Tabu", "sp_tight", 9)]

COUNTERS = ("n_simulations", "n_delta_evaluations", "n_batched_evaluations")


def build_graph(kind: str, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "sp":
        return random_sp_graph(N_TASKS, rng), paper_platform()
    if kind == "almost_sp":
        return random_almost_sp_graph(N_TASKS, 8, rng), paper_platform()
    if kind == "montage":
        g = make_workflow("montage", N_TASKS, rng)
        augment_workflow(g, rng)
        return g, paper_platform()
    if kind == "sp_tight":
        return random_sp_graph(14, rng), tight_platform()
    raise ValueError(kind)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(obj):
    """Nested floats as Python floats, so ``repr`` never sees numpy types."""
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return float(obj)


def _evaluator(g, plat, seed: int, use_ckernel: bool) -> MappingEvaluator:
    ev = MappingEvaluator(
        g, plat, rng=np.random.default_rng(seed), n_random_schedules=2
    )
    ev.model = CostModel(g, plat, use_ckernel=use_ckernel)
    return ev


def run_case(mapper_name: str, graph: str, seed: int, use_ckernel: bool):
    """Run one golden case and return its digest (a JSON-able dict)."""
    g, plat = build_graph(graph, seed)
    ev = _evaluator(g, plat, seed, use_ckernel)
    mapper = MAPPERS[mapper_name]()
    res = mapper.map(ev, rng=np.random.default_rng(seed))
    stats = dict(res.stats)
    digest = {
        "mapping": _sha(repr(res.mapping.astype(np.int64).tolist())),
        "makespan": repr(float(res.makespan)),
        "history": _sha(repr(_plain(getattr(mapper, "history_", [])))),
        "counters": {k: int(stats.pop(k)) for k in COUNTERS},
        "equivalent": repr(stats.pop("n_equivalent_evaluations")),
    }
    digest["counters"]["n_batch_calls"] = ev.model.n_batch_calls
    stats.pop("batch_size_mean")
    digest["stats"] = {k: repr(float(v)) for k, v in sorted(stats.items())}
    if isinstance(mapper, ParetoNsgaIIMapper):
        digest["front"] = _sha(repr(_plain(mapper.last_front_)))
    return digest


def case_id(mapper: str, graph: str, seed: int) -> str:
    return f"{mapper}/{graph}/{seed}"


def load_golden():
    return json.loads(GOLDEN.read_text())


def assert_golden(mapper: str, graph: str, seed: int, use_ckernel: bool):
    expected = load_golden()[case_id(mapper, graph, seed)]
    assert run_case(mapper, graph, seed, use_ckernel) == expected


_HERE = [c for c in CASES if c not in PINNED_ELSEWHERE]


@pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
@pytest.mark.parametrize(
    "mapper,graph,seed", _HERE, ids=[case_id(*c) for c in _HERE]
)
def test_golden_trajectory(mapper, graph, seed, use_ckernel):
    assert_golden(mapper, graph, seed, use_ckernel)


def test_golden_file_covers_every_case():
    assert sorted(load_golden()) == sorted(case_id(*c) for c in CASES)


@pytest.mark.skipif(not HAVE_CKERNEL, reason="needs the compiled kernel")
@pytest.mark.parametrize("mapper_name", list(MAPPERS))
def test_stats_equal_across_kernels(mapper_name):
    """Every ``MappingResult.stats`` entry is kernel-independent,
    including the cost-weighted ``n_equivalent_evaluations``."""
    g = random_sp_graph(60, np.random.default_rng(200))
    plat = paper_platform()
    c, py = (
        MAPPERS[mapper_name]().map(
            _evaluator(g, plat, 0, use_ckernel), rng=np.random.default_rng(0)
        )
        for use_ckernel in (True, False)
    )
    np.testing.assert_array_equal(c.mapping, py.mapping)
    assert c.stats == py.stats


def record() -> None:
    """Write the digests of every case (compiled kernel) to ``GOLDEN``."""
    if not HAVE_CKERNEL:
        raise SystemExit("recording needs the compiled kernel")
    out = {case_id(*c): run_case(*c, use_ckernel=True) for c in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} digests to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python -m tests.test_golden --record")
    record()
