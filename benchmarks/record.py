"""Record evaluation-core micro-bench medians into committed baselines.

Three suites, selected with ``--suite``:

- ``eval`` (default, ``BENCH_eval.json``) — the PR-3 evaluation-core
  benches: cost-model/suite evaluation and the greedy decomposition
  mappers at n=50/200.  Its ``baseline`` section was recorded on the
  *pre-kernel* (pure nested-list) implementation and cannot be
  regenerated — it stays frozen.
- ``meta`` (``BENCH_meta.json``) — the PR-4 metaheuristic benches:
  NSGA-II / Pareto NSGA-II / tabu / annealing on the 50-task bench
  graph, plus the reduced-budget ``nsgaii_smoke`` the CI perf gate
  uses.  Its ``baseline`` section was recorded on the legacy scalar
  mapper loops (per-genome fitness, per-move scratch simulation),
  which have since been deleted — like ``eval``'s, it cannot be
  regenerated and stays frozen.
- ``topo`` (``BENCH_topo.json``) — the PR-10 topology benches, pinning
  the link-graph layer's zero-inner-loop-cost contract: table build on
  a uniform vs a star (routed) platform captures where routing *is*
  paid (BFS routes + effective matrices at construction), the
  ``eval_*`` pair shows the routed evaluator's inner loop costs the
  same as the uniform one (~1.0 ratio — routing is table-build-time
  only), and the ``engine_*`` trio measures runtime-engine replay with
  no pools, per-link pools, and the analytic model.

Each suite's file carries two sections:

- ``baseline`` — frozen pre-PR medians, the reference all speedup
  claims are measured against;
- ``current`` — medians of the implementation as committed, refreshed
  whenever the evaluation core changes.

``--check KEY`` re-measures one entry on this machine and fails
(exit 1) if it is more than ``--max-ratio`` times slower than the
committed ``current`` median — the CI perf-smoke gate uses this with
``sp_first_fit_n200`` (eval) and ``nsgaii_smoke`` (meta).  Generous
ratios absorb machine variance while still catching an accidental
return to scalar per-genome evaluation, which costs ~5x or more.

``--overhead KEY`` measures KEY twice — observability off and on
(tracer + metrics registry installed via :func:`repro.obs.observe`) —
interleaved round by round, and fails (exit 1) if the best enabled
time exceeds the best disabled time by more than ``--max-overhead``
(default 2%).  This is the CI gate behind the ``repro.obs`` hard
contract: instrumentation off the hot path, <2% when enabled.

Recorded sections are stamped with an ``env`` block
(:func:`repro.obs.env.collect_env`: host, machine, python, numpy/BLAS,
C-kernel path) so medians from different machines are comparable at a
glance.  Committed medians are *not* regenerated when the stamp is
added — the stamp rides along with the next genuine re-record.

Usage::

    PYTHONPATH=src python benchmarks/record.py                    # refresh eval "current"
    PYTHONPATH=src python benchmarks/record.py --suite meta       # refresh meta "current"
    PYTHONPATH=src python benchmarks/record.py --suite meta --check nsgaii_smoke
    PYTHONPATH=src python benchmarks/record.py --overhead sp_first_fit_n200
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = _ROOT / "BENCH_eval.json"
BENCH_META_FILE = _ROOT / "BENCH_meta.json"
BENCH_TOPO_FILE = _ROOT / "BENCH_topo.json"

#: (key, graph size, repeats) for every mapper measured at both sizes.
MAPPER_SPECS = [
    ("single_node", 50, 5),
    ("series_parallel", 50, 5),
    ("sn_first_fit", 50, 5),
    ("sp_first_fit", 50, 5),
    ("single_node", 200, 3),
    ("series_parallel", 200, 3),
    ("sn_first_fit", 200, 3),
    ("sp_first_fit", 200, 3),
]

#: meta suite: key -> (graph size, repeats); the mapper (and its budget)
#: for each key lives in ``_meta_mapper``.
META_SPECS = {
    # paper budgets (Sec. IV-A: 500 generations x 100 individuals)
    "nsgaii_n50": (50, 5),
    "pareto_n50": (50, 3),
    "tabu_n50": (50, 5),
    "annealing_n50": (50, 5),
    # reduced budget for the CI perf gate: 30 generations x 50 individuals
    "nsgaii_smoke": (50, 5),
}

#: topo suite: key -> repeats.  Every key shares one seeded 50-task
#: bench graph on the 4-device paper platform; ``uniform`` keys run the
#: flat all-pairs interconnect, ``star``/``mesh`` the routed link-graph
#: presets.  ``table_build_*`` times platform reshaping (BFS routing +
#: effective matrices) *plus* cost-table construction — the only place
#: routing is allowed to cost anything; the ``eval_*`` pair times one
#: analytic simulate on prebuilt tables and must stay ~1.0x across
#: platforms (the zero-inner-loop-cost contract, mirrored by lint rule
#: KER002); ``engine_*`` replays a short job stream without pools, with
#: a routed star, and with per-link slots=1 queueing.
TOPO_SPECS = {
    "table_build_uniform_n50": 20,
    "table_build_star_n50": 20,
    "table_build_mesh_n50": 20,
    "eval_uniform_n50": 200,
    "eval_star_n50": 200,
    "engine_uniform_n50": 10,
    "engine_star_n50": 10,
    "engine_star_slots1_n50": 10,
}


def _evaluator(n_tasks: int):
    from repro.evaluation import MappingEvaluator
    from repro.graphs.generators import random_sp_graph
    from repro.platform import paper_platform

    g = random_sp_graph(n_tasks, np.random.default_rng(1234))
    return MappingEvaluator(
        g,
        paper_platform(),
        rng=np.random.default_rng(5),
        n_random_schedules=20,
    )


def _median_time(fn, repeats: int) -> float:
    fn()  # warm-up (table construction, caches)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _mapper_factory(key: str):
    import repro.mappers as mappers

    return getattr(mappers, key)


def _meta_mapper(key: str):
    from repro.mappers import (
        NsgaIIMapper,
        ParetoNsgaIIMapper,
        SimulatedAnnealingMapper,
        TabuSearchMapper,
    )

    if key == "nsgaii_n50":
        return NsgaIIMapper()
    if key == "nsgaii_smoke":
        return NsgaIIMapper(generations=30, population_size=50)
    if key == "pareto_n50":
        return ParetoNsgaIIMapper()
    if key == "tabu_n50":
        return TabuSearchMapper()
    if key == "annealing_n50":
        return SimulatedAnnealingMapper()
    raise KeyError(f"unknown meta bench key {key!r}")


def measure(key: str) -> float:
    """Median wall-clock seconds for one named eval-suite micro-bench."""
    if key == "cost_model_eval_n50":
        ev = _evaluator(50)
        mapping = np.zeros(ev.n_tasks, dtype=np.int64)
        return _median_time(lambda: ev.construction_makespan(mapping), 200)
    if key == "suite_eval_n50":
        ev = _evaluator(50)
        mapping = np.zeros(ev.n_tasks, dtype=np.int64)
        return _median_time(lambda: ev.reported_makespan(mapping), 20)
    for name, size, repeats in MAPPER_SPECS:
        if key == f"{name}_n{size}":
            ev = _evaluator(size)
            factory = _mapper_factory(name)

            def run():
                factory().map(ev, rng=np.random.default_rng(np.random.SeedSequence(42)))

            return _median_time(run, repeats)
    raise KeyError(f"unknown bench key {key!r}")


def measure_meta(key: str) -> float:
    """Median wall-clock seconds for one metaheuristic mapper bench."""
    size, repeats = META_SPECS[key]
    ev = _evaluator(size)

    def run():
        _meta_mapper(key).map(
            ev, rng=np.random.default_rng(np.random.SeedSequence(42))
        )

    return _median_time(run, repeats)


def measure_topo(key: str) -> float:
    """Median wall-clock seconds for one topology-layer bench."""
    from repro.evaluation import CostModel
    from repro.graphs.generators import random_sp_graph
    from repro.platform import paper_platform, with_topology
    from repro.runtime import RuntimeEngine, periodic_stream

    repeats = TOPO_SPECS[key]
    g = random_sp_graph(50, np.random.default_rng(1234))
    base = paper_platform()

    def platform_for(name: str, *, slots=None):
        if name == "uniform":
            return base
        return with_topology(base, name, slots=slots)

    if key.startswith("table_build_"):
        topo = key[len("table_build_"):].rsplit("_", 1)[0]
        return _median_time(lambda: CostModel(g, platform_for(topo)), repeats)
    if key.startswith("eval_"):
        topo = key[len("eval_"):].rsplit("_", 1)[0]
        model = CostModel(g, platform_for(topo))
        rng = np.random.default_rng(7)
        mapping = [int(d) for d in rng.integers(0, base.n_devices, g.n_tasks)]
        return _median_time(lambda: model.simulate(mapping), repeats)
    if key.startswith("engine_"):
        if key == "engine_uniform_n50":
            platform = base
        elif key == "engine_star_n50":
            platform = platform_for("star")
        else:  # engine_star_slots1_n50
            platform = platform_for("star", slots=1)
        rng = np.random.default_rng(7)
        mapping = [int(d) for d in rng.integers(0, base.n_devices, g.n_tasks)]
        analytic = CostModel(g, platform).simulate(mapping)
        jobs = periodic_stream(g, mapping, 4, period=0.5 * analytic)
        return _median_time(lambda: RuntimeEngine(platform).run(jobs), repeats)
    raise KeyError(f"unknown topo bench key {key!r}")


def _env_stamp() -> dict:
    """Machine/toolchain metadata recorded next to the medians.

    A subset of :func:`repro.obs.env.collect_env` — the keys that decide
    whether two recorded medians are comparable (host, CPU count, numpy
    and its BLAS backend, and whether the C kernel or the pure-python
    fallback was measured).
    """
    from repro.obs.env import collect_env

    env = collect_env()
    keep = (
        "hostname", "machine", "os", "cpu_count",
        "python", "implementation", "numpy", "blas",
        "kernel", "repro",
    )
    return {k: env[k] for k in keep if k in env}


def check_overhead(key: str, *, measure_fn, max_overhead: float,
                   rounds: int = 3) -> int:
    """Gate the instrumentation overhead of one bench key.

    Measures ``key`` with observability disabled and enabled, alternating
    per round so machine drift (thermal, noisy neighbours) hits both
    sides equally, then compares the *minimum* medians — the most
    noise-robust statistic for a lower-bounded quantity.  Exits non-zero
    when enabled/disabled exceeds ``1 + max_overhead``.
    """
    from repro import obs

    meas = lambda: measure_fn(key)
    off_times, on_times = [], []
    for _ in range(rounds):
        off_times.append(meas())
        obs.observe()
        try:
            on_times.append(meas())
        finally:
            obs.shutdown()
    best_off, best_on = min(off_times), min(on_times)
    ratio = best_on / best_off
    print(
        f"{key}: off {best_off * 1e3:.2f} ms, on {best_on * 1e3:.2f} ms "
        f"(overhead {100 * (ratio - 1):+.2f}%, limit {100 * max_overhead:g}%)"
    )
    if ratio > 1.0 + max_overhead:
        print("OBSERVABILITY OVERHEAD: exceeded the allowed limit",
              file=sys.stderr)
        return 1
    return 0


SUITES = {"eval": BENCH_FILE, "meta": BENCH_META_FILE, "topo": BENCH_TOPO_FILE}

#: suite name -> the measure function taking one bench key.
_MEASURERS = {"eval": measure, "meta": measure_meta, "topo": measure_topo}


def all_keys(suite: str):
    if suite == "meta":
        yield from META_SPECS
        return
    if suite == "topo":
        yield from TOPO_SPECS
        return
    yield "cost_model_eval_n50"
    yield "suite_eval_n50"
    for name, size, _ in MAPPER_SPECS:
        yield f"{name}_n{size}"


def load(path: Path) -> dict:
    if path.exists():
        return json.loads(path.read_text())
    return {"schema": 1, "units": "seconds_median", "baseline": {}, "current": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        default="eval",
        choices=sorted(SUITES),
        help="bench suite: 'eval' (BENCH_eval.json), 'meta'"
        " (BENCH_meta.json) or 'topo' (BENCH_topo.json)",
    )
    parser.add_argument(
        "--section",
        default="current",
        choices=["current", "baseline"],
        help="which section of the bench file to (re)record",
    )
    parser.add_argument(
        "--check",
        metavar="KEY",
        help="re-measure KEY and fail if slower than committed 'current'",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=2.0,
        help="allowed measured/committed slowdown ratio for --check",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="allow overwriting an existing 'baseline' section",
    )
    parser.add_argument(
        "--overhead",
        metavar="KEY",
        help="measure KEY with observability off vs on and fail if the"
        " enabled run is more than --max-overhead slower",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.02,
        help="allowed fractional slowdown with observability enabled"
        " (default 0.02 = 2%%)",
    )
    args = parser.parse_args(argv)

    bench_file = SUITES[args.suite]
    measure_fn = _MEASURERS[args.suite]

    if args.overhead:
        return check_overhead(
            args.overhead, measure_fn=measure_fn,
            max_overhead=args.max_overhead,
        )

    if args.check:
        data = load(bench_file)
        committed = data.get("current", {}).get("measures", {}).get(args.check)
        if committed is None:
            print(f"no committed 'current' median for {args.check!r}", file=sys.stderr)
            return 2
        measured = measure_fn(args.check)
        ratio = measured / committed
        print(
            f"{args.check}: measured {measured * 1e3:.2f} ms vs committed "
            f"{committed * 1e3:.2f} ms (ratio {ratio:.2f}, limit {args.max_ratio:g})"
        )
        if ratio > args.max_ratio:
            print("PERF REGRESSION: exceeded the allowed ratio", file=sys.stderr)
            return 1
        return 0

    data = load(bench_file)
    if (
        args.section == "baseline"
        and data.get("baseline", {}).get("measures")
        and not args.force
    ):
        if args.suite == "meta":
            reason = (
                "it was recorded on the legacy scalar mapper loops,"
                " which no longer exist"
            )
        elif args.suite == "topo":
            reason = (
                "it records the medians from the machine the topology"
                " layer landed on (the uniform_* keys double as the"
                " in-file reference)"
            )
        else:
            reason = (
                "it was recorded on the original nested-list implementation"
                " and cannot be regenerated"
            )
        print(
            f"refusing to overwrite the frozen 'baseline' section: {reason}"
            " (pass --force if you really mean it)",
            file=sys.stderr,
        )
        return 2
    measures = {}
    for key in all_keys(args.suite):
        measures[key] = measure_fn(key)
        print(f"{key:>24s}: {measures[key] * 1e3:9.3f} ms")
    data[args.section] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "env": _env_stamp(),
        "measures": measures,
    }
    _atomic_write_text(
        bench_file, json.dumps(data, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote section {args.section!r} to {bench_file}")
    return 0


def _atomic_write_text(path: Path, text: str) -> None:
    """Write via a same-directory temp file + rename, so an interrupted
    run can never leave a truncated BENCH_*.json behind."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
