"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``   create a task graph (random SP / almost-SP / workflow) as JSON
``decompose``  run Algorithm 1 on a graph, print the forest and its stats
``map``        map a graph with any algorithm, write the mapping JSON
``evaluate``   evaluate a mapping (makespan, improvement, optional Gantt)
``compare``    run several algorithms head-to-head on one graph
``simulate``   stress-test a mapping in the runtime engine (noise, failures,
               arrival streams, shared link slots, online re-mapping
               policies) and print a robustness/throughput report with
               energy and shared-resource wait accounting
``experiment`` run any registered study: a paper figure/table (fig3..fig7,
               table1) or an extension (scaling, baselines, ablation-*,
               robustness, replan, contention, topology); every study
               takes ``--seed/--workers/--csv/--checkpoint/--resume``,
               and ``--workers N`` results are bit-identical to serial
``profile``    run one mapper (and optionally a multi-job engine stream)
               under full instrumentation: phase-time breakdown table,
               metrics summary, optional Perfetto trace (``--trace``)
``env``        print the environment diagnostic header (version, kernel
               compile status, numpy/BLAS) for bug reports and benchmarks
``lint``       statically check the repo's reproducibility invariants
               (seeded randomness, no wall-clock in algorithms, write-only
               observability, single-sourced tolerances, picklable
               ``parallel_map`` payloads, C-kernel constant mirrors)

``--trace out.json`` on ``simulate``/``experiment`` records spans (and,
for engine runs, the simulated-time timeline) to a Chrome trace-event
file viewable at https://ui.perfetto.dev.  ``--verbose/--quiet`` adjust
report volume; the default output is unchanged.

Examples
--------
::

    python -m repro generate --kind sp --n 50 --seed 7 -o graph.json
    python -m repro decompose graph.json --strategy smallest
    python -m repro map graph.json --algorithm sp-first-fit -o mapping.json
    python -m repro evaluate graph.json mapping.json --gantt
    python -m repro compare graph.json --algorithms heft peft sp-first-fit
    python -m repro simulate graph.json mapping.json --noise lognormal \
        --sigma 0.3 --replications 50
    python -m repro simulate graph.json --algorithm heft --fail vega56@0.5 \
        --replan-policy decomposition
    python -m repro simulate graph.json mapping.json --arrivals 8 \
        --period 0.05 --link-slots 1
    python -m repro experiment fig4 --scale smoke
    python -m repro experiment table1 --scale smoke --csv
    python -m repro experiment robustness --scale small --workers 4
    python -m repro experiment contention --scale smoke --topology mesh
    python -m repro profile graph.json --algorithm sp-first-fit \
        --arrivals 8 --period 0.05 --trace profile.json
    python -m repro simulate graph.json mapping.json --trace run.json
    python -m repro env
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

import numpy as np

from . import obs
from .evaluation import MappingEvaluator, render_gantt, simulate_trace
from .graphs.generators import (
    WORKFLOW_FAMILIES,
    augment_workflow,
    make_workflow,
    random_almost_sp_graph,
    random_sp_graph,
)
from .io import (
    graph_to_dot,
    load_graph,
    load_platform,
    mapping_from_dict,
    mapping_to_dict,
    save_graph,
)
from .mappers import (
    HeftMapper,
    NsgaIIMapper,
    PeftMapper,
    WgdpDeviceMapper,
    WgdpTimeMapper,
    ZhouLiuMapper,
    series_parallel,
    single_node,
    sn_first_fit,
    sp_first_fit,
)
from .mappers import CpopMapper, MaxMinMapper, MinMinMapper, TabuSearchMapper
from .mappers.annealing import SimulatedAnnealingMapper
from .mappers.lookahead import LookaheadHeftMapper
from .platform import paper_platform
from .sp import grow_decomposition_forest
from .sp.analysis import forest_stats, sp_distance

__all__ = ["main", "MAPPER_FACTORIES"]

#: every user-facing line goes through the logging-backed reporter
#: (``--verbose``/``--quiet``); default-level output is byte-identical
#: to the bare ``print()`` calls it replaced
R = obs.get_reporter()

#: simulated-time Chrome events gathered by commands that run the
#: engine while ``--trace`` is active; written next to the wall-clock
#: spans by :func:`main` (reset at each invocation)
_TRACE_EXTRA: List[dict] = []

MAPPER_FACTORIES: Dict[str, Callable[[], object]] = {
    "single-node": single_node,
    "series-parallel": series_parallel,
    "sn-first-fit": sn_first_fit,
    "sp-first-fit": sp_first_fit,
    "heft": HeftMapper,
    "peft": PeftMapper,
    "cpop": CpopMapper,
    "min-min": MinMinMapper,
    "max-min": MaxMinMapper,
    "tabu": TabuSearchMapper,
    "la-heft": LookaheadHeftMapper,
    "nsga2": lambda: NsgaIIMapper(generations=100),
    "annealing": SimulatedAnnealingMapper,
    "wgdp-dev": lambda: WgdpDeviceMapper(time_limit_s=30),
    "wgdp-time": lambda: WgdpTimeMapper(time_limit_s=60),
    "zhou-liu": lambda: ZhouLiuMapper(time_limit_s=120),
}


def _load_platform(args) -> object:
    if getattr(args, "platform", None):
        return load_platform(args.platform)
    return paper_platform()


def _evaluator(graph, args, platform=None) -> MappingEvaluator:
    return MappingEvaluator(
        graph,
        platform if platform is not None else _load_platform(args),
        rng=np.random.default_rng(getattr(args, "eval_seed", 0)),
        n_random_schedules=getattr(args, "schedules", 100),
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.kind == "sp":
        g = random_sp_graph(args.n, rng)
    elif args.kind == "almost-sp":
        g = random_almost_sp_graph(args.n, args.extra_edges, rng)
    elif args.kind in WORKFLOW_FAMILIES:
        g = make_workflow(args.kind, args.n, rng)
        augment_workflow(g, rng)
    else:
        R.error(f"unknown kind {args.kind!r}")
        return 2
    if args.output:
        save_graph(g, args.output)
        R.out(f"wrote {g.n_tasks} tasks / {g.n_edges} edges to {args.output}")
    else:
        from .io import graph_to_dict

        json.dump(graph_to_dict(g), sys.stdout, indent=2)
        R.out()
    return 0


def cmd_decompose(args) -> int:
    g = load_graph(args.graph)
    rng = np.random.default_rng(args.seed)
    forest = grow_decomposition_forest(
        g, rng=rng, cut_strategy=args.strategy
    )
    stats = forest_stats(g, forest)
    R.out(f"graph: {g.n_tasks} tasks, {g.n_edges} edges")
    R.out(
        f"forest: {stats.n_trees} trees, {stats.n_cuts} cuts, "
        f"core fraction {stats.core_fraction:.1%}, "
        f"sp-distance {sp_distance(g):.3f}"
    )
    if args.trees:
        for k, tree in enumerate(forest.trees):
            R.out(f"--- tree {k} {'(core)' if k == 0 else '(cut)'} ---")
            R.out(tree.pretty())
    if args.dot:
        from .io import forest_to_dot

        with open(args.dot, "w") as fh:
            fh.write(forest_to_dot(g, forest))
        R.out(f"wrote {args.dot}")
    return 0


def cmd_map(args) -> int:
    try:
        g = load_graph(args.graph)
        evaluator = _evaluator(g, args)
    except (OSError, ValueError, KeyError) as exc:
        R.error(f"cannot load inputs: {exc}")
        return 2
    mapper = MAPPER_FACTORIES[args.algorithm]()
    result = mapper.map(evaluator, rng=np.random.default_rng(args.seed))
    improvement = evaluator.relative_improvement(result.mapping)
    R.out(
        f"{mapper.name}: makespan {result.makespan * 1e3:.2f} ms, "
        f"improvement {improvement:.1%}, "
        f"{result.n_evaluations} evaluations in {result.elapsed_s * 1e3:.1f} ms"
    )
    if args.output:
        doc = mapping_to_dict(
            g,
            evaluator.platform,
            result.mapping,
            makespan=result.makespan,
            algorithm=mapper.name,
        )
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2)
        R.out(f"wrote {args.output}")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(
                graph_to_dot(g, mapping=result.mapping,
                             platform=evaluator.platform)
            )
        R.out(f"wrote {args.dot}")
    return 0


def cmd_evaluate(args) -> int:
    g = load_graph(args.graph)
    evaluator = _evaluator(g, args)
    with open(args.mapping) as fh:
        mapping = mapping_from_dict(json.load(fh), g, evaluator.platform)
    reported = evaluator.reported_makespan(mapping)
    R.out(f"reported makespan : {reported * 1e3:.2f} ms")
    R.out(f"cpu baseline      : {evaluator.cpu_reported_makespan * 1e3:.2f} ms")
    R.out(f"improvement       : {evaluator.relative_improvement(mapping):.1%}")
    if args.gantt:
        trace = simulate_trace(evaluator.model, mapping)
        R.out(render_gantt(trace, evaluator.model))
    return 0


def cmd_compare(args) -> int:
    g = load_graph(args.graph)
    evaluator = _evaluator(g, args)
    R.out(f"{'algorithm':>16s} | {'improvement':>11s} | {'time':>10s}")
    R.out("-" * 45)
    for name in args.algorithms:
        mapper = MAPPER_FACTORIES[name]()
        res = mapper.map(evaluator, rng=np.random.default_rng(args.seed))
        imp = evaluator.relative_improvement(res.mapping)
        R.out(
            f"{mapper.name:>16s} | {imp:>10.1%} | {res.elapsed_s * 1e3:>8.1f}ms"
        )
    return 0


def _parse_device(spec: str, platform) -> int:
    try:
        return platform.index_of(spec)
    # not a device name: fall through to the numeric-index parse below,
    # which owns the error message
    except KeyError:  # repro-lint: disable=EXC001
        pass
    try:
        d = int(spec)
    except ValueError:
        names = ", ".join(dev.name for dev in platform.devices)
        raise ValueError(
            f"unknown device {spec!r}; use an index or one of: {names}"
        ) from None
    if not 0 <= d < platform.n_devices:
        raise ValueError(f"device index {d} out of range")
    return d


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{what} {text!r} is not a number") from None


def _parse_scenarios(args, platform) -> List:
    """``--fail DEV@T`` and ``--slowdown DEV@T:FACTOR`` into scenario objects.

    Malformed specs, unknown devices, out-of-range indices and invalid
    times/factors all raise :class:`ValueError` with the offending spec
    named — ``repro simulate`` turns these into a clean non-zero exit
    instead of a traceback from deep inside :mod:`repro.runtime`.
    """
    from .runtime import DeviceFailure, DeviceSlowdown

    scenarios = []
    for spec in args.fail or []:
        dev, sep, at = spec.rpartition("@")
        if not sep or not dev:
            raise ValueError(f"--fail {spec!r}: expected DEV@T")
        try:
            scenarios.append(DeviceFailure(
                _parse_float(at, "time"),
                device=_parse_device(dev, platform),
            ))
        except ValueError as exc:
            raise ValueError(f"--fail {spec!r}: {exc}") from None
    for spec in args.slowdown or []:
        dev, sep, rest = spec.rpartition("@")
        at, sep2, factor = rest.partition(":")
        if not sep or not dev or not sep2:
            raise ValueError(f"--slowdown {spec!r}: expected DEV@T:FACTOR")
        try:
            scenarios.append(DeviceSlowdown(
                _parse_float(at, "time"),
                device=_parse_device(dev, platform),
                factor=_parse_float(factor, "factor"),
            ))
        except ValueError as exc:
            raise ValueError(f"--slowdown {spec!r}: {exc}") from None
    return scenarios


def _make_noise(args):
    from .runtime import GammaNoise, LognormalNoise, NoNoise

    if args.noise == "none":
        if args.sigma is not None or args.transfer_noise is not None:
            raise ValueError(
                "--sigma/--transfer-noise have no effect without "
                "--noise lognormal|gamma"
            )
        return NoNoise()
    sigma = 0.2 if args.sigma is None else args.sigma
    transfer = 0.0 if args.transfer_noise is None else args.transfer_noise
    if args.noise == "lognormal":
        return LognormalNoise(sigma, transfer_sigma=transfer)
    return GammaNoise(sigma, transfer_cv=transfer)


def cmd_simulate(args) -> int:
    from .evaluation.costmodel import CostModel
    from .runtime import (
        RuntimeEngine,
        periodic_stream,
        replicate,
        robustness_report,
        simulate_mapping,
        throughput_report,
    )

    # cheap argument validation first — before any graph/mapper work
    if args.mapping and args.algorithm:
        R.error("give a mapping file or --algorithm, not both")
        return 2
    if not args.mapping and not args.algorithm:
        R.error("need a mapping file or --algorithm")
        return 2
    if args.replications < 1:
        R.error("--replications must be at least 1")
        return 2
    if args.arrivals < 1:
        R.error("--arrivals must be at least 1")
        return 2
    if args.replications > 1 and args.arrivals > 1:
        R.error("--arrivals and --replications are mutually exclusive")
        return 2
    if args.gantt and (args.replications > 1 or args.arrivals > 1):
        R.error("--gantt needs a single run (no --replications/--arrivals)")
        return 2
    try:
        noise = _make_noise(args)
    except ValueError as exc:
        R.error(exc)
        return 2
    if args.replications > 1 and noise.deterministic:
        R.error("deterministic replications are identical; --replications "
              "needs a nonzero --noise level")
        return 2
    if (
        args.replan_policy != "fallback"
        and not args.fail
        and not args.slowdown
        and args.arrivals <= 1
    ):
        # with a multi-job stream the policy still matters: arrivals under
        # FPGA area pressure are routed through it (no scenario needed)
        R.error(f"--replan-policy {args.replan_policy} has no effect without "
              "a --fail/--slowdown scenario or a multi-job --arrivals "
              "stream")
        return 2
    if args.link_slots is not None and args.link_slots < 0:
        R.error("--link-slots must be >= 0 (0 = unlimited)")
        return 2
    if args.slowdown_replan_threshold <= 1.0:
        R.error("--slowdown-replan-threshold must exceed 1")
        return 2

    try:
        g = load_graph(args.graph)
        platform = _load_platform(args)
    except (OSError, ValueError, KeyError) as exc:
        R.error(f"cannot load inputs: {exc}")
        return 2
    try:
        scenarios = _parse_scenarios(args, platform)
    except ValueError as exc:
        R.error(exc)
        return 2

    model = None
    if args.mapping:
        try:
            with open(args.mapping) as fh:
                mapping = mapping_from_dict(json.load(fh), g, platform)
        except (OSError, ValueError, KeyError) as exc:
            R.error(f"cannot load mapping {args.mapping!r}: {exc}")
            return 2
        source = "stored mapping"
    else:
        evaluator = _evaluator(g, args, platform)
        mapper = MAPPER_FACTORIES[args.algorithm]()
        result = mapper.map(evaluator, rng=np.random.default_rng(args.seed))
        mapping, source = result.mapping, mapper.name
        model = evaluator.model

    mapping = list(mapping)
    if model is None:
        model = CostModel(g, platform)
    if not model.is_feasible(mapping):
        R.error(f"mapping violates an area budget "
              f"(usage {model.area_usage(mapping)})")
        return 2
    analytic = model.simulate(mapping)

    R.out(f"mapping           : {source}")
    R.out(f"analytic makespan : {analytic * 1e3:.2f} ms")
    for scn in scenarios:
        R.out(f"scenario          : {scn.describe()}")
    if args.replan_policy != "fallback":
        R.out(f"replan policy     : {args.replan_policy}")
        if args.slowdown:
            R.out(f"slowdown replan   : at cumulative factor >= "
                  f"{args.slowdown_replan_threshold:g}")
    if args.link_slots is not None:
        R.out(f"link slots        : "
              f"{args.link_slots if args.link_slots else 'unlimited'}")

    def _print_shared(trace) -> None:
        R.out(f"energy            : {trace.energy_j:.1f} J "
              f"(compute {trace.compute_energy_j:.1f}, "
              f"transfers {trace.transfer_energy_j:.2f}, "
              f"idle {trace.idle_energy_j:.1f})")
        if trace.wasted_energy_j:
            R.out(f"wasted energy     : {trace.wasted_energy_j:.1f} J "
                  f"(rolled-back work)")
        if trace.n_area_waits:
            R.out(f"area waits        : {trace.n_area_waits} task(s), "
                  f"{trace.area_wait_time * 1e3:.1f} ms total")
        if trace.n_link_waits:
            R.out(f"link waits        : {trace.n_link_waits} transfer(s), "
                  f"{trace.link_wait_time * 1e3:.1f} ms total")

    try:
        if args.arrivals > 1:
            jobs = periodic_stream(g, mapping, args.arrivals, period=args.period)
            engine = RuntimeEngine(
                platform, noise=noise, scenarios=scenarios,
                replan_policy=args.replan_policy,
                link_slots=args.link_slots,
                slowdown_replan_threshold=args.slowdown_replan_threshold,
            )
            trace = engine.run(jobs, rng=args.seed)
            if obs.enabled():
                _TRACE_EXTRA.extend(
                    obs.runtime_trace_to_chrome_events(trace, platform)
                )
            R.out(f"stream            : {args.arrivals} arrivals, "
                  f"period {args.period * 1e3:g} ms")
            R.out(f"serving           : {throughput_report(trace)}")
            _print_shared(trace)
            return 0

        if args.replications > 1:
            traces = replicate(
                g, platform, mapping, n=args.replications, noise=noise,
                scenarios=scenarios, seed=args.seed,
                replan_policy=args.replan_policy,
                link_slots=args.link_slots,
                slowdown_replan_threshold=args.slowdown_replan_threshold,
            )
            report = robustness_report(traces, analytic)
            R.out(f"replications      : {report.n} ({noise.describe()})")
            R.out(f"mean makespan     : {report.mean * 1e3:.2f} ms "
                  f"(degradation {report.degradation:+.1%})")
            R.out(f"p95 makespan      : {report.p95 * 1e3:.2f} ms "
                  f"(degradation {report.p95_degradation:+.1%})")
            R.out(f"best / worst      : {report.best * 1e3:.2f} ms / "
                  f"{report.worst * 1e3:.2f} ms")
            R.out(f"mean energy       : "
                  f"{float(np.mean([t.energy_j for t in traces])):.1f} J "
                  f"per run")
            mean_we = float(np.mean([t.wasted_energy_j for t in traces]))
            if mean_we > 0:
                R.out(f"mean wasted energy: {mean_we:.1f} J "
                      f"(rolled-back work)")
            mean_aw = float(np.mean([t.area_wait_time for t in traces]))
            mean_lw = float(np.mean([t.link_wait_time for t in traces]))
            if mean_aw > 0:
                R.out(f"mean area wait    : {mean_aw * 1e3:.1f} ms")
            if mean_lw > 0:
                R.out(f"mean link wait    : {mean_lw * 1e3:.1f} ms")
            return 0

        trace = simulate_mapping(
            g, platform, mapping, noise=noise, scenarios=scenarios,
            rng=args.seed, replan_policy=args.replan_policy,
            link_slots=args.link_slots,
            slowdown_replan_threshold=args.slowdown_replan_threshold,
        )
    except ValueError as exc:  # bad stream/job parameters
        R.error(exc)
        return 2
    except RuntimeError as exc:  # the scenario left no feasible platform
        R.error(f"simulation aborted: {exc}")
        return 1
    if obs.enabled():
        _TRACE_EXTRA.extend(
            obs.runtime_trace_to_chrome_events(trace, platform)
        )
    R.out(f"simulated makespan: {trace.makespan * 1e3:.2f} ms")
    if trace.n_killed:
        R.out(f"tasks killed      : {trace.n_killed}")
    n_remapped = sum(job.n_remapped for job in trace.jobs)
    if n_remapped:
        R.out(f"tasks remapped    : {n_remapped}")
    if trace.n_fallback_dead:
        R.out(f"dead fallbacks    : {trace.n_fallback_dead}")
    _print_shared(trace)
    if args.gantt:
        R.out(render_gantt(trace, model))
    return 0


def cmd_experiment(args) -> int:
    from .experiments import EXPERIMENTS, write_csv
    from .parallel import ItemFailedError, JournalError

    name, kwargs = args.name, {}
    if args.topology is not None:
        # ``contention --topology`` runs the topology sweep of the same streams
        if name == "contention":
            name = "topology"
        if name != "topology":
            R.error("--topology is only supported for the contention and "
                    "topology experiments")
            return 2
        kwargs["topologies"] = args.topology or None
    entry = EXPERIMENTS[name]
    try:
        # at the default level the reporter drops progress lines; with
        # --verbose they stream per point/cell
        result = entry.run(
            args.scale, seed=args.seed, workers=args.workers,
            progress=R.detail, checkpoint=args.checkpoint,
            resume=args.resume, **kwargs,
        )
    except (ValueError, JournalError) as exc:
        R.error(str(exc))
        return 2
    except ItemFailedError as exc:  # a cell exhausted its attempt budget
        R.error(f"experiment aborted: {exc}")
        return 1
    R.out(entry.format(result))
    if args.csv:
        R.out(f"csv written to {write_csv(result)}")
    return 0


def _metric_line(name: str, value) -> str:
    """One rendered metrics row (counters, gauges and histograms)."""
    if isinstance(value, dict):
        if "gauge" in value:
            value = value["gauge"]
        else:  # histogram snapshot
            mean = value.get("mean")
            return (
                f"{name:<28s} n={value['n']}"
                + (f" mean={mean:.6g}" if mean is not None else "")
                + (f" max={value['max']:.6g}"
                   if value.get("max") is not None else "")
            )
    if isinstance(value, float):
        return f"{name:<28s} {value:.6g}"
    return f"{name:<28s} {value}"


def cmd_profile(args) -> int:
    from .runtime import RuntimeEngine, periodic_stream

    if args.arrivals < 0:
        R.error("--arrivals must be >= 0")
        return 2
    try:
        g = load_graph(args.graph)
        platform = _load_platform(args)
    except (OSError, ValueError, KeyError) as exc:
        R.error(f"cannot load inputs: {exc}")
        return 2

    tracer, registry = obs.observe()
    # pre-touch the supervision counters so the metrics dump always shows
    # them (zero on a run that needed no retries/rebuilds)
    for name in ("parallel.retries", "parallel.timeouts",
                 "parallel.pool_rebuilds"):
        registry.counter(name).inc(0)
    try:
        evaluator = _evaluator(g, args, platform)
        mapper = MAPPER_FACTORIES[args.algorithm]()
        result = mapper.map(evaluator, rng=np.random.default_rng(args.seed))
        extra_events: List[dict] = []
        rtrace = None
        if args.arrivals > 1:
            jobs = periodic_stream(
                g, list(result.mapping), args.arrivals, period=args.period
            )
            engine = RuntimeEngine(platform)
            rtrace = engine.run(jobs, rng=args.seed)
            extra_events = obs.runtime_trace_to_chrome_events(
                rtrace, platform
            )
    finally:
        obs.shutdown()

    R.out(f"profile           : {mapper.name} on {g.n_tasks} tasks / "
          f"{platform.n_devices} devices")
    R.out(f"makespan          : {result.makespan * 1e3:.2f} ms "
          f"({result.n_evaluations} evaluations)")
    if rtrace is not None:
        R.out(f"stream            : {args.arrivals} arrivals, "
              f"period {args.period * 1e3:g} ms, "
              f"simulated makespan {rtrace.makespan * 1e3:.2f} ms")
    R.out("")
    totals = tracer.phase_totals()
    run_ns = sum(
        ns for name, (_c, ns) in totals.items()
        if name in ("mapper.run", "engine.run")
    ) or 1
    R.out(f"{'phase':<28s} {'calls':>6s} {'total':>12s} {'share':>7s}")
    R.out("-" * 56)
    for name, (calls, total_ns) in totals.items():
        R.out(f"{name:<28s} {calls:>6d} {total_ns / 1e6:>9.2f} ms "
              f"{total_ns / run_ns:>6.1%}")
    snapshot = registry.snapshot()
    if snapshot:
        R.out("")
        R.out("metrics")
        R.out("-" * 56)
        for name, value in snapshot.items():
            R.out(_metric_line(name, value))
    if args.trace:
        obs.write_chrome(tracer, args.trace, extra_events=extra_events)
        R.out("")
        R.out(f"wrote {args.trace} (open at https://ui.perfetto.dev)")
    return 0


def cmd_env(args) -> int:
    env = obs.collect_env()
    if args.json:
        R.out(json.dumps(env, indent=2))
    else:
        R.out(obs.format_env(env))
    return 0


def _default_lint_paths() -> List[str]:
    """``src tests benchmarks`` when run from a checkout, else the
    installed package directory."""
    import os

    paths = [p for p in ("src", "tests", "benchmarks") if os.path.isdir(p)]
    if paths:
        return paths
    return [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]


def cmd_lint(args) -> int:
    from . import analysis

    if args.list_rules:
        for rule in analysis.all_rules():
            R.out(f"{rule.code}  {rule.title}")
            R.out(f"        {rule.contract}")
        return 0
    paths = args.paths or _default_lint_paths()
    try:
        report = analysis.run_lint(
            paths,
            select=args.select,
            ignore=args.ignore,
        )
    except (analysis.LintError, analysis.RuleSelectionError) as exc:
        R.error(f"lint: {exc}")
        return 2
    if args.json:
        R.out(json.dumps(report.to_json(), indent=2))
    else:
        for f in report.findings:
            R.out(f.render())
        for err in report.errors:
            R.out(f"error: {err}")
        tail = f"{len(report.findings)} finding(s) in {report.n_files} file(s)"
        if report.n_suppressed:
            tail += f", {report.n_suppressed} suppressed"
        R.out(tail)
    return 0 if report.clean else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also show debug-level report lines")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the report body (warnings/errors only)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a task graph")
    p.add_argument("--kind", default="sp",
                   help=f"sp | almost-sp | {' | '.join(sorted(WORKFLOW_FAMILIES))}")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--extra-edges", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("decompose", help="run Algorithm 1 on a graph")
    p.add_argument("graph")
    p.add_argument("--strategy", default="random",
                   choices=["random", "first", "smallest", "largest"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trees", action="store_true", help="print every tree")
    p.add_argument("--dot", help="write a clustered DOT file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("map", help="map a graph")
    p.add_argument("graph")
    p.add_argument("--algorithm", default="sp-first-fit",
                   choices=sorted(MAPPER_FACTORIES))
    p.add_argument("--platform", help="platform JSON (default: paper platform)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-seed", type=int, default=0)
    p.add_argument("--schedules", type=int, default=100)
    p.add_argument("-o", "--output", help="mapping JSON output")
    p.add_argument("--dot", help="write a colored DOT file")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("evaluate", help="evaluate a stored mapping")
    p.add_argument("graph")
    p.add_argument("mapping")
    p.add_argument("--platform")
    p.add_argument("--eval-seed", type=int, default=0)
    p.add_argument("--schedules", type=int, default=100)
    p.add_argument("--gantt", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="compare algorithms on one graph")
    p.add_argument("graph")
    p.add_argument("--algorithms", nargs="+",
                   default=["heft", "peft", "sn-first-fit", "sp-first-fit"],
                   choices=sorted(MAPPER_FACTORIES))
    p.add_argument("--platform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-seed", type=int, default=0)
    p.add_argument("--schedules", type=int, default=100)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "simulate",
        help="stress-test a mapping in the runtime engine",
    )
    p.add_argument("graph")
    p.add_argument("mapping", nargs="?",
                   help="mapping JSON (or use --algorithm to map first)")
    p.add_argument("--algorithm", choices=sorted(MAPPER_FACTORIES),
                   help="map the graph with this algorithm instead of a file")
    p.add_argument("--platform", help="platform JSON (default: paper platform)")
    p.add_argument("--noise", default="none",
                   choices=["none", "lognormal", "gamma"])
    p.add_argument("--sigma", type=float, default=None,
                   help="noise level (lognormal sigma / gamma cv; default 0.2)")
    p.add_argument("--transfer-noise", type=float, default=None,
                   help="noise level for data transfers (default: none)")
    p.add_argument("--replications", type=int, default=1,
                   help="independently-seeded runs for a robustness report")
    p.add_argument("--fail", action="append", metavar="DEV@T",
                   help="fail a device at time T (repeatable)")
    p.add_argument("--slowdown", action="append", metavar="DEV@T:FACTOR",
                   help="slow a device by FACTOR from time T (repeatable)")
    from .runtime.replan import REPLAN_POLICY_NAMES

    p.add_argument("--replan-policy", default="fallback",
                   choices=list(REPLAN_POLICY_NAMES),
                   help="on --fail (or a past-threshold --slowdown), rescue "
                        "work with the fixed fallback or by re-running a "
                        "mapper on the surviving/degraded platform")
    p.add_argument("--slowdown-replan-threshold", type=float, default=2.0,
                   help="cumulative --slowdown factor at which the replan "
                        "policy re-maps the degraded device's work "
                        "(must exceed 1; default 2.0)")
    p.add_argument("--arrivals", type=int, default=1,
                   help="simulate N periodic arrivals of the workflow")
    p.add_argument("--period", type=float, default=0.0,
                   help="arrival period in seconds (with --arrivals)")
    p.add_argument("--link-slots", type=int, default=None,
                   help="bound concurrent host<->device transfers on the "
                        "shared interconnect (0 = unlimited; default: "
                        "platform setting)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-seed", type=int, default=0)
    p.add_argument("--schedules", type=int, default=100)
    p.add_argument("--gantt", action="store_true",
                   help="render the simulated schedule as ASCII Gantt")
    p.add_argument("--trace", metavar="OUT.json",
                   help="record a Chrome trace (wall-clock spans + the "
                        "simulated-time engine timeline) viewable in "
                        "Perfetto")
    p.set_defaults(func=cmd_simulate)

    from .experiments import EXPERIMENTS, SCALES

    p = sub.add_parser("experiment",
                       help="regenerate a paper figure/table or run an "
                            "extension study")
    p.add_argument("name", choices=list(EXPERIMENTS))
    p.add_argument("--scale", default="smoke", choices=list(SCALES))
    p.add_argument("--seed", type=int, default=None,
                   help="root seed (default: the experiment's own)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size for the experiment backbone "
                        "(default: scale config; 0 = one worker per CPU)")
    p.add_argument("--csv", action="store_true",
                   help="also write the result CSV into results/ "
                        "(or $REPRO_RESULTS_DIR)")
    p.add_argument("--trace", metavar="OUT.json",
                   help="record a Chrome trace of the sweep (per-point "
                        "spans, per-worker lanes) viewable in Perfetto")
    p.add_argument("--checkpoint", nargs="?", const="auto", metavar="PATH",
                   help="journal completed cells so an interrupted sweep "
                        "can restart (default path under "
                        "results/checkpoints)")
    p.add_argument("--resume", action="store_true",
                   help="with --checkpoint: reuse journalled cells from an "
                        "interrupted run, recomputing only the rest "
                        "(byte-identical output)")
    p.add_argument("--topology", nargs="*", metavar="NAME", default=None,
                   help="contention/topology only: add interconnect "
                        "shapes as an outer axis, crossed with the link "
                        "slots and arrival periods; bare --topology uses "
                        "the scale's defaults, or name each at most once "
                        "from: shared, mesh, numa, ring, star")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "profile",
        help="phase-time breakdown of a mapper (and optional engine) run",
    )
    p.add_argument("graph")
    p.add_argument("--algorithm", default="sp-first-fit",
                   choices=sorted(MAPPER_FACTORIES))
    p.add_argument("--platform", help="platform JSON (default: paper platform)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-seed", type=int, default=0)
    p.add_argument("--schedules", type=int, default=100)
    p.add_argument("--arrivals", type=int, default=0,
                   help="also run a multi-job engine stream of N arrivals "
                        "and include its simulated-time timeline")
    p.add_argument("--period", type=float, default=0.0,
                   help="arrival period in seconds (with --arrivals)")
    p.add_argument("--trace", metavar="OUT.json",
                   help="write the Chrome trace for https://ui.perfetto.dev")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "env", help="print the environment diagnostic header"
    )
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")
    p.set_defaults(func=cmd_env)

    p = sub.add_parser(
        "lint",
        help="check the repo's reproducibility invariants (AST lint)",
        description="Static checks for the invariants the test suite "
                    "enforces by example: seeded randomness, no wall-clock "
                    "reads in algorithms, write-only observability, "
                    "single-sourced tolerances, picklable parallel_map "
                    "payloads, no silent excepts, and C-kernel constant "
                    "mirrors.  Exit status: 0 clean, 1 findings, 2 usage "
                    "errors.",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: src tests "
                        "benchmarks, when present)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report (schema v1)")
    p.add_argument("--select", metavar="CODES",
                   help="comma-separated rule codes to run (default: all)")
    p.add_argument("--ignore", metavar="CODES",
                   help="comma-separated rule codes to skip")
    p.add_argument("--list-rules", action="store_true",
                   help="list rule codes with their contracts and exit")
    p.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    R.configure(verbose=args.verbose, quiet=args.quiet)
    # --trace on simulate/experiment: observe around the whole command
    # and write the combined document afterwards.  (profile manages its
    # own tracer so its report can read the collected data.)
    trace_path = getattr(args, "trace", None)
    if trace_path and args.func is not cmd_profile:
        _TRACE_EXTRA.clear()
        tracer, _registry = obs.observe()
        try:
            rc = args.func(args)
        finally:
            obs.shutdown()
        if rc == 0:
            obs.write_chrome(tracer, trace_path, extra_events=_TRACE_EXTRA)
            R.out(f"wrote {trace_path} (open at https://ui.perfetto.dev)")
        return rc
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
