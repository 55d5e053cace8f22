"""The observability backbone's hard contracts.

Five pins, matching the guarantees documented in ``repro/obs/__init__``:

1. **Round trip** — a Chrome trace-event export reconstructs to the
   same span records (names, categories, lanes, args, durations,
   relative starts), driven by a deterministic fake clock.
2. **Deterministic merge** — ``parallel_map`` with ``workers=1`` and
   ``workers=N`` produces the *same* merged span structure and the
   *same* metrics snapshot.
3. **No-op path** — with observability off, ``span()`` returns a shared
   singleton (no allocation) and nothing is recorded anywhere.
4. **Bit-identical results** — enabling tracing + metrics changes no
   numeric output of any mapper or the runtime engine.
5. **Off the hot path** — a mapper run makes as many tracer and
   registry calls on a 200-task graph as on a 50-task one.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.evaluation import MappingEvaluator
from repro.graphs.generators import random_sp_graph
from repro.io import graph_to_dict, mapping_to_dict
from repro.mappers import (
    HeftMapper,
    NsgaIIMapper,
    SimulatedAnnealingMapper,
    sp_first_fit,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import _NOOP, Tracer
from repro.parallel import parallel_map
from repro.platform import paper_platform
from repro.runtime import simulate_mapping


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability disabled."""
    obs.shutdown()
    yield
    obs.shutdown()


class FakeClock:
    """Monotonic integer clock advancing a fixed step per read."""

    def __init__(self, step_ns: int = 1000) -> None:
        self.t = 0
        self.step = step_ns

    def __call__(self) -> int:
        self.t += self.step
        return self.t


# ---------------------------------------------------------------------------
# 1. Chrome export round trip
# ---------------------------------------------------------------------------
class TestChromeRoundTrip:
    def _sample_tracer(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", "phase", {"n": 3}):
            with tracer.span("inner", "phase"):
                pass
            tracer.instant("marker", "event", {"kind": "tick"})
        lane = tracer.alloc_lane("worker 0")
        tracer.lane = lane
        with tracer.span("worker.item", "work"):
            pass
        tracer.lane = 0
        return tracer

    def test_spans_survive_round_trip(self):
        tracer = self._sample_tracer()
        doc = obs.to_chrome(tracer)
        got = obs.spans_from_chrome(doc)
        t_min = min(s[2] for s in tracer.spans)
        want = [
            (name, cat, t0 - t_min, dur, lane, args)
            for name, cat, t0, dur, lane, args in tracer.spans
        ]
        # to_chrome emits spans in record order; relative layout is exact
        assert got == want

    def test_document_shape(self):
        tracer = self._sample_tracer()
        doc = obs.to_chrome(tracer, process_name="test-proc")
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        phases = {ev["ph"] for ev in events}
        assert phases == {"M", "X", "i"}
        names = {
            ev["args"]["name"] for ev in events if ev["ph"] == "M"
        }
        assert {"test-proc", "main", "worker 0"} <= names
        instants = [ev for ev in events if ev["ph"] == "i"]
        assert instants[0]["name"] == "marker"
        assert instants[0]["s"] == "t"

    def test_write_chrome_is_valid_json(self, tmp_path):
        tracer = self._sample_tracer()
        path = str(tmp_path / "trace.json")
        obs.write_chrome(tracer, path)
        doc = json.loads(open(path).read())
        assert obs.spans_from_chrome(doc) == obs.spans_from_chrome(
            obs.to_chrome(tracer)
        )

    def test_phase_totals(self):
        tracer = Tracer(clock=FakeClock(10))
        for _ in range(3):
            with tracer.span("a"):
                pass
        with tracer.span("b"):
            pass
        totals = tracer.phase_totals()
        assert list(totals) == ["a", "b"]
        assert totals["a"] == (3, 30)
        assert totals["b"] == (1, 10)


# ---------------------------------------------------------------------------
# 2. metrics registry
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram_snapshot(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        h = reg.histogram("h")
        h.observe_int(0)
        h.observe_int(5)
        h.observe(12.5)
        snap = reg.snapshot()
        assert snap["c"] == 5
        assert snap["g"] == {"gauge": 2.5}
        assert snap["h"]["n"] == 3
        assert snap["h"]["total"] == 17.5
        # 0 -> bucket 0, 5 -> bucket 3, 12 -> bucket 4
        assert snap["h"]["buckets"] == [1, 0, 0, 1, 1]

    def test_merge_reconstructs_kinds(self):
        a = obs_metrics.MetricsRegistry()
        a.counter("c").inc(2)
        a.gauge("g").set(1.0)
        a.histogram("h").observe(3)
        b = obs_metrics.MetricsRegistry()
        b.counter("c").inc(3)
        b.gauge("g").set(7.0)
        b.histogram("h").observe(4)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["c"] == 5
        assert snap["g"] == {"gauge": 7.0}  # merge keeps the max
        assert snap["h"]["n"] == 2
        assert snap["h"]["min"] == 3 and snap["h"]["max"] == 4
        # merging into an empty registry creates the right instrument kinds
        c = obs_metrics.MetricsRegistry()
        c.merge(snap)
        assert type(c.gauge("g")) is obs_metrics.Gauge
        assert type(c.counter("c")) is obs_metrics.Counter

    def test_kind_collision_raises(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")


# ---------------------------------------------------------------------------
# 3. no-op path when disabled
# ---------------------------------------------------------------------------
class TestNoopPath:
    def test_span_returns_shared_singleton(self):
        assert not obs.enabled()
        s1 = obs.span("anything", "cat", {"k": 1})
        s2 = obs.span("else")
        assert s1 is _NOOP and s2 is _NOOP
        with s1:
            pass  # enters and exits without effect

    def test_instant_is_noop(self):
        obs.instant("nothing")  # must not raise, records nowhere
        assert obs.get_tracer() is None
        assert obs.get_registry() is None

    def test_observe_shutdown_round_trip(self):
        tracer, registry = obs.observe()
        assert obs.enabled()
        with obs.span("x"):
            pass
        got_tracer, got_registry = obs.shutdown()
        assert got_tracer is tracer and got_registry is registry
        assert len(tracer.spans) == 1
        assert not obs.enabled()

    def test_observing_context_manager(self):
        with obs.observing() as (tracer, registry):
            with obs.span("y"):
                pass
            obs.get_registry().counter("n").inc()
        assert not obs.enabled()
        assert tracer.spans[0][0] == "y"
        assert registry.snapshot()["n"] == 1

    def test_population_call_counter_names(self):
        """One ``kernel.calls.*`` counter per population path."""
        from repro.evaluation import CostModel
        from repro.evaluation._ckernel import load_ckernel
        from repro.platform import paper_platform

        g = random_sp_graph(12, np.random.default_rng(0))
        pop = np.zeros((4, 12), dtype=np.int64)
        modes = [(False, "kernel.calls.py")]
        if load_ckernel() is not None:
            modes.append((True, "kernel.calls.c_batch"))
        for use_ckernel, name in modes:
            model = CostModel(g, paper_platform(), use_ckernel=use_ckernel)
            with obs.observing() as (_tracer, registry):
                model.simulate_many(pop)
            calls = {k: v for k, v in registry.snapshot().items()
                     if k.startswith("kernel.calls.")}
            assert calls == {name: 1}


# ---------------------------------------------------------------------------
# 4. deterministic multi-worker merge
# ---------------------------------------------------------------------------
def _obs_pool_worker(item):
    """Module-level (picklable) worker that records a span + metrics."""
    with obs_trace.span("work.item", "test"):
        registry = obs_metrics.get_registry()
        if registry is not None:
            registry.counter("work.items").inc()
            registry.histogram("work.size").observe_int(item)
    return item * 2


def _run_observed_pool(workers: int):
    obs.observe()
    try:
        results = parallel_map(
            _obs_pool_worker, [3, 5, 9], workers=workers, label="work"
        )
    finally:
        tracer, registry = obs.shutdown()
    structure = [(name, cat, lane) for name, cat, _t0, _dur, lane, _a
                 in tracer.spans]
    return results, structure, dict(tracer.lane_labels), registry.snapshot()


class TestWorkerMerge:
    def test_serial_and_pooled_traces_agree(self):
        serial = _run_observed_pool(workers=1)
        pooled = _run_observed_pool(workers=2)
        assert serial == pooled
        results, structure, labels, snap = serial
        assert results == [6, 10, 18]
        # one lane per item, in submission order
        assert structure == [
            ("work.item", "test", 1),
            ("work.item", "test", 2),
            ("work.item", "test", 3),
        ]
        assert labels == {0: "main", 1: "work 0", 2: "work 1", 3: "work 2"}
        assert snap["work.items"] == 3
        assert snap["work.size"]["n"] == 3
        assert snap["work.size"]["total"] == 17

    def test_unobserved_pool_results_match(self):
        plain = parallel_map(_obs_pool_worker, [3, 5, 9], workers=2)
        assert plain == [6, 10, 18]


# ---------------------------------------------------------------------------
# 5. bit-identical numeric outputs with observability on
# ---------------------------------------------------------------------------
def _map_once(mapper_factory, observed: bool):
    g = random_sp_graph(30, np.random.default_rng(7))
    ev = MappingEvaluator(
        g, paper_platform(), rng=np.random.default_rng(5),
        n_random_schedules=10,
    )
    if observed:
        obs.observe()
    try:
        result = mapper_factory().map(ev, rng=np.random.default_rng(42))
    finally:
        if observed:
            obs.shutdown()
    return list(result.mapping), result.makespan, result.n_evaluations


class TestBitIdentical:
    @pytest.mark.parametrize("factory", [
        sp_first_fit,
        lambda: SimulatedAnnealingMapper(iterations=300),
        HeftMapper,
    ], ids=["sp_first_fit", "annealing", "heft"])
    def test_mapper_trajectory_unchanged(self, factory):
        off = _map_once(factory, observed=False)
        on = _map_once(factory, observed=True)
        assert off == on

    def test_engine_trace_unchanged(self):
        g = random_sp_graph(20, np.random.default_rng(3))
        platform = paper_platform()
        mapping = [0] * g.n_tasks
        off = simulate_mapping(g, platform, mapping, rng=11)
        obs.observe()
        try:
            on = simulate_mapping(g, platform, mapping, rng=11)
        finally:
            tracer, registry = obs.shutdown()
        assert off.makespan == on.makespan
        assert [
            (t.task, t.device, t.start, t.finish) for t in off.tasks
        ] == [(t.task, t.device, t.start, t.finish) for t in on.tasks]
        # the observed run actually recorded the engine span + metrics
        assert any(s[0] == "engine.run" for s in tracer.spans)
        assert registry.snapshot()["runtime.runs"] == 1


    def test_runtime_study_csv_unchanged_and_point_span_recorded(self):
        import dataclasses
        import io

        from repro.experiments import EXPERIMENTS, get_scale, write_csv

        tiny = dataclasses.replace(
            get_scale("smoke"), robustness_noise_levels=[0.2],
            robustness_replications=2, robustness_n_tasks=12,
            robustness_graphs=2, nsga_generations=4, n_random_schedules=3,
        )

        def csv_text():
            buf = io.StringIO()
            write_csv(EXPERIMENTS["robustness"].run(tiny, workers=1),
                      fileobj=buf)
            return buf.getvalue()

        off = csv_text()
        obs.observe()
        try:
            on = csv_text()
        finally:
            tracer, registry = obs.shutdown()
        assert on == off
        # the roster-mapping step is the study's sweep point
        assert [s for s in tracer.spans if s[0] == "experiment.point"]
        snap = registry.snapshot()
        assert snap["experiment.points"] == 1
        assert snap["experiment.graphs"] == 2


# ---------------------------------------------------------------------------
# 6. simulated-time engine timeline
# ---------------------------------------------------------------------------
class TestTimeline:
    def test_runtime_trace_to_chrome_events(self):
        g = random_sp_graph(15, np.random.default_rng(4))
        platform = paper_platform()
        trace = simulate_mapping(g, platform, [0] * g.n_tasks, rng=2)
        events = obs.runtime_trace_to_chrome_events(trace, platform)
        assert all(ev["pid"] == 1 for ev in events)
        task_events = [ev for ev in events
                       if ev["ph"] == "X" and ":t" in ev.get("name", "")]
        assert len(task_events) == g.n_tasks
        # device lanes carry the platform's device names
        thread_names = {
            ev["args"]["name"] for ev in events
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert "jobs" in thread_names
        assert any(d.name in thread_names for d in platform.devices)


# ---------------------------------------------------------------------------
# 7. CLI: env / profile / --trace / volume flags
# ---------------------------------------------------------------------------
class TestCli:
    @pytest.fixture()
    def graph_file(self, tmp_path):
        g = random_sp_graph(15, np.random.default_rng(1))
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph_to_dict(g)))
        return str(path)

    def test_env(self, capsys):
        assert cli_main(["env"]) == 0
        out = capsys.readouterr().out
        assert "python" in out and "kernel" in out

    def test_env_json(self, capsys):
        assert cli_main(["env", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kernel"] in ("c", "python")
        assert "numpy" in doc

    def test_profile_mapper_only(self, graph_file, tmp_path, capsys):
        trace_path = str(tmp_path / "profile.json")
        rc = cli_main([
            "profile", graph_file, "--algorithm", "sp-first-fit",
            "--schedules", "10", "--trace", trace_path,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase" in out and "mapper.run" in out
        assert "metrics" in out
        doc = json.loads(open(trace_path).read())
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert {"mapper.run", "mapper.decompose"} <= names

    def test_profile_with_engine_stream(self, graph_file, tmp_path, capsys):
        trace_path = str(tmp_path / "profile.json")
        rc = cli_main([
            "profile", graph_file, "--schedules", "10",
            "--arrivals", "3", "--period", "0.05", "--trace", trace_path,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine.run" in out and "stream" in out
        doc = json.loads(open(trace_path).read())
        pids = {ev["pid"] for ev in doc["traceEvents"]}
        assert pids == {0, 1}  # wall clock + simulated timeline

    def test_simulate_trace_flag(self, graph_file, tmp_path, capsys):
        g_doc = json.loads(open(graph_file).read())
        from repro.io import load_graph

        g = load_graph(graph_file)
        platform = paper_platform()
        mpath = tmp_path / "mapping.json"
        mpath.write_text(json.dumps(
            mapping_to_dict(g, platform, [0] * g.n_tasks)
        ))
        trace_path = str(tmp_path / "run.json")
        rc = cli_main([
            "simulate", graph_file, str(mpath), "--trace", trace_path,
        ])
        assert rc == 0
        assert "perfetto" in capsys.readouterr().out
        doc = json.loads(open(trace_path).read())
        pids = {ev["pid"] for ev in doc["traceEvents"]}
        assert pids == {0, 1}
        assert g_doc["tasks"]  # graph file untouched by tracing

    def test_quiet_suppresses_report(self, graph_file, capsys):
        rc = cli_main(["--quiet", "profile", graph_file,
                       "--schedules", "10"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        # restore default volume for subsequent tests in this process
        cli_main(["env"])
        assert capsys.readouterr().out != ""

    def test_verbose_shows_progress(self, capsys):
        rc = cli_main(["--verbose", "experiment", "fig4",
                       "--scale", "smoke"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "done" in out  # progress ticks surface at --verbose
        cli_main(["env"])
        capsys.readouterr()


# ---------------------------------------------------------------------------
# 8. enabled overhead, counted: instrument calls per run do not grow
# ---------------------------------------------------------------------------
@pytest.fixture()
def record_calls(monkeypatch):
    """Count instrument lookups (``_get``, behind counter/gauge/histogram)
    and every ``inc``/``set``/``observe``."""
    calls = {}
    for cls, method in ((obs_metrics.MetricsRegistry, "_get"),
                        (obs_metrics.Counter, "inc"),
                        (obs_metrics.Gauge, "set"),
                        (obs_metrics.Histogram, "observe")):
        def counted(self, *args, _orig=getattr(cls, method), _key=method):
            calls[_key] = calls.get(_key, 0) + 1
            return _orig(self, *args)
        monkeypatch.setattr(cls, method, counted)
    return calls


def _observed_calls(record_calls, factory, n_tasks):
    g = random_sp_graph(n_tasks, np.random.default_rng(1234))
    ev = MappingEvaluator(g, paper_platform(), rng=np.random.default_rng(5),
                          n_random_schedules=2)
    record_calls.clear()
    obs.observe()
    try:
        factory().map(ev, rng=np.random.default_rng(42))
    finally:
        tracer, _registry = obs.shutdown()
    return dict(record_calls, spans=len(tracer.spans),
                instants=len(tracer.instants))


class TestEnabledOverhead:
    """Contract 3, pinned by counting instead of timing.

    Every span, instant, instrument lookup and ``inc``/``set``/``observe``
    is a per-run or per-batch cost: a 4x larger graph (~4x the delta
    evaluations) makes exactly as many.  The only per-move record is
    ``Histogram.observe_int`` on a handle captured once per run (the
    ``delta.suffix_len`` bucket increment), which is left out of the
    count.  Wall-clock overhead is recorded by perfbench's
    ``bench.trace_overhead``.
    """

    @pytest.mark.parametrize("factory", [
        sp_first_fit,
        lambda: NsgaIIMapper(generations=30, population_size=50),
    ], ids=["sp_first_fit", "nsgaii"])
    def test_instrument_calls_do_not_grow_with_graph_size(
            self, record_calls, factory):
        small = _observed_calls(record_calls, factory, 50)
        large = _observed_calls(record_calls, factory, 200)
        assert small["spans"] > 0 and small["_get"] > 0
        assert small == large
