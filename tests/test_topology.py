"""Topology-aware platforms: the link-graph layer's exactness contracts.

PR 10 replaced the implicit all-pairs interconnect with an explicit
:class:`~repro.platform.links.LinkGraph` (per-device-pair links with
bandwidth/latency/slots plus deterministic shortest-hop routing) whose
routed *effective* matrices feed every existing evaluation path.  The
contracts pinned here:

- **Routing is table-build-time only.**  A star topology with unlimited
  slots is *bit-identical* to the flattened platform carrying the same
  effective matrices, on every path: the reference walk, the scalar
  kernel (Python and C), the batch kernel, the delta evaluator, and the
  runtime engine.  A mesh built from legacy matrices reproduces them
  bit for bit (the 1-hop-verbatim rule: no ``1/(1/x)`` float trips).
- **Per-link slot pools generalize the shared pool.**  Finite-width
  links queue transfers per link (whole-route claims); ``link_slots=0``
  means *unlimited* everywhere (Platform, Link, engine), and the
  engine's explicit ``link_slots=0`` force-disables even per-link
  pools.  :class:`~repro.runtime.events.LinkWait` names the blocking
  link (``-1`` for the legacy shared pool).
- **JSON back-compat.**  Legacy matrix platform files round-trip byte
  for byte; link-graph files round-trip exactly; malformed link specs
  exit 2 from the CLI.
- **Determinism.**  ``run_topologies`` is bit-identical serial vs
  ``--workers 2``, and its mesh/unlimited cells equal the shared-pool
  unlimited cells exactly (the sweep's built-in equivalence anchor).
"""

import json

import numpy as np
import pytest

from repro.evaluation import CostModel, DeltaEvaluator
from repro.evaluation._ckernel import load_ckernel
from repro.graphs.generators import random_sp_graph
from repro.io import (
    FormatError,
    load_platform,
    platform_from_dict,
    platform_to_dict,
    save_graph,
    save_platform,
)
from repro.obs.timeline import runtime_trace_to_chrome_events
from repro.platform import (
    Link,
    LinkGraph,
    Platform,
    TOPOLOGY_NAMES,
    make_topology,
    mesh,
    numa_pairs,
    paper_platform,
    ring,
    star,
    with_topology,
)
from repro.runtime import RuntimeEngine, periodic_stream
from repro.runtime.replan import _surviving_platform

HAVE_CKERNEL = load_ckernel() is not None

MODES = [False] + ([None] if HAVE_CKERNEL else [])
MODE_IDS = ["python"] + (["ckernel"] if HAVE_CKERNEL else [])


def bench_graph(n=16, seed=3):
    return random_sp_graph(n, np.random.default_rng(seed))


def spread_mapping(g, platform, seed=7):
    rng = np.random.default_rng(seed)
    return [int(d) for d in rng.integers(0, platform.n_devices, g.n_tasks)]


def contended_trace(platform, *, link_slots=None, n_jobs=4, seed=7):
    """Replay a short periodic stream — dense enough to queue transfers."""
    g = bench_graph()
    mapping = spread_mapping(g, platform, seed)
    analytic = CostModel(g, platform).simulate(mapping)
    jobs = periodic_stream(g, mapping, n_jobs, period=0.3 * analytic)
    return RuntimeEngine(platform, link_slots=link_slots).run(jobs)


# ---------------------------------------------------------------------------
# link graph model + routing
# ---------------------------------------------------------------------------

class TestLinkGraph:
    def test_mesh_reproduces_legacy_matrices_bit_for_bit(self):
        P = paper_platform()
        Pm = with_topology(P, "mesh")
        assert Pm.link_graph is not None
        assert np.array_equal(Pm.bandwidth_gbps, P.bandwidth_gbps)
        assert np.array_equal(Pm.latency_s, P.latency_s)

    def test_star_routes_through_the_hub(self):
        Ps = with_topology(paper_platform(), "star")
        assert [(l.a, l.b) for l in Ps.links] == [(0, 1), (0, 2)]
        assert Ps.route(0, 1) == (0,)
        assert Ps.route(1, 2) == (0, 1)   # two hops via the hub
        assert Ps.route(1, 1) == ()
        # multi-hop composition: latencies add, bandwidths harmonic
        lg = Ps.link_graph
        l01, l02 = lg.links
        assert Ps.latency_s[1][2] == l01.latency_s + l02.latency_s
        assert Ps.bandwidth_gbps[1][2] == pytest.approx(
            1.0 / (1.0 / l01.bandwidth_gbps + 1.0 / l02.bandwidth_gbps)
        )
        # 1-hop routes take the link's bandwidth VERBATIM (no 1/(1/x))
        assert Ps.bandwidth_gbps[0][1] == l01.bandwidth_gbps

    def test_all_presets_build_and_connect(self):
        P = paper_platform()
        for name in TOPOLOGY_NAMES:
            Pt = with_topology(P, name)
            m = Pt.n_devices
            for a in range(m):
                for b in range(m):
                    if a != b:
                        assert len(Pt.route(a, b)) >= 1
                        assert np.isfinite(Pt.latency_s[a][b])
        # "shared" / flat spellings are identity
        assert with_topology(P, "shared") is P

    def test_disconnected_graph_rejected(self):
        with pytest.raises(ValueError):
            LinkGraph(3, [Link(0, 1, 10.0)])

    def test_link_validation(self):
        with pytest.raises(ValueError):
            Link(0, 0, 10.0)          # self-link
        with pytest.raises(ValueError):
            Link(0, 1, -1.0)          # negative bandwidth
        assert Link(0, 1, 10.0, slots=0).slots is None   # 0 == unlimited

    def test_make_topology_names(self):
        P = paper_platform()
        for name, fn in [
            ("star", star), ("mesh", mesh), ("ring", ring),
            ("numa", numa_pairs),
        ]:
            assert make_topology(name, P) == fn(P)
        with pytest.raises(ValueError):
            make_topology("hypercube", P)


# ---------------------------------------------------------------------------
# exactness: star with unlimited slots == flattened twin, on EVERY path
# ---------------------------------------------------------------------------

class TestRoutedBitIdentity:
    @pytest.mark.parametrize("use_ckernel", MODES, ids=MODE_IDS)
    def test_scalar_batch_delta_reference(self, use_ckernel):
        g = bench_graph(18)
        Ps = with_topology(paper_platform(), "star")
        flat = Ps.with_link_graph(None)
        assert flat.link_graph is None
        assert np.array_equal(flat.bandwidth_gbps, Ps.bandwidth_gbps)

        ms = CostModel(g, Ps, use_ckernel=use_ckernel)
        mf = CostModel(g, flat, use_ckernel=use_ckernel)
        rng = np.random.default_rng(11)
        pop = rng.integers(0, Ps.n_devices, size=(12, ms.n))
        for mapping in pop:
            # scalar kernel == flattened == the nested-list reference walk
            got = ms.simulate(mapping)
            assert got == mf.simulate(mapping)
            assert got == ms._simulate_reference(mapping)
        # batch kernel
        np.testing.assert_array_equal(
            ms.simulate_many(pop), mf.simulate_many(pop)
        )
        # delta evaluator
        ds, df = DeltaEvaluator(ms), DeltaEvaluator(mf)
        base = np.zeros(ms.n, dtype=np.int64)
        assert ds.reset(base) == df.reset(base)
        for _ in range(40):
            t = int(rng.integers(ms.n))
            d = int(rng.integers(Ps.n_devices))
            cs, cf = ds.candidate([t]), df.candidate([t])
            assert ds.evaluate_move(cs, d) == df.evaluate_move(cf, d)

    def test_runtime_engine_bit_identical(self):
        Ps = with_topology(paper_platform(), "star")
        flat = Ps.with_link_graph(None)
        ts, tf = contended_trace(Ps), contended_trace(flat)
        assert ts.makespan == tf.makespan
        for js, jf in zip(ts.jobs, tf.jobs):
            for rs, rf in zip(js.tasks, jf.tasks):
                assert (rs.start, rs.finish) == (rf.start, rf.finish)

    def test_engine_matches_analytic_model_on_star(self):
        """Single job, no pools: engine == CostModel.simulate exactly."""
        g = bench_graph()
        Ps = with_topology(paper_platform(), "star")
        mapping = spread_mapping(g, Ps)
        analytic = CostModel(g, Ps).simulate(mapping)
        trace = RuntimeEngine(Ps).run(periodic_stream(g, mapping, 1, period=1.0))
        assert trace.jobs[0].makespan == analytic


# ---------------------------------------------------------------------------
# per-link slot pools + the link_slots=0 convention
# ---------------------------------------------------------------------------

class TestPerLinkPools:
    def test_zero_means_unlimited_everywhere(self):
        P = paper_platform()
        # Platform normalizes 0 -> None
        assert Platform(
            P.devices, P.bandwidth_gbps, P.latency_s, link_slots=0
        ).link_slots is None
        # engine link_slots=0 force-disables even per-link finite pools
        throttled = with_topology(P, "mesh", slots=1)
        forced = contended_trace(throttled, link_slots=0)
        free = contended_trace(with_topology(P, "mesh"))
        assert forced.makespan == free.makespan
        assert forced.n_link_waits == 0

    def test_finite_per_link_pools_diverge_from_shared_pool(self):
        P = paper_platform()
        shared = contended_trace(P, link_slots=1)
        per_link = contended_trace(with_topology(P, "mesh", slots=1))
        assert shared.n_link_waits > 0
        assert per_link.n_link_waits > 0
        # one pool serializing ALL transfers queues more than one per link
        assert per_link.makespan < shared.makespan

    def test_link_wait_names_the_blocking_link(self):
        Ps = with_topology(paper_platform(), "star", slots=1)
        trace = contended_trace(Ps)
        waits = [e for e in trace.events if e.kind == "link-wait"]
        assert waits
        assert all(0 <= w.link < Ps.n_links for w in waits)
        # legacy shared pool keeps the -1 sentinel
        legacy = contended_trace(paper_platform(), link_slots=1)
        assert all(
            e.link == -1 for e in legacy.events if e.kind == "link-wait"
        )


# ---------------------------------------------------------------------------
# JSON: legacy byte-for-byte, link graphs exact, malformed -> exit 2
# ---------------------------------------------------------------------------

class TestTopologyJson:
    def test_legacy_files_round_trip_byte_for_byte(self, tmp_path):
        p1 = str(tmp_path / "p1.json")
        p2 = str(tmp_path / "p2.json")
        save_platform(paper_platform(), p1)
        save_platform(load_platform(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        # legacy docs keep the legacy schema: matrices, no "links" key
        doc = json.load(open(p1))
        assert "links" not in doc
        assert "bandwidth_gbps" in doc and "latency_s" in doc

    def test_link_graph_round_trip_exact(self, tmp_path):
        Ps = with_topology(paper_platform(), "numa", slots=2)
        doc = platform_to_dict(Ps)
        assert "links" in doc
        assert "bandwidth_gbps" not in doc   # matrices are derived
        back = platform_from_dict(doc)
        assert back.link_graph == Ps.link_graph
        assert np.array_equal(back.bandwidth_gbps, Ps.bandwidth_gbps)
        assert np.array_equal(back.latency_s, Ps.latency_s)
        # and stable through a file
        path = str(tmp_path / "topo.json")
        save_platform(Ps, path)
        assert load_platform(path).link_graph == Ps.link_graph

    def test_malformed_links_rejected(self):
        base = platform_to_dict(with_topology(paper_platform(), "star"))
        for breakage in (
            lambda d: d["links"].append({"a": 0}),                # no b/bw
            lambda d: d["links"].append(
                {"a": 0, "b": 99, "bandwidth_gbps": 1.0}),        # bad index
            lambda d: d["links"].__setitem__(0, "not-a-dict"),
            lambda d: d.__setitem__("links", d["links"][:1]),     # disconnects
            lambda d: d.__setitem__(
                "bandwidth_gbps", [[0.0] * 3] * 3),               # both forms
        ):
            doc = json.loads(json.dumps(base))
            breakage(doc)
            with pytest.raises(FormatError):
                platform_from_dict(doc)

    def test_cli_exits_2_on_malformed_links(self, tmp_path, rng):
        from repro.cli import main

        gpath = str(tmp_path / "g.json")
        save_graph(random_sp_graph(8, rng), gpath)
        doc = platform_to_dict(with_topology(paper_platform(), "star"))
        del doc["links"][0]["bandwidth_gbps"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["map", gpath, "--platform", str(bad)]) == 2


# ---------------------------------------------------------------------------
# topology sweep determinism + equivalence anchor
# ---------------------------------------------------------------------------

class TestTopologySweep:
    def test_serial_equals_workers2_and_mesh_anchors_to_shared(self, tmp_path):
        from repro.experiments import EXPERIMENTS, write_csv
        from repro.experiments.contention import run_topologies

        seed = EXPERIMENTS["topology"].seed
        serial = run_topologies(
            "smoke", topologies=["shared", "mesh"], seed=seed, workers=1
        )
        pooled = run_topologies(
            "smoke", topologies=["shared", "mesh"], seed=seed, workers=2
        )
        assert serial.points == pooled.points
        c1 = tmp_path / "serial.csv"
        c2 = tmp_path / "pooled.csv"
        write_csv(serial, str(c1))
        write_csv(pooled, str(c2))
        assert c1.read_bytes() == c2.read_bytes()

        # equivalence anchor: mesh with unlimited slots == shared pool
        # with unlimited slots, cell by cell (routed costs are the legacy
        # matrices bit for bit, and no pools exist on either side)
        by_key = {}
        for pt in serial.points:
            by_key[(pt.topology, pt.algorithm, pt.link_slots,
                    pt.period_frac)] = pt
        anchored = 0
        for (topo, alg, slots, frac), pt in by_key.items():
            if topo != "mesh" or slots != 0:
                continue
            ref = by_key[("shared", alg, slots, frac)]
            assert pt.latency_mean_s == ref.latency_mean_s
            assert pt.makespan_s == ref.makespan_s
            assert pt.link_wait_s == ref.link_wait_s == 0.0
            anchored += 1
        assert anchored > 0

    def test_unknown_topology_rejected(self):
        from repro.experiments import EXPERIMENTS
        from repro.experiments.contention import run_topologies

        seed = EXPERIMENTS["topology"].seed
        with pytest.raises(ValueError):
            run_topologies("smoke", topologies=["hypercube"], seed=seed)
        # a repeated name would emit every one of its rows twice
        with pytest.raises(ValueError, match="duplicate"):
            run_topologies("smoke", topologies=["mesh", "mesh"], seed=seed)


# ---------------------------------------------------------------------------
# timeline: per-link lanes only when a link actually queued
# ---------------------------------------------------------------------------

class TestTimelineLinkLanes:
    def test_link_waits_get_their_own_lane(self):
        Ps = with_topology(paper_platform(), "star", slots=1)
        trace = contended_trace(Ps)
        events = runtime_trace_to_chrome_events(trace, Ps)
        n = Ps.n_devices
        lanes = {
            e["tid"]: e["args"]["name"]
            for e in events if e["name"] == "thread_name"
        }
        link_lanes = {t: s for t, s in lanes.items() if t > n}
        assert link_lanes
        assert all(s.startswith("link ") for s in link_lanes.values())
        for e in events:
            if e["name"] == "link-wait":
                assert e["tid"] == 1 + n + e["args"]["link"]

    def test_healthy_runs_add_no_lanes(self):
        Ps = with_topology(paper_platform(), "star")
        trace = contended_trace(Ps)
        events = runtime_trace_to_chrome_events(trace, Ps)
        n = Ps.n_devices
        assert {e["tid"] for e in events} <= set(range(1 + n))


# ---------------------------------------------------------------------------
# replan: surviving platforms keep (or soundly flatten) the link graph
# ---------------------------------------------------------------------------

class TestReplanSurvivingTopology:
    def test_induced_subgraph_when_still_connected(self):
        Ps = with_topology(paper_platform(), "star", slots=2)
        sub = _surviving_platform(Ps, [0, 2])   # hub survives
        assert sub.link_graph is not None
        assert [(l.a, l.b) for l in sub.links] == [(0, 1)]
        assert sub.links[0].slots == 2
        assert sub.bandwidth_gbps[0][1] == Ps.bandwidth_gbps[0][2]

    def test_disconnection_flattens_to_routed_effective_costs(self):
        # a 4-device ring whose survivors {0, 2} share no direct link:
        # the induced subgraph is disconnected, so the restriction falls
        # back to slicing the routed effective matrices
        from repro.platform import cpu, gpu

        P4 = Platform(
            [cpu("h", lane_gops=1.0, lanes=2),
             gpu("g0", lane_gops=4.0), gpu("g1", lane_gops=4.0),
             gpu("g2", lane_gops=4.0)],
            np.where(np.eye(4, dtype=bool), np.inf, 5.0),
            np.where(np.eye(4, dtype=bool), 0.0, 1e-4),
        )
        Pr = with_topology(P4, "ring")
        assert len(Pr.route(0, 2)) == 2   # opposite corners: two hops
        sub = _surviving_platform(Pr, [0, 2])
        assert sub.link_graph is None
        # the 2-hop routed cost survives as a direct effective edge
        assert sub.bandwidth_gbps[0][1] == Pr.bandwidth_gbps[0][2]
        assert sub.latency_s[0][1] == Pr.latency_s[0][2]
