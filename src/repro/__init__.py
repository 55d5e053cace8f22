"""repro — decomposition-based static task mapping for heterogeneous systems.

A from-scratch reproduction of

    Martin Wilhelm and Thilo Pionteck:
    "Static task mapping for heterogeneous systems based on series-parallel
    decompositions", IPPS 2025 (arXiv:2502.19745).

Public API tour
---------------
- :mod:`repro.graphs` — task-graph substrate and generators (random SP,
  almost-SP, scientific-workflow families);
- :mod:`repro.sp` — series-parallel decomposition trees, recognition, and
  the paper's Algorithm 1 (decomposition forests for arbitrary DAGs);
- :mod:`repro.platform` — CPU/GPU/FPGA platform model, with an optional
  explicit interconnect topology: a link graph of per-device-pair
  links (bandwidth/latency/slots) with deterministic shortest-hop
  routing, star/mesh/ring/NUMA-pair presets
  (:func:`~repro.platform.with_topology`) and a JSON ``"links"``
  schema; routing is resolved at table-build time into *effective*
  cost matrices so every evaluator prices topology at zero inner-loop
  cost (contract: ``src/repro/platform/README.md``);
- :mod:`repro.evaluation` — the linear-time model-based makespan evaluator
  on a flat-array kernel (compiled C when a system compiler is present,
  pure Python otherwise — bit-identical either way), plus the incremental
  :class:`~repro.evaluation.delta.DeltaEvaluator` that re-simulates only
  the schedule suffix a candidate move can affect;
- :mod:`repro.mappers` — SingleNode/SeriesParallel decomposition mappers
  (with FirstFit / gamma-threshold heuristics), HEFT, PEFT, NSGA-II and
  three MILP baselines;
- :mod:`repro.runtime` — discrete-event execution engine that stress-tests
  static mappings under stochastic runtime noise, device slowdowns and
  failures, and multi-workflow arrival streams (``repro simulate`` on the
  command line); with zero noise, unlimited link slots and a single job it
  reproduces the analytic evaluator exactly; concurrent jobs share the
  platform for real — a cross-job FPGA area ledger, FIFO transfer slot
  pools on the interconnect (one shared ``link_slots`` pool on flat
  platforms, one pool per finite-width link on topology-aware ones,
  with transfers claiming every link along their route and
  ``LinkWait`` naming the blocking link; ``link_slots=0`` = unlimited),
  and per-trace energy accounting including rolled-back work; on failure (or a past-threshold
  slowdown, or an arrival under fabric pressure) it rescues work with a
  fixed fallback or by re-running a mapper on the surviving/degraded
  platform (:mod:`repro.runtime.replan`, ``--replan-policy``);
- :mod:`repro.parallel` — process-pool experiment backbone with
  deterministic seed sharding: ``--workers N`` scales every driver across
  cores with results bit-identical to a serial run; execution is
  *supervised* (per-item timeouts, bounded retries with backoff, pool
  rebuild after worker crashes, serial degradation as the last resort)
  and the seed contract makes fault tolerance free — a retried item
  recomputes the same numbers, proven by a deterministic chaos harness
  (``REPRO_CHAOS`` injects seeded crashes/hangs/errors) and pinned by
  CSV byte-identity tests; long sweeps checkpoint to an append-only
  journal and resume recomputing only outstanding cells
  (``--checkpoint``/``--resume``);
- :mod:`repro.experiments` — every figure and table of the paper's
  evaluation: the figure sweeps are declarations
  (:mod:`repro.experiments.sweeps`) run by one sweep function, Table I
  has its own driver, and the runtime-robustness noise sweep, the
  failure re-mapping policy sweep (:mod:`repro.experiments.robustness`)
  and the shared-resource contention sweep
  (:mod:`repro.experiments.contention`) share one runtime-study harness;
  all run through one registry (``repro experiment NAME``);
- :mod:`repro.obs` — the observability backbone: hierarchical span
  tracing with Chrome trace-event export (open ``--trace`` output in
  Perfetto), a counters/gauges/histograms metrics registry with one
  ``snapshot()``/``merge()`` surface, the simulated-time engine
  timeline, environment diagnostics (``repro env``) and the CLI
  reporter (``--verbose``/``--quiet``).  Off by default; enabling it
  never changes numeric results (``repro profile`` shows the
  phase-time breakdown);
- :mod:`repro.analysis` — the invariants above are *linted*, not just
  tested: an AST-based checker (``repro lint``) with stable rule codes
  enforces seeded randomness, no wall-clock reads in algorithms,
  write-only observability, single-sourced tolerances, picklable
  ``parallel_map`` payloads, no silent excepts, bounded retry loops
  with no sleeping in algorithm modules, and that the C kernel's
  constants match their Python mirrors and stay topology-agnostic
  (rule catalogue in
  ``src/repro/analysis/README.md``); ``REPRO_CKERNEL_SANITIZE=ubsan``
  additionally rebuilds the C kernel (``evaluation/kernel.c``) under
  UBSan — still bit-identical — and ``tests/kernel_harness.c`` replays
  every kernel entry under AddressSanitizer, for memory/UB checking in
  CI.

Quickstart
----------
>>> import numpy as np
>>> from repro.graphs.generators import random_sp_graph
>>> from repro.platform import paper_platform
>>> from repro.evaluation import MappingEvaluator
>>> from repro.mappers import sp_first_fit
>>> g = random_sp_graph(50, np.random.default_rng(0))
>>> ev = MappingEvaluator(g, paper_platform())
>>> result = sp_first_fit().map(ev)
>>> 0.0 <= ev.relative_improvement(result.mapping) <= 1.0
True
"""

from . import evaluation, graphs, mappers, obs, parallel, platform, runtime, sp

__version__ = "1.9.0"

__all__ = [
    "evaluation", "graphs", "mappers", "obs", "parallel", "platform",
    "runtime", "sp", "__version__",
]
