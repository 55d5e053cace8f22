"""Observability backbone: spans, metrics, timelines, diagnostics.

``repro.obs`` is the instrumentation layer the rest of the package
records into — never reads from.  Four pieces:

* :mod:`~repro.obs.trace` — hierarchical wall-clock span tracer with a
  context-manager API and Chrome trace-event export (Perfetto).
* :mod:`~repro.obs.metrics` — counters / gauges / histograms behind one
  ``snapshot()`` / ``merge()`` registry.
* :mod:`~repro.obs.timeline` — converts a finished runtime-engine trace
  into a simulated-time Chrome timeline (device lanes, job rows,
  wait/failure markers).
* :mod:`~repro.obs.env` / :mod:`~repro.obs.report` — environment
  diagnostics (``repro env``) and the logging-backed CLI reporter.

Everything is **off by default**.  :func:`observe` flips on both the
process tracer and the metrics registry; :func:`shutdown` flips them
off and hands back what was collected.  The hard contract, pinned by
``tests/test_obs.py``: enabling changes no numeric output anywhere
(instruments record, algorithms never read them), the disabled path
costs one module-global load per span site, and enabled instruments
stay off the hot path: a mapper run makes as many tracer and registry
calls on a 200-task graph as on a 50-task one
(``TestEnabledOverhead``).  perfbench records the wall-clock overhead
as ``bench.trace_overhead``.

Typical use::

    from repro import obs

    tracer, registry = obs.observe()
    result = mapper.map(graph, model)          # spans + metrics recorded
    obs.write_chrome(tracer, "trace.json")     # open in ui.perfetto.dev
    print(registry.snapshot()["mapper.n_simulations"])
    obs.shutdown()
"""

from __future__ import annotations

from typing import Optional, Tuple

from . import env, metrics, report, timeline, trace
from .env import collect_env, format_env
from .metrics import Histogram, MetricsRegistry, get_registry
from .report import Reporter, get_reporter
from .timeline import runtime_trace_to_chrome_events
from .trace import (
    Tracer,
    enabled,
    get_tracer,
    instant,
    span,
    spans_from_chrome,
    to_chrome,
    write_chrome,
)

__all__ = [
    "env",
    "metrics",
    "report",
    "timeline",
    "trace",
    "Tracer",
    "MetricsRegistry",
    "Histogram",
    "Reporter",
    "observe",
    "shutdown",
    "observing",
    "span",
    "instant",
    "enabled",
    "get_tracer",
    "get_registry",
    "get_reporter",
    "to_chrome",
    "write_chrome",
    "spans_from_chrome",
    "runtime_trace_to_chrome_events",
    "collect_env",
    "format_env",
]


def observe(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[Tracer, MetricsRegistry]:
    """Enable tracing *and* metrics for this process; return both."""
    return trace.enable(tracer), metrics.enable(registry)


def shutdown() -> Tuple[Optional[Tracer], Optional[MetricsRegistry]]:
    """Disable both; return whatever was collected (None if off)."""
    return trace.disable(), metrics.disable()


class observing:
    """Context manager form of :func:`observe` / :func:`shutdown`::

        with obs.observing() as (tracer, registry):
            mapper.map(graph, model)
    """

    def __enter__(self) -> Tuple[Tracer, MetricsRegistry]:
        self._pair = observe()
        return self._pair

    def __exit__(self, *exc) -> bool:
        shutdown()
        return False
