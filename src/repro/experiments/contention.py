"""Shared-resource contention: cross-job FPGA area, link slots, topologies.

The analytic model evaluates one job on an otherwise idle platform; a
serving deployment runs a *stream* of jobs that share the reconfigurable
fabric and the host↔device interconnect.  These studies measure what
that sharing costs.  Both are :class:`~repro.experiments.runner.Study`
declarations, run by :func:`~repro.experiments.runner.run_study`: it
maps a few SP graphs once with HEFT and the SP first-fit decomposition
mapper, then replays a periodic arrival stream of each mapping through
the runtime engine (:mod:`repro.runtime`) with :func:`_stream_cell`, and
averages each metric over graphs.  Mappings are computed on the nominal
platform and periods scale with the nominal analytic makespan, so moving
along any axis changes only the resource model, never the workload:

- **throughput** (jobs/s) and the **latency** distribution,
- **area wait** — seconds tasks waited for FPGA fabric held by other
  in-flight jobs (zero in the analytic, per-job-budget world),
- **link wait** — seconds transfers queued for a busy link slot,
- **energy per job** at the :mod:`repro.evaluation.energy` rates.

The replay platform's FPGA capacity is sized at :data:`AREA_HEADROOM`
(1.5x) of one job's mapped footprint (:func:`_squeeze_fpga`): a single job always fits, two
overlapping jobs cannot both hold their full claim, so the engine's
cross-job area ledger has real contention to arbitrate at every scale.
Runs are deterministic (zero noise), so every cell is one exact engine
replay and ``--workers N`` results are bit-identical to serial.

**Contention sweep** (:data:`run`) — link slots x arrival period, on the
single shared link pool.

**Topology sweep** (:data:`topology`; :func:`run_topologies` checks the
names of ``--topology``) — the same
streams crossed with interconnect *shapes*: the single shared pool
(``"shared"``) versus per-link slot pools on the
:mod:`repro.platform.topologies` presets (star/mesh/ring/NUMA), with the
swept slot width applied per link.  Every topology replays the same
mappings, so divergence between e.g. ``mesh`` and ``shared`` at the same
slot count is purely the resource model: routed transfers queue per link
instead of against one global pool.

Run:  repro experiment contention --scale smoke --csv
      repro experiment contention --scale smoke --topology mesh
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..mappers import HeftMapper, sp_first_fit
from ..platform.platform import Platform
from ..platform.topologies import TOPOLOGY_NAMES, with_topology
from ..runtime import RuntimeEngine, periodic_stream, throughput_report
from .runner import Study, StudyResult, run_study

__all__ = [
    "run",
    "run_topologies",
    "format_contention_table",
    "format_topology_table",
]

#: names accepted by ``--topology``: the single shared pool + presets
SWEEP_TOPOLOGIES = ("shared",) + TOPOLOGY_NAMES

#: FPGA capacity headroom over one job's footprint: the run platform's
#: area budget is ``AREA_HEADROOM x usage(mapping)`` (when the mapping
#: uses the FPGA at all), so overlapping jobs genuinely contend for fabric
AREA_HEADROOM = 1.5

_THROUGHPUT = ("jobs_per_second", "latency_mean_s", "latency_p95_s")
_ENERGY = ("energy_per_job_j", "makespan_s")


def _squeeze_fpga(platform: Platform, usage: Dict[int, float],
                  headroom: float) -> Platform:
    """Size area-capped devices at ``headroom x`` one job's footprint."""
    devices = []
    changed = False
    for d, dev in enumerate(platform.devices):
        used = usage.get(d, 0.0)
        if dev.area_capacity is not None and used > 0.0:
            devices.append(dataclasses.replace(
                dev, area_capacity=used * headroom
            ))
            changed = True
        else:
            devices.append(dev)
    if not changed:
        return platform
    return platform.with_devices(devices)


def _stream_cell(item) -> Dict[str, float]:
    """Replay one deterministic arrival stream; returns every stream metric.

    ``topology == "shared"`` bounds the single shared pool via the
    engine's ``link_slots``; a preset name reshapes the platform with
    ``slots`` per link and leaves the engine at its default (per-link
    pools).  ``slots == 0`` is unlimited either way; since ``mesh``
    routes are all direct, its ``slots=0`` cells are bit-identical to
    ``shared`` ``slots=0`` — the sweep's built-in equivalence anchor
    (multi-hop shapes like ``star`` still differ there, through routed
    cost alone).  Zero noise: the simulation seed goes unused.
    """
    replay, _seed, topology, n_jobs, frac, slots = item
    jobs = periodic_stream(
        replay.graph, replay.mapping, n_jobs, period=frac * replay.analytic
    )
    if topology == "shared":
        engine = RuntimeEngine(replay.platform, link_slots=slots)
    else:
        engine = RuntimeEngine(
            with_topology(replay.platform, topology, slots=slots)
        )
    trace = engine.run(jobs)
    rep = throughput_report(trace)
    return {
        "jobs_per_second": rep.jobs_per_second,
        "latency_mean_s": rep.latency_mean,
        "latency_p95_s": rep.latency_p95,
        "area_wait_s": trace.area_wait_time,
        "link_wait_s": trace.link_wait_time,
        "n_link_waits": trace.n_link_waits,
        "energy_per_job_j": rep.energy_per_job_j,
        "makespan_s": rep.horizon,
    }


def _streams(**declaration) -> Study:
    """A stream study: HEFT and SPFirstFit mappings on the squeezed FPGA."""
    return Study(
        roster=lambda cfg: [HeftMapper(), sp_first_fit()],
        n_tasks=lambda cfg: cfg.contention_n_tasks,
        n_graphs=lambda cfg: cfg.contention_graphs,
        cell=_stream_cell,
        cell_args=lambda cfg, p: (
            p.get("topology", "shared"), cfg.contention_jobs,
            p["period_frac"], p["link_slots"],
        ),
        reshape=lambda platform, usage: _squeeze_fpga(
            platform, usage, AREA_HEADROOM
        ),
        **declaration,
    )


run = _streams(
    title=lambda cfg, axes: (
        f"Shared-resource contention: {cfg.contention_jobs}-job streams, "
        f"{AREA_HEADROOM:g}x FPGA headroom ({cfg.name})"
    ),
    csv_name="contention_sweep.csv",
    keys=("algorithm", "link_slots", "period_frac"),
    metrics=_THROUGHPUT + ("area_wait_s", "link_wait_s") + _ENERGY,
    axes=lambda cfg: {"link_slots": cfg.contention_link_slots,
                      "period_frac": cfg.contention_period_fracs},
    label="contention stream",
)
"""The contention sweep: link-slot settings x arrival rates."""

topology = _streams(
    title=lambda cfg, axes: (
        f"Interconnect topologies: {cfg.contention_jobs}-job streams, "
        f"{'/'.join(axes['topology'])} ({cfg.name})"
    ),
    csv_name="topology_sweep.csv",
    keys=("topology", "algorithm", "link_slots", "period_frac"),
    metrics=_THROUGHPUT + ("link_wait_s", "n_link_waits") + _ENERGY,
    axes=lambda cfg: {"topology": cfg.contention_topologies,
                      "link_slots": cfg.contention_link_slots,
                      "period_frac": cfg.contention_period_fracs},
    label="topology stream",
)
"""The topology sweep: interconnect shapes x link slots x arrival rates.
A cell difference between topologies is purely the interconnect model:
routed effective costs plus per-link slot pools versus the single shared
pool."""


def run_topologies(scale="smoke", *, topologies: Optional[List[str]] = None,
                   seed: int, **kwargs) -> StudyResult:
    """Run :data:`topology` on ``topologies`` (default: the scale's
    ``contention_topologies``); an unknown or repeated name raises
    :class:`ValueError`."""
    study = topology
    if topologies is not None:
        for name in topologies:
            if name not in SWEEP_TOPOLOGIES:
                raise ValueError(
                    f"unknown topology {name!r} "
                    f"(choose from {', '.join(SWEEP_TOPOLOGIES)})"
                )
        repeated = sorted({n for n in topologies if topologies.count(n) > 1})
        if repeated:
            raise ValueError(f"duplicate topology: {', '.join(repeated)}")
        study = dataclasses.replace(
            topology, axes=lambda cfg: {**topology.axes(cfg),
                                        "topology": topologies},
        )
    return run_study(study, scale, seed=seed, **kwargs)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _slots(p) -> str:
    return "inf" if p.link_slots == 0 else str(p.link_slots)


def _ms(metric: str):
    return lambda p: f"{getattr(p, metric) * 1e3:.1f}ms"


#: shared table columns: (title, width, render)
_PERIOD = ("period", 6, lambda p: f"{p.period_frac:g}")
_JOBS = ("jobs/s", 8, lambda p: f"{p.jobs_per_second:.2f}")
_LAT_P95 = ("lat p95", 9, _ms("latency_p95_s"))
_LINK_WAIT = ("link wait", 9, _ms("link_wait_s"))
_J_PER_JOB = ("J/job", 8, lambda p: f"{p.energy_per_job_j:.1f}")


def _format_groups(result: StudyResult, group: str, columns) -> str:
    """One fixed-width table per value of the ``group`` key column."""
    lines = [f"== {result.title} =="]
    header = " | ".join(f"{title:>{width}s}" for title, width, _ in columns)
    for value in result.axis(group):
        lines += [f"-- {value} --", header, "-" * len(header)]
        lines += [
            " | ".join(f"{render(p):>{width}s}" for _, width, render in columns)
            for p in result.points if getattr(p, group) == value
        ]
    return "\n".join(lines)


def format_contention_table(result: StudyResult) -> str:
    """Render the sweep as one fixed-width table per algorithm."""
    return _format_groups(result, "algorithm", [
        ("link_slots", 10, _slots), _PERIOD, _JOBS, _LAT_P95,
        ("area wait", 9, _ms("area_wait_s")), _LINK_WAIT, _J_PER_JOB,
    ])


def format_topology_table(result: StudyResult) -> str:
    """Render the topology sweep as one fixed-width table per topology."""
    return _format_groups(result, "topology", [
        ("algorithm", 14, lambda p: p.algorithm), ("slots", 5, _slots),
        _PERIOD, _JOBS, _LAT_P95, _LINK_WAIT,
        ("queued", 6, lambda p: f"{p.n_link_waits:.1f}"), _J_PER_JOB,
    ])
