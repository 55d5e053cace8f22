"""Robustness studies: noise degradation and failure re-mapping policies.

Every mapper optimizes the *analytic* makespan; these studies replay the
mappings through the runtime engine (:mod:`repro.runtime`) to measure
what that promise is worth once task runtimes jitter or a device drops
out.  Both are :class:`~repro.experiments.runner.Study` declarations,
run by :func:`~repro.experiments.runner.run_study`: it maps a few SP
graphs once with the HEFT/PEFT/NSGA-II/decomposition roster, replicates
every (axis point, algorithm, graph) cell with :func:`_replication_cell`,
and averages each metric over graphs.  The registry
(:data:`repro.experiments.EXPERIMENTS`) holds their default seeds.

**Noise sweep** (:data:`run`) — the lognormal runtime-noise axis.  Per
noise level it reports how much each algorithm's promised makespan
erodes:

- **degradation** — expected simulated makespan / analytic makespan − 1,
- **p95 degradation** — the tail a latency SLO would care about.

**Replan sweep** (:data:`run_replan`) — the policy axis: device
:data:`REPLAN_DEVICE` fails at :data:`REPLAN_FAILURE_FRAC` of each
mapping's analytic makespan, and the engine rescues stranded work either
with the fixed fallback or by re-running a mapper (decomposition / HEFT
/ min-min) on the surviving platform (:mod:`repro.runtime.replan`).  It
also reports the task executions killed and the tasks remapped per run.

Each (graph, algorithm) keeps one simulation seed along the swept axis,
so noise draws and failure instants are paired: a difference between
two rows is the swept parameter alone.  ``--workers N`` results are
bit-identical to serial runs.

Run:  repro experiment robustness --scale smoke --csv
      repro experiment replan --workers 4
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..runtime import (
    DeviceFailure,
    LognormalNoise,
    NoNoise,
    replicate,
    robustness_report,
)
from .runner import Study, StudyResult, paper_roster

__all__ = [
    "run",
    "run_replan",
    "format_robustness_table",
    "format_replan_table",
]

_DEGRADATION = ("analytic_s", "mean_s", "degradation", "p95_degradation")

#: failure instant of the replan sweep, as a fraction of the mapping's
#: analytic makespan (early enough that the failure strands
#: not-yet-started work — at smoke scale a late failure leaves nothing
#: to rescue and the policy comparison degenerates)
REPLAN_FAILURE_FRAC = 0.1
#: device that fails mid-run (1 = the GPU on the paper platform)
REPLAN_DEVICE = 1
#: lognormal runtime noise applied during the replan sweep
REPLAN_SIGMA = 0.1


def _replication_cell(item) -> Dict[str, float]:
    """Replicate one mapping under noise and an optional device failure.

    ``failure`` is ``None`` or ``(frac, device, policy)``: ``device``
    fails at ``frac`` x the analytic makespan and ``policy`` rescues the
    stranded work.  Module-level: the pool pickles it by reference.
    """
    replay, seed, sigma, n, failure = item
    kwargs = {}
    if failure is not None:
        frac, device, policy = failure
        kwargs = dict(
            scenarios=[DeviceFailure(frac * replay.analytic, device=device)],
            replan_policy=policy,
        )
    traces = replicate(
        replay.graph, replay.platform, replay.mapping, n=n,
        noise=LognormalNoise(sigma) if sigma > 0 else NoNoise(),
        seed=seed, **kwargs,
    )
    report = robustness_report(traces, replay.analytic)
    return {
        "analytic_s": report.analytic,
        "mean_s": report.mean,
        "degradation": report.degradation,
        "p95_degradation": report.p95_degradation,
        "mean_killed": float(np.mean([t.n_killed for t in traces])),
        "mean_remapped": float(np.mean(
            [sum(j.n_remapped for j in t.jobs) for t in traces]
        )),
    }


def _replications(**declaration) -> Study:
    """A replication study: the paper roster's mappings, replicated."""
    return Study(
        roster=lambda cfg: paper_roster(cfg.nsga_generations),
        n_tasks=lambda cfg: cfg.robustness_n_tasks,
        n_graphs=lambda cfg: cfg.robustness_graphs,
        cell=_replication_cell,
        **declaration,
    )


run = _replications(
    title=lambda cfg, axes: (
        f"Robustness under lognormal runtime noise ({cfg.name})"
    ),
    csv_name="robustness_noise_sweep.csv",
    keys=("noise_sigma", "algorithm"),
    metrics=_DEGRADATION,
    axes=lambda cfg: {"noise_sigma": cfg.robustness_noise_levels},
    cell_args=lambda cfg, p: (
        p["noise_sigma"], cfg.robustness_replications, None
    ),
    label="noise replication",
)
"""The noise sweep: mean/p95 degradation per noise level and algorithm."""

run_replan = _replications(
    title=lambda cfg, axes: (
        f"Re-mapping policies under device-{REPLAN_DEVICE} failure "
        f"at {REPLAN_FAILURE_FRAC:g}x makespan ({cfg.name})"
    ),
    csv_name="replan_policy_sweep.csv",
    keys=("policy", "algorithm"),
    metrics=_DEGRADATION + ("mean_killed", "mean_remapped"),
    axes=lambda cfg: {"policy": cfg.replan_policies},
    cell_args=lambda cfg, p: (
        REPLAN_SIGMA, cfg.robustness_replications,
        (REPLAN_FAILURE_FRAC, REPLAN_DEVICE, p["policy"]),
    ),
    label="replan replication",
)
"""The policy sweep: every policy replays the *same* seeds, failure
instants and noise draws, so differences are pure policy effect."""


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

_DEGRADATION_TABLES = (
    ("mean degradation (mean/analytic - 1)", "degradation"),
    ("p95 degradation (p95/analytic - 1)", "p95_degradation"),
)


def _format_tables(result: StudyResult, axis: str, spec: str,
                   tables) -> str:
    """One fixed-width table per ``(header, metric)``: axis x algorithm.

    ``spec`` formats the axis column, e.g. ``"12g"`` (its width leads).
    """
    algorithms = result.algorithms()
    widths = [max(len(a), 10) for a in algorithms]
    width = int(spec[:-1])
    lines = [f"== {result.title} =="]
    for header, metric in tables:
        lines.append(f"-- {header} --")
        head = f"{axis:>{width}s} | " + " | ".join(
            f"{a:>{w}s}" for a, w in zip(algorithms, widths)
        )
        lines.append(head)
        lines.append("-" * len(head))
        for value in result.axis(axis):
            cells = [
                f"{getattr(result.cell(value, a), metric):>{w}.3f}"
                for a, w in zip(algorithms, widths)
            ]
            lines.append(f"{value:>{spec}} | " + " | ".join(cells))
    return "\n".join(lines)


def format_robustness_table(result: StudyResult) -> str:
    """Render the noise sweep as fixed-width text tables, one per metric."""
    return _format_tables(result, "noise_sigma", "12g", _DEGRADATION_TABLES)


def format_replan_table(result: StudyResult) -> str:
    """Render the policy sweep as fixed-width text tables."""
    return _format_tables(
        result, "policy", "14s",
        _DEGRADATION_TABLES + (("tasks remapped per run", "mean_remapped"),),
    )
