"""Experiment harness: every figure and table of the paper's evaluation.

Every study — Figs. 3-7 and Table I, plus the scaling, baselines,
ablation, robustness, replan, contention and topology extensions — is an
entry of :data:`EXPERIMENTS` and runs from the command line as::

    repro experiment fig4 --scale smoke
    repro experiment table1 --scale small --csv

The ten figure sweeps (fig3-fig7, baselines, scaling and the three
ablations) are declarations in :mod:`repro.experiments.sweeps`, all run
by :func:`~repro.experiments.runner.run_sweep`; the four runtime studies
are :class:`~repro.experiments.runner.Study` declarations run by
:func:`~repro.experiments.runner.run_study`
(:mod:`~repro.experiments.robustness`,
:mod:`~repro.experiments.contention`); Table I
(:mod:`repro.experiments.table1`) draws workflow graphs and maps them
through the same step as a sweep point.  Those modules are imported only
when an entry runs, so importing this package stays cheap.  See
:mod:`repro.experiments.config` for scales.
"""

from .config import SCALES, ScaleConfig, bench_scale, get_scale
from .metrics import AggregateStats, aggregate, positive_improvement
from .registry import EXPERIMENTS, Experiment
from .reporting import format_sweep_table, write_csv
from .runner import (
    PointResult,
    Sweep,
    SweepResult,
    SweepSeries,
    run_point,
    run_sweep,
)

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "SCALES",
    "ScaleConfig",
    "bench_scale",
    "get_scale",
    "AggregateStats",
    "aggregate",
    "positive_improvement",
    "format_sweep_table",
    "write_csv",
    "PointResult",
    "Sweep",
    "SweepResult",
    "SweepSeries",
    "run_point",
    "run_sweep",
]
