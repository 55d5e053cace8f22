"""Power-law fit of the scaling sweep's mapper times (paper Sec. IV-B).

The sweep itself is the :data:`repro.experiments.sweeps.scaling`
declaration, whose docstring quotes the paper's claim: the decomposition
mappers run in about quadratic time, below their cubic worst case.  This
module fits ``time ~ n^alpha`` per algorithm and renders the report.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .reporting import format_sweep_table
from .runner import SweepResult

__all__ = ["fit_exponents", "format_report"]


def fit_exponents(result: SweepResult) -> Dict[str, float]:
    """Least-squares power-law exponent of time vs n per algorithm.

    Sizes below 10 tasks are dropped (constant overheads dominate there).
    """
    out: Dict[str, float] = {}
    for series in result.series():
        xs = np.array(series.xs)
        ts = np.array(series.time_s)
        keep = (xs >= 10) & (ts > 0)
        if keep.sum() < 2:
            out[series.name] = float("nan")
            continue
        slope, _ = np.polyfit(np.log(xs[keep]), np.log(ts[keep]), 1)
        out[series.name] = float(slope)
    return out


def format_report(result: SweepResult) -> str:
    """The sweep tables followed by the fitted exponent per algorithm."""
    lines = [format_sweep_table(result), "", "fitted time ~ n^alpha exponents:"]
    lines += [
        f"  {name:>16s}: alpha = {alpha:.2f}"
        for name, alpha in fit_exponents(result).items()
    ]
    return "\n".join(lines)
