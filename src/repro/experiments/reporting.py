"""Plain-text and CSV reporting of experiment results.

Every figure driver prints the same rows/series the paper plots, as
fixed-width text tables (the reproduction's "figures"), and every result
type can be dumped as CSV for external plotting through :func:`write_csv`.
"""

from __future__ import annotations

import csv
import os
from typing import Optional, TextIO

from .runner import SweepResult

__all__ = ["format_sweep_table", "write_csv", "results_dir"]


def results_dir() -> str:
    """Directory for CSV output (created on demand)."""
    path = os.environ.get("REPRO_RESULTS_DIR", os.path.join(os.getcwd(), "results"))
    os.makedirs(path, exist_ok=True)
    return path


def format_sweep_table(result: SweepResult, *, time_unit: str = "ms") -> str:
    """Render improvements and times of all series as two text tables."""
    series = result.series()
    scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[time_unit]
    lines = [f"== {result.title} =="]

    def table(header: str, getter) -> None:
        lines.append(f"-- {header} --")
        names = [s.name for s in series]
        widths = [max(len(n), 10) for n in names]
        head = f"{result.x_label:>12s} | " + " | ".join(
            f"{n:>{w}s}" for n, w in zip(names, widths)
        )
        lines.append(head)
        lines.append("-" * len(head))
        xs = sorted({x for s in series for x in s.xs})
        for x in xs:
            cells = []
            for s, w in zip(series, widths):
                try:
                    i = s.xs.index(x)
                    cells.append(f"{getter(s, i):>{w}.3f}")
                except ValueError:
                    cells.append(" " * (w - 1) + "-")
            lines.append(f"{x:>12g} | " + " | ".join(cells))

    table("relative improvement", lambda s, i: s.improvement[i])
    table(
        f"execution time ({time_unit})", lambda s, i: s.time_s[i] * scale
    )
    return "\n".join(lines)


def write_csv(result, path: Optional[str] = None, *,
              fileobj: Optional[TextIO] = None) -> str:
    """Write any experiment result as a long-format CSV; returns the path.

    ``result`` supplies ``csv_header``, ``csv_rows()`` and ``csv_name``,
    the file name used under :func:`results_dir` when neither ``path``
    nor ``fileobj`` is given.
    """
    if fileobj is not None:
        _write_rows(fileobj, result)
        return path or "<stream>"
    if path is None:
        path = os.path.join(results_dir(), result.csv_name)
    with open(path, "w", newline="") as handle:
        _write_rows(handle, result)
    return path


def _write_rows(handle: TextIO, result) -> None:
    writer = csv.writer(handle)
    writer.writerow(result.csv_header)
    writer.writerows(result.csv_rows())
