"""Schedule traces and ASCII Gantt charts.

:func:`simulate_trace` runs the same recurrence as
:meth:`repro.evaluation.costmodel.CostModel.simulate` but records *why* each
task starts when it does — device, slot, ready time, whether it streamed
from a predecessor, and the transfer costs paid.  :func:`render_gantt` turns
a trace into a terminal Gantt chart:

::

    epyc7351p.0 |██0███░░██3███████        |
    epyc7351p.1 |  ██1████                 |
    vega56      |      ██2██               |
    xcz7045     |  ≈≈≈≈4≈≈≈≈               |

The trace is the debugging/teaching view of the cost model; the fast
kernels stay record-free.  Since the trace reads the reference walk
itself, its makespan is the one ``simulate()`` returns (the kernels'
exactness contract, also pinned by ``tests/test_trace.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .costmodel import CostModel

__all__ = ["TaskTrace", "ScheduleTrace", "simulate_trace", "render_gantt"]


@dataclass(frozen=True)
class TaskTrace:
    """Execution record of one task."""

    task: int               # task id
    index: int              # task index
    device: int
    slot: int               # -1 on non-serializing devices
    ready: float            # data-ready time (after transfers/streams)
    start: float
    finish: float
    streamed: bool          # received at least one streamed input
    waited: float           # start - ready (device contention)


@dataclass
class ScheduleTrace:
    """Full simulation record."""

    tasks: List[TaskTrace]
    makespan: float
    device_busy: List[float]   # summed execution time per device

    def by_device(self, device: int) -> List[TaskTrace]:
        return [t for t in self.tasks if t.device == device]

    def total_wait(self) -> float:
        return sum(t.waited for t in self.tasks)


def simulate_trace(
    model: CostModel,
    mapping: Sequence[int],
    order: Optional[Sequence[int]] = None,
) -> ScheduleTrace:
    """The reference walk of ``model`` with one record per task.

    Runs ``CostModel._simulate_reference`` with recording on, so the
    makespan is the one ``CostModel.simulate`` returns; an area-infeasible
    mapping yields no task records and an ``INFEASIBLE`` makespan.
    """
    records: list = []
    makespan = model._simulate_reference(  # noqa: SLF001
        mapping, order, record=records
    )
    busy = [0.0] * model.m
    tasks = []
    for i, d, slot, ready, st, fin, streamed in records:
        busy[d] += model.exec_rows[i][d]
        tasks.append(TaskTrace(
            task=model.tasks[i],
            index=i,
            device=d,
            slot=slot,
            ready=ready,
            start=st,
            finish=fin,
            streamed=streamed,
            waited=max(0.0, st - ready),
        ))
    return ScheduleTrace(tasks=tasks, makespan=makespan, device_busy=busy)


def render_gantt(
    trace: ScheduleTrace,
    model: CostModel,
    *,
    width: int = 72,
    stream_char: str = "≈",
    busy_char: str = "█",
) -> str:
    """Terminal Gantt chart; one row per device slot (FPGA gets stacked rows)."""
    if not trace.tasks or trace.makespan <= 0:
        return "(empty or infeasible schedule)"
    platform = model.platform
    scale = width / trace.makespan

    # rows: serializing devices -> one per slot; others -> one per task level
    rows = []  # (label, list of (start, finish, task, streamed))
    for d, dev in enumerate(platform.devices):
        entries = sorted(
            (t for t in trace.tasks if t.device == d), key=lambda t: t.start
        )
        if dev.serializes:
            for s in range(dev.slots):
                label = f"{dev.name}.{s}" if dev.slots > 1 else dev.name
                rows.append(
                    (label, [t for t in entries if t.slot == s])
                )
        else:
            # pack concurrent FPGA tasks into as few display rows as needed
            lanes: List[List[TaskTrace]] = []
            for t in entries:
                for lane in lanes:
                    if lane[-1].finish <= t.start + 1e-12:
                        lane.append(t)
                        break
                else:
                    lanes.append([t])
            if not lanes:
                lanes = [[]]
            for k, lane in enumerate(lanes):
                label = f"{dev.name}" if len(lanes) == 1 else f"{dev.name}~{k}"
                rows.append((label, lane))

    label_w = max(len(label) for label, _ in rows)
    lines = []
    for label, entries in rows:
        canvas = [" "] * width
        for t in entries:
            a = min(width - 1, int(t.start * scale))
            b = min(width, max(a + 1, int(t.finish * scale)))
            ch = stream_char if t.streamed else busy_char
            for x in range(a, b):
                canvas[x] = ch
            tag = str(t.task)
            mid = max(a, min((a + b) // 2 - len(tag) // 2, width - len(tag)))
            for j, c in enumerate(tag):
                canvas[mid + j] = c
        lines.append(f"{label:>{label_w}s} |{''.join(canvas)}|")
    lines.append(
        f"{'':>{label_w}s}  0{'':{width - 10}}{trace.makespan * 1e3:8.1f} ms"
    )
    return "\n".join(lines)
