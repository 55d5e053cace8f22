"""Cross-job FPGA area ledger: one usage step function per device.

The runtime engine (:mod:`repro.runtime.engine`) claims fabric for every
task it commits to an area-capped device.  A claim ``(start, end,
area)`` holds ``area`` over ``[start, end)``; a new claim takes the
earliest start at or after its candidate ``st0`` whose window fits the
budget next to every claim already in flight, across all jobs.

:class:`AreaLedger` keeps the claims of one device as a step function:
sorted breakpoint times ``ts`` with the area in use on each
``[ts[k], ts[k+1])`` segment (the last segment is always empty), plus,
per breakpoint, a flag that marks claim ends and the area of the claims
that start there.  Its three operations:

- **prune** — segments that end by ``now`` can never overlap a start
  ``>= now``: one ``bisect`` and one ``del ts[:k]`` drop them;
- **first fit** — candidate starts are ``st0`` and then the claim ends
  after it, in time order (claim starts are never candidates); each
  candidate's window ``[st, fin)`` is read off the segments from the one
  holding ``st``.  The first candidate that fits wins (FIFO-earliest);
  when none does, the last one, after which nothing is claimed, is taken;
- **commit** — split at ``start`` and ``end``, add ``area`` to the
  segments between them, flag ``end`` and add ``area`` to the starts at
  ``start``.

Areas and the budget are in whole units of
:data:`~repro.evaluation.costmodel.AREA_UNIT` (integer-valued floats),
so every segment is the exact sum of its claims and each decision is one
comparison with the budget.  A window's peak is that of the claims
overlapping it (``cs < fin and ce > st``), an end at an instant freeing
its area before a start there.  A zero-length window (``fin == st``: no
execution time and no drain) counts only the claims with ``cs < st <
ce``: the segment holding ``st`` minus the claims that start at ``st``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Tuple

__all__ = ["AreaLedger"]


class AreaLedger:
    """The in-flight area claims of one device whose budget is ``limit``
    area units (``CostModel.limit_units``): a claim is admitted while
    ``peak + area <= limit``.  A statically feasible single job never
    waits on its own claims: every subset of its usage fits too."""

    __slots__ = ("limit", "_ts", "_use", "_end", "_start")

    def __init__(self, limit: float) -> None:
        self.limit = limit
        self._ts: List[float] = []
        self._use: List[float] = []
        self._end: List[bool] = []
        self._start: List[float] = []

    def add(self, start: float, end: float, area: float) -> None:
        """Commit the claim ``area`` over ``[start, end)``."""
        i = self._split(start)
        j = self._split(end)
        self._end[j] = True
        if j > i:
            use = self._use
            use[i:j] = [u + area for u in use[i:j]]
            self._start[i] += area

    def _split(self, t: float) -> int:
        """Index of breakpoint ``t``, inserted with the usage in force."""
        ts = self._ts
        k = bisect_left(ts, t)
        if k == len(ts) or ts[k] != t:
            ts.insert(k, t)
            self._use.insert(k, self._use[k - 1] if k else 0.0)
            self._end.insert(k, False)
            self._start.insert(k, 0.0)
        return k

    def first_fit(
        self, now: float, st0: float, exec_t: float, drain: float,
        area: float,
    ) -> Tuple[float, float]:
        """Claim ``area`` at the earliest candidate start ``st >= st0``
        that fits and return ``(st, fin)``, ``fin = max(st + exec_t,
        drain)``.  Candidates are ``st0`` and the claim ends after it in
        time order; ``now <= st0`` is the engine's clock."""
        ts, use, ends = self._ts, self._use, self._end
        k = bisect_right(ts, now) - 1
        if k > 0:
            del ts[:k], use[:k], ends[:k], self._start[:k]
        room = self.limit - area
        st = st0
        while True:
            fin = st + exec_t
            if drain > fin:
                fin = drain
            j = bisect_right(ts, st)
            if fin > st:
                lo = j - 1 if j else 0
                hi = bisect_left(ts, fin, j)
                peak = max(use[lo:hi]) if hi > lo else 0.0
            elif j:
                peak = use[j - 1]
                if ts[j - 1] == st:
                    peak -= self._start[j - 1]
            else:
                peak = 0.0
            if peak <= room:
                break
            n = len(ts)
            while j < n and not ends[j]:
                j += 1
            if j == n:
                # the last claim end: nothing overlaps it, and a single
                # task fits an empty fabric by the static feasibility check
                break
            st = ts[j]
        self.add(st, fin, area)
        return st, fin
