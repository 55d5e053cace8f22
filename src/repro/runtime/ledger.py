"""Cross-job FPGA area ledger: one usage step function per device.

The runtime engine (:mod:`repro.runtime.engine`) claims fabric for every
task it commits to an area-capped device.  A claim ``(start, end,
area)`` holds ``area`` over ``[start, end)``; a new claim takes the
earliest start at or after its candidate ``st0`` whose window fits the
budget next to every claim already in flight, across all jobs.

:class:`AreaLedger` keeps the claims of one device as a step function:
sorted breakpoint times ``ts`` with the area in use on each
``[ts[k], ts[k+1])`` segment (the last segment is always empty), plus a
flag per breakpoint that marks claim ends.  Its three operations:

- **prune** — segments that end by ``now`` can never overlap a start
  ``>= now``: one ``bisect`` and one ``del ts[:k]`` drop them;
- **first fit** — candidate starts are ``st0`` and then the claim ends
  after it, in time order (claim starts are never candidates); each
  candidate's window ``[st, fin)`` is read off the segments from the one
  holding ``st``.  The first candidate that fits wins (FIFO-earliest);
  when none does, the last one, after which nothing is claimed, is taken;
- **commit** — split at ``start`` and ``end``, add ``area`` to the
  segments between them and flag ``end``.

Decisions are exactly those of the event sweep (:func:`_sweep_peak`) the
ledger replaced, which sums the claims overlapping a window in ``(time,
phase)`` order, ends before starts, with subtractions.  A segment of the
step function is instead the sum of its claims in commit order, so the
two can differ in the last bits.  Where ``peak + area`` lands within
``_RECOUNT_ULPS * (C + 1) * eps * max(1, limit)`` of the threshold (C
the claims listed), the sweep recounts the decision.  Zero-length
windows (``fin == st``: no execution time and no drain) always go to
the sweep, which counts only claims with ``cs < st < ce`` there.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from typing import List, Tuple

from ..evaluation.costmodel import AREA_TOL, area_guard_band

__all__ = ["AreaLedger"]

#: The recount guard per claim, in units of ``eps * max(1, limit)``.  A
#: segment value sums at most C positive areas, off the exact sum by at
#: most C·u times it (u = eps / 2); the sweep's running sum takes at most
#: 2C additions and subtractions, each rounding by at most u times a
#: value below the window's peak.  Near the threshold (peak at most about
#: ``2 * max(1, limit)``) the two peaks therefore differ by at most
#: 3C·eps·max(1, limit), and the final ``+ area`` adds one more rounding;
#: far above it both sides reject.  8 per claim covers this with room.
_RECOUNT_ULPS = 8.0


def _sweep_peak(
    claims: List[Tuple[float, float, float]], st: float, fin: float
) -> float:
    """Peak concurrent area of ``claims`` over ``[st, fin)``: the exact
    recount.  A sorted event sweep over the claims that overlap the
    window (``cs < fin and ce > st``), each clipped to start no earlier
    than ``st``; at equal times ends come before starts, and equal
    events keep the claims' order."""
    events = []
    for cs, ce, ca in claims:
        if cs < fin and ce > st:
            events.append((cs if cs > st else st, 1, ca))
            events.append((ce, 0, ca))
    events.sort(key=lambda e: (e[0], e[1]))
    cur = peak = 0.0
    for _, phase, ca in events:
        cur = cur + ca if phase else cur - ca
        if cur > peak:
            peak = cur
    return peak


class AreaLedger:
    """The in-flight area claims of one device with area ``capacity``.

    A claim is admitted while ``peak + area <= limit + band``, with
    ``limit = capacity + AREA_TOL`` and ``band = area_guard_band(limit)``.
    Unlike the static check, where :data:`~repro.evaluation.costmodel.
    AREA_BAND` only triggers an exact recount, concurrent subset sums have
    no canonical order to recount in, so the band here is genuine slack:
    physically negligible (1e-6 area units), and needed so that a
    statically feasible single job, whose total usage fits by
    construction, is never delayed by float re-association of partial
    sums.  ``claims`` lists the claims in commit order; claims that ended
    by ``now`` leave it at the recount and whenever it has doubled.
    ``n_recounts`` counts the decisions the sweep made.
    """

    __slots__ = (
        "threshold", "claims", "n_recounts",
        "_ts", "_use", "_end", "_ulp", "_kept",
    )

    def __init__(self, capacity: float) -> None:
        limit = capacity + AREA_TOL
        self.threshold = limit + area_guard_band(limit)
        self.claims: List[Tuple[float, float, float]] = []
        self.n_recounts = 0
        self._ts: List[float] = []
        self._use: List[float] = []
        self._end: List[bool] = []
        self._ulp = sys.float_info.epsilon * (limit if limit > 1.0 else 1.0)
        self._kept = 0

    def add(self, start: float, end: float, area: float) -> None:
        """Commit the claim ``area`` over ``[start, end)``."""
        i = self._split(start)
        j = self._split(end)
        self._end[j] = True
        use = self._use
        use[i:j] = [u + area for u in use[i:j]]
        self.claims.append((start, end, area))

    def _split(self, t: float) -> int:
        """Index of breakpoint ``t``, inserted with the usage in force."""
        ts = self._ts
        k = bisect_left(ts, t)
        if k == len(ts) or ts[k] != t:
            ts.insert(k, t)
            self._use.insert(k, self._use[k - 1] if k else 0.0)
            self._end.insert(k, False)
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
            del ts[:k], use[:k], ends[:k]
        if len(self.claims) > 2 * self._kept + 64:
            self._prune(now)
        thr = self.threshold
        guard = _RECOUNT_ULPS * (len(self.claims) + 1) * self._ulp
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
                x = peak + area
                if x <= thr - guard:
                    break
                fits = x <= thr + guard and self._recount(now, st, fin, area)
            else:
                fits = self._recount(now, st, fin, area)
            if fits:
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

    def _recount(self, now: float, st: float, fin: float, area: float) -> bool:
        self._prune(now)
        self.n_recounts += 1
        return _sweep_peak(self.claims, st, fin) + area <= self.threshold

    def _prune(self, now: float) -> None:
        """Drop the listed claims that ended by ``now``."""
        self.claims = [c for c in self.claims if c[1] > now]
        self._kept = len(self.claims)
