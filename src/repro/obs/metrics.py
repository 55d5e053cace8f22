"""Counters, gauges and histograms behind one snapshot/merge API.

The codebase accumulates many ad-hoc counters — ``CostModel``'s
``n_simulations``/``n_delta_evaluations``, kernel dedup hits,
``RuntimeTrace``'s wait times and wasted energy, per-mapper batch-size
means.  They remain where they are (they are part of those objects'
public contracts), but when observability is enabled the instrumented
layers additionally publish them into one process-wide
:class:`MetricsRegistry`, so a profile run or an experiment can read
*everything* from a single ``snapshot()`` dict and parents can
``merge()`` worker snapshots.

Three instrument kinds, all nameable on the fly (get-or-create):

* :class:`Counter` — monotonically increasing float/int total.
* :class:`Gauge` — last-written value (e.g. ``batch_size_mean``).
* :class:`Histogram` — power-of-two bucketed distribution of
  non-negative values, plus count/total/min/max.  Bucket ``b`` holds
  values ``v`` with ``v.bit_length() == b`` for ints, i.e. the
  ``2**(b-1) <= v < 2**b`` range (bucket 0 holds zeros), which makes
  :meth:`Histogram.observe_int` a single list-index increment — cheap
  enough for the delta-evaluator hot path.

Like tracing (:mod:`repro.obs.trace`), the registry is off by default:
:func:`get_registry` returns ``None`` and instrumented code skips its
publishing step.  Enabling never changes numeric results — instruments
only *record*, they are never read back by any algorithm.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "enable",
    "disable",
    "enabled",
    "get_registry",
]

Number = Union[int, float]

#: Buckets above this are clamped into the last one (2**63 covers any
#: realistic batch size / suffix length / event count).
_MAX_BUCKETS = 64


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def snapshot(self) -> Number:
        return self.value

    def merge(self, other: Number) -> None:
        self.value += other


class Gauge:
    """A last-written value (merge keeps the maximum, a stable choice
    for the "how bad did it get" readings gauges are used for here).

    Snapshots as ``{"gauge": value}`` so a merged snapshot re-creates a
    gauge (not a counter) on the receiving registry."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        self.value = value

    def snapshot(self) -> dict:
        return {"gauge": self.value}

    def merge(self, other: Optional[Number]) -> None:
        if other is not None and (self.value is None or other > self.value):
            self.value = other


class Histogram:
    """Power-of-two bucketed distribution of non-negative values.

    ``counts[b]`` is the number of observations whose integer value has
    ``bit_length() == b`` (``counts[0]`` counts zeros).  The snapshot
    trims trailing empty buckets so small distributions stay small.
    """

    __slots__ = ("name", "counts", "n", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: List[int] = [0] * _MAX_BUCKETS
        self.n = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe_int(self, value: int) -> None:
        """Hot-path record: one increment, no min/max bookkeeping."""
        self.counts[value.bit_length()] += 1
        self.n += 1
        self.total += value

    def observe_counts(self, counts: Sequence[int], total: int) -> None:
        """Bulk :meth:`observe_int` of observations already bucketed by
        bit length (``counts[b]`` of them) and summing to ``total``; the
        C scan pass records its suffix lengths this way."""
        own = self.counts
        for b, c in enumerate(counts):
            if c:
                own[b] += c
                self.n += c
        self.total += total

    def observe(self, value: Number) -> None:
        """Full record, accepts floats (bucketed by their integer part)."""
        iv = int(value)
        self.counts[min(iv.bit_length(), _MAX_BUCKETS - 1)] += 1
        self.n += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.n if self.n else None

    def snapshot(self) -> dict:
        counts = self.counts
        hi = _MAX_BUCKETS
        while hi > 0 and counts[hi - 1] == 0:
            hi -= 1
        return {
            "n": self.n,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": counts[:hi],
        }

    def merge(self, other: dict) -> None:
        for b, c in enumerate(other.get("buckets", [])):
            self.counts[b] += c
        self.n += other.get("n", 0)
        self.total += other.get("total", 0)
        omin, omax = other.get("min"), other.get("max")
        if omin is not None and (self.min is None or omin < self.min):
            self.min = omin
        if omax is not None and (self.max is None or omax > self.max):
            self.max = omax


class MetricsRegistry:
    """Name-addressed instruments with one snapshot()/merge() surface.

    Names are dotted (``mapper.n_simulations``, ``kernel.batch_size``,
    ``runtime.area_wait_time``); the kind is fixed by whichever of
    :meth:`counter`/:meth:`gauge`/:meth:`histogram` first creates the
    name — asking for the same name as a different kind is a bug and
    raises ``TypeError``.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name)
            self._instruments[name] = inst
        elif type(inst) is not cls:
            raise TypeError(
                f"metric {name!r} is a {type(inst).__name__}, "
                f"not a {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """All instruments as a plain, JSON-serializable, sorted dict.

        Counters map to their value, gauges to ``{"gauge": v}``,
        histograms to a stats dict with a ``"buckets"`` key — the value
        shape encodes the kind, which is what lets :meth:`merge`
        reconstruct the right instrument on the other side.
        """
        return {
            name: inst.snapshot()
            for name, inst in sorted(self._instruments.items())
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        This is how a parent absorbs per-worker registries shipped back
        through the pool (snapshots are picklable and JSON-safe; live
        registries never cross process boundaries).
        """
        for name, value in snapshot.items():
            if isinstance(value, dict):
                if "gauge" in value:
                    self.gauge(name).merge(value["gauge"])
                else:
                    self.histogram(name).merge(value)
            else:
                self.counter(name).merge(value)


# ---------------------------------------------------------------------------
# module-level registry (the instrumentation entry point)
# ---------------------------------------------------------------------------

_registry: Optional[MetricsRegistry] = None


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the process registry."""
    global _registry
    _registry = registry if registry is not None else MetricsRegistry()
    return _registry


def disable() -> Optional[MetricsRegistry]:
    """Uninstall and return the process registry (None if already off)."""
    global _registry
    registry, _registry = _registry, None
    return registry


def enabled() -> bool:
    return _registry is not None


def get_registry() -> Optional[MetricsRegistry]:
    """The process registry, or ``None`` when metrics are off.

    Instrumented code holds this to one cheap call per *event batch*:
    fetch once, publish everything, skip entirely on ``None``.
    """
    return _registry
