"""Deterministic chaos injection for the supervised pool.

A :class:`FaultPlan` decides, purely from ``(seed, label, item index,
attempt)``, whether a work item should crash its worker, hang, or raise a
transient exception.  The decision function is a seeded hash — no global
state, no wall clock — so the *same plan injects the same faults* on
every run: a chaos test that passes once passes always, and a CI job can
assert that a faulted sweep emits byte-identical output to a clean one.

Plans come from three places:

- tests construct :class:`FaultPlan` directly,
- :func:`plan_from_spec` parses the compact ``"seed=7,crash=0.1,..."``
  form used on command lines,
- :func:`plan_from_env` reads that form from ``REPRO_CHAOS``; every
  :class:`~repro.parallel.supervisor.SupervisedPool` built without an
  explicit plan adopts it, which is how the CI ``chaos-smoke`` job arms
  an entire ``repro experiment`` run without touching driver code.

Faults fire only on attempts ``< max_faults``; retries beyond that run
clean, and a pool under an armed plan allows at least ``max_faults + 1``
attempts per item and charges an item only for its own faults, so a
plan can never make an item fail.  Process-killing faults
(``crash``/``hang``) are injected only inside pool workers — in-process
execution downgrades them to no-ops so a chaos plan cannot take down the
parent or a degraded serial run.
"""

from __future__ import annotations

import os
import signal
import time
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["ChaosError", "FaultPlan", "plan_from_spec", "plan_from_env"]

#: environment variable holding a :func:`plan_from_spec` string
CHAOS_ENV = "REPRO_CHAOS"


class ChaosError(RuntimeError):
    """The transient exception injected by an ``error`` fault."""


@dataclass(frozen=True)
class FaultPlan:
    """Seeded fault schedule over ``(label, item, attempt)`` tuples.

    ``crash``/``hang``/``error`` are independent-ish probabilities (one
    uniform draw per tuple, cut into bands, so their sum must stay
    ``<= 1``).  ``timeout_s`` is not a fault: it is the per-item
    deadline a :class:`~repro.parallel.supervisor.SupervisedPool` under
    this plan adopts, so injected hangs are cut, not slept through.
    """

    seed: int
    crash: float = 0.0        # SIGKILL the worker process
    hang: float = 0.0         # sleep hang_s (must exceed the timeout)
    error: float = 0.0        # raise ChaosError
    max_faults: int = 1       # attempts >= this run clean
    hang_s: float = 60.0
    timeout_s: float = 10.0

    def __post_init__(self) -> None:
        for name in ("crash", "hang", "error"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"FaultPlan.{name} must be in [0, 1], got {p}")
        if self.crash + self.hang + self.error > 1.0:
            raise ValueError("FaultPlan crash + hang + error must be <= 1")
        if self.max_faults < 0:
            raise ValueError("FaultPlan.max_faults must be >= 0")
        if self.hang_s <= 0 or self.timeout_s <= 0:
            raise ValueError("FaultPlan.hang_s and timeout_s must be > 0")

    def fault_for(self, label: str, index: int, attempt: int) -> Optional[str]:
        """The fault for one ``(label, item, attempt)`` — or None.

        Deterministic: the draw is a fresh generator seeded from the
        full tuple, so the decision depends on nothing but the plan and
        the item's identity — not on scheduling, pool size, or how many
        other items were drawn before it.
        """
        if attempt >= self.max_faults:
            return None
        rng = np.random.default_rng([
            self.seed, zlib.crc32(label.encode()), index, attempt,
        ])
        u = float(rng.random())
        if u < self.crash:
            return "crash"
        if u < self.crash + self.hang:
            return "hang"
        if u < self.crash + self.hang + self.error:
            return "error"
        return None

    def inject(self, fault: str, *, in_worker: bool) -> None:
        """Execute a fault decision at the top of a work item.

        ``crash`` and ``hang`` only make sense where a supervisor can
        observe the loss from outside (a pool worker process); in-process
        they are skipped rather than killing or stalling the parent.
        """
        if fault == "error":
            raise ChaosError("injected transient fault")
        if not in_worker:
            return
        if fault == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault == "hang":
            # chaos stand-in for a wedged worker; the supervisor's
            # per-item timeout is what kills it
            time.sleep(self.hang_s)  # repro-lint: disable=PAR002
        else:
            raise ValueError(f"unknown fault {fault!r}")


def plan_from_spec(spec: str) -> FaultPlan:
    """Parse ``"seed=7,crash=0.1,hang=0.05,error=0.2,timeout=5"``.

    Keys: ``seed`` (required), ``crash``/``hang``/``error`` rates,
    ``max_faults``, ``hang_s``, ``timeout`` (alias ``timeout_s``).
    """
    kwargs = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"malformed REPRO_CHAOS entry {part!r}; want key=value")
        key = key.strip()
        if key == "timeout":
            key = "timeout_s"
        if key in ("seed", "max_faults"):
            kwargs[key] = int(value)
        elif key in ("crash", "hang", "error", "hang_s", "timeout_s"):
            kwargs[key] = float(value)
        else:
            raise ValueError(f"unknown REPRO_CHAOS key {key!r}")
    if "seed" not in kwargs:
        raise ValueError("REPRO_CHAOS spec needs an explicit seed=N")
    return FaultPlan(**kwargs)


def plan_from_env() -> Optional[FaultPlan]:
    """The :data:`CHAOS_ENV` plan, or None when chaos is not armed."""
    spec = os.environ.get(CHAOS_ENV)
    if not spec:
        return None
    return plan_from_spec(spec)
