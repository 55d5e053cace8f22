"""Parallel experiment backbone: deterministic, fault-tolerant fan-out.

Every experiment driver (:mod:`repro.experiments`) opens one
:class:`SupervisedPool` per run and sends its per-(configuration,
replication) work through :func:`parallel_map` on it, so a sweep scales
across cores with ``--workers N`` while staying bit-identical to a
serial run.  The invariant rests on the *seed-sharding contract*
documented in :mod:`repro.parallel.pool` (and ``README.md`` next to it):
seeds are spawned in serial enumeration order before dispatch, workers are
pure functions of their items, and results are re-assembled in submission
order.

The same contract powers the fault-tolerance layer: the pool retries,
times out and rebuilds around worker failures
(:mod:`repro.parallel.supervisor`), a :class:`FaultPlan` injects
deterministic chaos for rehearsal and, when armed, sets the pool's
attempt budget and deadline (:mod:`repro.parallel.faults`),
and a :class:`SweepJournal` checkpoints completed items so an interrupted
sweep resumes without recomputing — or changing — anything
(:mod:`repro.parallel.journal`).

>>> from repro.parallel import SupervisedPool, parallel_map
>>> with SupervisedPool(2) as pool:
...     parallel_map(abs, [-3, -1, 2], pool=pool)
[3, 1, 2]
"""

from .faults import ChaosError, FaultPlan, plan_from_env, plan_from_spec
from .journal import JournalError, SweepJournal
from .pool import parallel_map, resolve_workers, spawn_seeds
from .supervisor import ItemFailedError, SupervisedPool

__all__ = [
    "parallel_map",
    "resolve_workers",
    "spawn_seeds",
    "SupervisedPool",
    "ItemFailedError",
    "FaultPlan",
    "ChaosError",
    "plan_from_spec",
    "plan_from_env",
    "SweepJournal",
    "JournalError",
]
