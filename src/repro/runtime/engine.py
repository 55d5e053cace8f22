"""Event-driven execution engine for static mappings under dynamic scenarios.

The analytic evaluator (:class:`repro.evaluation.costmodel.CostModel`) is a
*planning* recurrence: it claims device slots task by task along a fixed
priority order, so a later-priority task may legally start earlier in time
than the decision that scheduled it.  A naive work-conserving event
simulator ("start the highest-priority ready task whenever a slot idles")
does **not** reproduce that recurrence.  This engine therefore separates

- **commitment** — scheduling decisions, made per device in strict priority
  order the moment all information a decision needs is available (all
  predecessors committed, all earlier-priority tasks on the device
  committed), exactly like the analytic pass; and
- **realization** — a classic discrete-event heap that plays the committed
  ready/start/finish instants back in time order, drives the task state
  machine released → ready → running → done, and logs the typed records of
  :mod:`repro.runtime.events`.

A commit *pulls* its ready time from its committed inputs through one rule
(``RuntimeEngine._ready_time``): the max of arrival + host→device staging
and, per predecessor, finish + edge transfer — or start + pipeline fill
when the predecessor streams into the task on the same streaming device,
which then cannot finish before that predecessor drains.  With bounded
link slots the same rule queues each cross-device transfer on its route.
A predecessor's commit only tells its successors that one more input is
known.  With zero noise and no scenarios the cascade *is* the analytic
recurrence (same tables, same slot tie-breaking, same streaming/drain
rules), so the engine's makespan equals ``CostModel.simulate()`` exactly —
the simulator is a strict generalization of the model, and the test suite
pins this invariant across every graph generator family.

Dynamic behaviour enters through interruptions, in the spirit of the
HeSP simulation framework and dask.distributed's scheduler state machine:
when a :class:`~repro.runtime.scenarios.DeviceSlowdown` or
:class:`~repro.runtime.scenarios.DeviceFailure` fires at time *t*, every
commitment that has not started yet (``start >= t``) is rolled back, running
tasks on a failed device are killed and remapped, and the cascade replans
from the surviving state — decisions made before *t* are never rewritten.
The surviving state is rebuilt in one pass over the committed tasks (device
queues, slot availability, link slots, area ledger); rolled-back tasks
only recount their unknown predecessors and pull fresh ready times when
they recommit.  Stochastic runtimes come from :mod:`repro.runtime.stochastic`
factors that are drawn once per task at submission, so replanning never
resamples noise and a seed fully determines the trace.

Multi-job arrival streams share the platform FIFO: tasks of later arrivals
queue behind all unfinished tasks of earlier jobs on the same device.

Shared resources (cross-job).  Three platform resources are global, not
per job:

- **FPGA area** — a ledger per area-capped device tracks the fabric every
  in-flight task occupies between its start and its finish, across *all*
  jobs, as a usage step function (:class:`~repro.runtime.ledger.
  AreaLedger`): sorted breakpoints with the area in use on each segment,
  in whole area units, scanned from the candidate start, so every
  admission is exact.  A task whose area claim would oversubscribe the
  budget waits for area to free
  (``AreaWait`` events, ``RuntimeTrace.area_wait_time``) instead of
  silently co-residing; with a replan policy, an arriving job
  that would contend is instead routed through the policy with the
  residual capacity (see :mod:`repro.runtime.replan`).  Within one job
  the static feasibility check already guarantees the sum fits, so
  single-job runs never wait and stay bit-identical to the model.
  Ledger claims release at task *finish* (dynamic partial
  reconfiguration across jobs); the per-job *static* check deliberately
  stays more conservative — a job's bitstreams persist until the job
  completes (see :func:`_remap_tasks`).  The two layers answer different
  questions: "may this job's mapping exist at all" vs "who holds the
  fabric right now".
- **Interconnect links** — with transfer slots bounded, every
  cross-device transfer (predecessor edges, initial host→device staging,
  final device→host results) queues FIFO in commitment order.  On a
  uniform (legacy) platform the bound is ``link_slots`` (on the
  :class:`~repro.platform.platform.Platform` or the engine) and there is
  **one shared pool** of transfer slots; on a topology-aware platform
  each finite-width link owns its own pool and a transfer claims a slot
  on **every link of its route simultaneously** (a routed transfer holds
  the whole path for its duration, wormhole-style) — it starts at the
  max of its data-ready time and each route pool's earliest-free slot,
  and the ``LinkWait`` record names the link whose queue blocked
  longest.  Either way, slots keep per-slot busy-until times exactly
  like the device slots themselves: no gap backfilling, so a transfer
  committed later never slips into an idle window before an earlier
  commitment — reported link waits are the conservative list-scheduling
  answer, consistent with how the whole engine schedules.  Unlimited
  slots (``None``/``0``, and links without their own ``slots``) keep
  the analytic infinite-parallel link model bit-identically; routing
  still shapes *cost* through the platform's effective matrices, which
  the cost-model tables already price.
- **Energy** — the trace accounts energy with the rates of
  :mod:`repro.evaluation.energy`: execution seconds × active watts,
  transferred MB × :data:`~repro.evaluation.energy.JOULES_PER_MB`, plus
  the platform idle floor over the horizon.  Work rolled back by
  failures is charged when it ran (and surfaced as
  ``RuntimeTrace.wasted_energy_j``), so a failure-heavy trace is honestly
  more expensive than its analytic twin.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..evaluation.costmodel import CostModel, area_limit_units
from ..evaluation.energy import JOULES_PER_MB, EnergyModel
from ..evaluation.trace import TaskTrace
from ..graphs.taskgraph import TaskGraph
from ..obs import metrics as _metrics
from ..obs import trace as _obs_trace
from ..platform.platform import Platform
from . import events as ev
from .ledger import AreaLedger
from .replan import ReplanContext, ReplanPolicy, make_replan_policy
from .scenarios import DeviceFailure, DeviceSlowdown, Job, Scenario
from .stochastic import NoNoise, PerturbationModel

__all__ = ["RuntimeEngine", "JobResult", "RuntimeTrace", "simulate_mapping"]

# heap ranks at equal timestamps: arrivals first; then readies and
# finishes; then scenario mutations; then starts (so a task finishing
# exactly at the scenario time counts as done, while one starting exactly
# then has *not* begun and is replanned under the new platform state — a
# slowdown at t therefore affects every start >= t); job completions
# last.  Rolled-back realizations are invalidated by generation counters.
_ARRIVAL, _READY, _FINISH, _SCENARIO, _START, _JOB_DONE = range(6)

# task states (released -> ready -> running -> done; kills rewind to released)
_RELEASED, _READY_ST, _RUNNING, _DONE = range(4)


@dataclass
class JobResult:
    """Outcome of one job: completion time and per-task execution records."""

    name: str
    arrival: float
    completion: float          # absolute time incl. final host transfers
    tasks: List[TaskTrace]
    n_killed: int = 0          # task executions lost to device failures
    n_remapped: int = 0        # tasks moved off a failed device

    @property
    def makespan(self) -> float:
        """Job-relative makespan (completion − arrival)."""
        return self.completion - self.arrival


@dataclass
class RuntimeTrace:
    """Full record of one engine run.

    Duck-compatible with :class:`repro.evaluation.trace.ScheduleTrace`
    (``tasks`` / ``makespan`` / ``device_busy``), so single-job traces
    render directly through :func:`repro.evaluation.trace.render_gantt`.
    """

    jobs: List[JobResult]
    events: List[ev.Event]
    makespan: float            # latest job completion (absolute time)
    device_busy: List[float]   # summed execution seconds per device
    #: failures whose designated fallback device was itself already dead
    n_fallback_dead: int = 0
    #: seconds tasks waited on the cross-job FPGA area ledger / how many
    #: did.  A task's wait runs from the start it would have had without
    #: the ledger — max(ready time, commit instant, free device slot) — to
    #: the start the ledger granted, so a task recommitted after a
    #: rollback counts only the part of its wait after the rollback.
    area_wait_time: float = 0.0
    n_area_waits: int = 0
    #: seconds transfers queued for a shared link slot / how many waited
    link_wait_time: float = 0.0
    n_link_waits: int = 0
    #: energy actually burned, at :mod:`repro.evaluation.energy` rates:
    #: execution seconds x active watts (including re-executed work),
    #: transferred MB x JOULES_PER_MB, and the platform idle floor over
    #: the serving horizon (first arrival -> last completion).
    #: ``wasted_energy_j`` is the subset spent on work a device failure
    #: rolled back (killed partial executions plus their already-paid
    #: input transfers); it is included in the totals.
    compute_energy_j: float = 0.0
    transfer_energy_j: float = 0.0
    idle_energy_j: float = 0.0
    wasted_energy_j: float = 0.0

    @property
    def energy_j(self) -> float:
        """Total energy of the run (compute + transfers + idle floor)."""
        return self.compute_energy_j + self.transfer_energy_j + self.idle_energy_j

    @property
    def tasks(self) -> List[TaskTrace]:
        return [t for job in self.jobs for t in job.tasks]

    @property
    def n_killed(self) -> int:
        return sum(job.n_killed for job in self.jobs)

    def by_device(self, device: int) -> List[TaskTrace]:
        return [t for t in self.tasks if t.device == device]

    def total_wait(self) -> float:
        return sum(t.waited for t in self.tasks)


class _JobState:
    """Mutable per-job simulation state (arrays indexed by task index)."""

    __slots__ = (
        "idx", "name", "arrival", "model", "emodel", "order", "mapping",
        "exec_f", "trans_f", "init_f", "final_f", "succs",
        "committed", "done", "state", "gen",
        "unknown", "drain", "streamed",
        "start", "finish", "slot", "ready", "exec_actual", "fill_actual",
        "area_wait", "link_wait", "link_wait_n", "link_block", "final_wait",
        "link_claims", "final_end",
        "remaining", "completion", "n_killed", "n_remapped",
    )

    def __init__(
        self,
        idx: int,
        job: Job,
        model: CostModel,
        emodel: EnergyModel,
        succs: List[List[int]],
        noise: PerturbationModel,
        rng: np.random.Generator,
    ) -> None:
        n = model.n
        self.idx = idx
        self.name = job.name or f"job{idx}"
        self.arrival = float(job.arrival)
        self.model = model
        self.emodel = emodel
        order = list(job.order) if job.order is not None else list(model.bfs_order)
        if sorted(order) != list(range(n)):
            raise ValueError(f"job {self.name}: order is not a permutation")
        self.order = order
        self.mapping = [int(d) for d in job.mapping]
        if len(self.mapping) != n:
            raise ValueError(f"job {self.name}: mapping has wrong length")
        if min(self.mapping) < 0 or max(self.mapping) >= model.m:
            raise ValueError(f"job {self.name}: device index out of range")

        # noise factors, sampled once in a fixed order (see stochastic.py)
        self.exec_f = [1.0] * n
        self.trans_f = [[1.0] * len(preds) for preds in model.preds]
        self.init_f = [1.0] * n
        self.final_f = [1.0] * n
        if not noise.deterministic:
            for i in range(n):
                self.exec_f[i] = noise.exec_factor(rng)
                self.trans_f[i] = [
                    noise.transfer_factor(rng) for _ in model.preds[i]
                ]
                self.init_f[i] = noise.transfer_factor(rng)
                self.final_f[i] = noise.transfer_factor(rng)

        self.succs = succs
        self.committed = [False] * n
        self.done = [False] * n
        self.state = [_RELEASED] * n
        self.gen = [0] * n
        self.unknown = [len(preds) for preds in model.preds]
        self.drain = [0.0] * n
        self.streamed = [False] * n
        self.start = [0.0] * n
        self.finish = [0.0] * n
        self.slot = [-1] * n
        self.ready = [0.0] * n
        self.exec_actual = [0.0] * n
        self.fill_actual = [0.0] * n
        self.area_wait = [0.0] * n      # start delay from the area ledger
        self.link_wait = [0.0] * n      # input transfers' slot-queue time
        self.link_wait_n = [0] * n      # how many input transfers queued
        self.link_block = [-1] * n      # link index that blocked longest
        self.final_wait = [0.0] * n     # result transfer's slot-queue time
        #: link-slot claims per task: [(pool, slot, busy-until), ...]
        self.link_claims: List[List[Tuple[int, int, float]]] = [
            [] for _ in range(n)
        ]
        #: absolute end of the claimed result transfer (-1 = uncontended)
        self.final_end = [-1.0] * n
        self.remaining = n
        self.completion = float("inf")
        self.n_killed = 0
        self.n_remapped = 0

    def end_time(self, i: int) -> float:
        """Finish plus the (jittered, possibly slot-queued) result transfer."""
        if self.final_end[i] >= 0.0:
            return self.final_end[i]
        return self.finish[i] + self.model.final_rows[i][self.mapping[i]] * self.final_f[i]


class RuntimeEngine:
    """Discrete-event executor of static mappings on one platform.

    ``link_slots`` overrides the platform's transfer-slot bound for this
    engine.  The repo-wide ``0 = unlimited`` convention applies, with
    one engine-specific nuance: ``None`` means *inherit*
    ``platform.link_slots`` (where ``0`` has already been normalized to
    ``None`` = unlimited), while an explicit ``0`` here **forces** the
    unlimited analytic link model — overriding both the platform's
    shared width and any per-link ``slots`` a topology-aware platform's
    links declare.  A positive value bounds concurrent cross-device
    transfers: the width of the single shared pool on a uniform
    platform, or the default width of links without their own ``slots``
    on a topology-aware one (links that declare ``slots`` keep them).

    ``slowdown_replan_threshold``: with a replan policy set, a
    :class:`~repro.runtime.scenarios.DeviceSlowdown` whose *cumulative*
    factor on a device reaches this threshold triggers a policy replan on
    the degraded platform (must exceed 1; plain failures always replan).
    """

    def __init__(
        self,
        platform: Platform,
        *,
        noise: Optional[PerturbationModel] = None,
        scenarios: Sequence[Scenario] = (),
        replan_policy: Union[None, str, ReplanPolicy] = None,
        link_slots: Optional[int] = None,
        slowdown_replan_threshold: float = 2.0,
    ) -> None:
        self.platform = platform
        self.noise = noise if noise is not None else NoNoise()
        self.replan_policy = make_replan_policy(replan_policy)
        if link_slots is None:
            self.link_slots = platform.link_slots
            self._links_forced_off = False
        else:
            slots = int(link_slots)
            if slots != link_slots or slots < 0:
                raise ValueError(
                    "link_slots must be a non-negative integer "
                    "(0 = unlimited)"
                )
            self.link_slots = slots if slots else None
            # an explicit 0 disables per-link pools too (force-unlimited)
            self._links_forced_off = slots == 0
        if slowdown_replan_threshold <= 1.0:
            raise ValueError("slowdown_replan_threshold must exceed 1")
        self.slowdown_replan_threshold = float(slowdown_replan_threshold)
        self.scenarios = sorted(scenarios, key=lambda s: s.time)
        m = platform.n_devices
        for scn in self.scenarios:
            if isinstance(scn, (DeviceSlowdown, DeviceFailure)):
                if not 0 <= scn.device < m:
                    raise ValueError(f"scenario device {scn.device} out of range")
                if isinstance(scn, DeviceFailure) and scn.fallback is not None:
                    if not 0 <= scn.fallback < m:
                        raise ValueError(
                            f"fallback device {scn.fallback} out of range"
                        )
            else:
                raise TypeError(f"unknown scenario type {type(scn).__name__}")
        #: per area-capped device: its budget in area units
        self._limits: Dict[int, float] = area_limit_units(platform)
        self._watts_active = [d.watts_active for d in platform.devices]
        self._watts_idle_total = float(
            sum(d.watts_idle for d in platform.devices)
        )
        self._models: Dict[
            int, Tuple[CostModel, EnergyModel, List[List[int]]]
        ] = {}

    # ------------------------------------------------------------------
    def _model_for(
        self, graph: TaskGraph
    ) -> Tuple[CostModel, EnergyModel, List[List[int]]]:
        """Cost and energy models of ``graph`` and its successor lists
        (a consumer once per edge, as ``unknown`` counts it)."""
        entry = self._models.get(id(graph))
        if entry is None or entry[0].graph is not graph:
            if len(self._models) >= 64:  # bound a long-lived engine's cache
                self._models.clear()
            model = CostModel(graph, self.platform)
            ptr = model.flat.succ_ptr.tolist()
            dst = model.flat.succ_dst.tolist()
            succs = [dst[a:b] for a, b in zip(ptr, ptr[1:])]
            entry = (model, EnergyModel(model), succs)
            self._models[id(graph)] = entry
        return entry

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Union[Job, Sequence[Job]],
        rng: Union[None, int, np.random.Generator] = None,
    ) -> RuntimeTrace:
        """Execute ``jobs`` under this engine's noise and scenarios."""
        if isinstance(jobs, Job):
            jobs = [jobs]
        if not jobs:
            raise ValueError("need at least one job")
        with _obs_trace.span(
            "engine.run", "runtime",
            {"jobs": len(jobs)} if _obs_trace.enabled() else None,
        ):
            return self._run_loop(list(jobs), rng)

    def _run_loop(
        self,
        jobs: Sequence[Job],
        rng: Union[None, int, np.random.Generator],
    ) -> RuntimeTrace:
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(0 if rng is None else rng)

        m = self.platform.n_devices
        devices = self.platform.devices
        self._speed = [1.0] * m
        self._alive = [True] * m
        self._avail: List[List[float]] = [
            [0.0] * d.slots if d.serializes else [] for d in devices
        ]
        self._serializes = [d.serializes for d in devices]
        self._streaming = [d.streaming for d in devices]
        self._queues: List[List[Tuple[int, int]]] = [[] for _ in range(m)]
        self._heads = [0] * m
        self._busy = [0.0] * m
        self._jobs: List[_JobState] = []
        self._log: List[ev.Event] = []
        self._heap: List[tuple] = []
        self._seq = 0
        self._now = 0.0
        self._n_fallback_dead = 0
        # shared-resource state: link slot pools, FPGA area ledger, energy.
        # _link_pools[p] holds pool p's per-slot busy-until times;
        # _route_pools[a][b] lists the (pool, link) pairs a transfer
        # a -> b claims.  A uniform platform has one anonymous pool
        # (link -1) on every cross-device route; a topology-aware
        # platform has one pool per finite-width link, and routes
        # through only-unlimited links claim nothing.  No finite pools
        # at all -> None -> the analytic infinite-parallel model.
        self._link_pools, self._route_pools = self._build_link_pools(m)
        #: per area-capped device: the fabric claims of in-flight tasks
        self._ledgers = {d: AreaLedger(c) for d, c in self._limits.items()}
        self._e_compute_j = 0.0
        self._e_mb = 0.0
        self._e_wasted_j = 0.0
        self._area_wait_total = 0.0
        self._n_area_waits = 0
        self._link_wait_total = 0.0
        self._n_link_waits = 0

        for k, job in enumerate(sorted(jobs, key=lambda j: j.arrival)):
            self._push(job.arrival, _ARRIVAL, ("arrival", job))
        for scn in self.scenarios:
            self._push(scn.time, _SCENARIO, ("scenario", scn))

        while self._heap:
            t, rank, _seq, payload = heapq.heappop(self._heap)
            self._now = t
            kind = payload[0]
            if kind == "arrival":
                self._handle_arrival(payload[1], rng)
            elif kind == "scenario":
                self._apply_scenario(payload[1])
            elif kind == "ready":
                self._realize_ready(*payload[1:])
            elif kind == "start":
                self._realize_start(*payload[1:])
            elif kind == "finish":
                self._realize_finish(*payload[1:])
            else:  # job-done
                self._realize_job_done(payload[1])

        for js in self._jobs:
            if js.remaining > 0:
                raise ValueError(
                    f"job {js.name}: priority order is not topological "
                    f"({js.remaining} task(s) never became ready)"
                )
        return self._build_trace()

    # ------------------------------------------------------------------
    # heap / log helpers
    # ------------------------------------------------------------------
    def _push(self, time: float, rank: int, payload: tuple) -> None:
        heapq.heappush(self._heap, (time, rank, self._seq, payload))
        self._seq += 1

    def _emit(self, record: ev.Event) -> None:
        self._log.append(record)

    # ------------------------------------------------------------------
    # arrivals
    # ------------------------------------------------------------------
    def _handle_arrival(self, job: Job, rng: np.random.Generator) -> None:
        model, emodel, succs = self._model_for(job.graph)
        js = _JobState(
            len(self._jobs), job, model, emodel, succs, self.noise, rng
        )
        self._emit(ev.JobArrived(self._now, js.name))
        # the whole arriving job is movable (nothing has started): it is
        # rerouted like a mid-run failure when a task targets a dead
        # device and, with a replan policy, also when co-residency with
        # in-flight jobs would oversubscribe an FPGA budget (the policy
        # then maps against the *residual* capacity; without one the
        # tasks wait on the area ledger) or when a target's cumulative
        # slowdown already crossed the replan threshold.
        dead = not all(self._alive[d] for d in js.mapping)
        pressure = (
            self._area_pressure(js) if self.replan_policy is not None else ()
        )
        degraded = self.replan_policy is not None and any(
            self._alive[js.mapping[i]]
            and self._speed[js.mapping[i]] >= self.slowdown_replan_threshold
            for i in range(model.n)
        )
        if dead or pressure or degraded:
            self._reroute(js, list(range(model.n)), area_in_use=pressure)
        if not model.is_feasible(js.mapping):
            raise ValueError(
                f"job {js.name}: mapping violates an area budget "
                f"(usage {model.area_usage(js.mapping)})"
            )
        self._jobs.append(js)
        for i in js.order:
            self._queues[js.mapping[i]].append((js.idx, i))
        self._cascade()

    # ------------------------------------------------------------------
    # commitment cascade: per-device priority order, ready times pulled
    # ------------------------------------------------------------------
    def _cascade(self) -> None:
        work = deque(range(self.platform.n_devices))
        while work:
            d = work.popleft()
            q = self._queues[d]
            while self._heads[d] < len(q):
                j, i = q[self._heads[d]]
                js = self._jobs[j]
                if js.unknown[i] > 0:
                    break
                self._heads[d] += 1
                self._commit(js, i, d, work)

    def _commit(self, js: _JobState, i: int, d: int, work: deque) -> None:
        model = js.model
        r = self._ready_time(js, i, d)
        slot = -1
        st = r if r > self._now else self._now
        if self._serializes[d]:
            # earliest-free slot, lowest index on ties
            slots_d = self._avail[d]
            slot = min(range(len(slots_d)), key=slots_d.__getitem__)
            if slots_d[slot] > st:
                st = slots_d[slot]
        speed = self._speed[d]
        exec_t = model.exec_rows[i][d] * js.exec_f[i] * speed
        js.area_wait[i] = 0.0
        a = model.area_units_list[i]
        if a > 0.0 and d in self._ledgers:
            # cross-job area ledger: wait until the claim fits the fabric
            st0 = st
            st, fin = self._ledgers[d].first_fit(
                self._now, st, exec_t, js.drain[i], a
            )
            js.area_wait[i] = st - st0
        else:
            fin = st + exec_t
            if js.drain[i] > fin:
                fin = js.drain[i]
        if slot >= 0:
            self._avail[d][slot] = fin
        js.committed[i] = True
        js.ready[i] = r
        js.start[i] = st
        js.finish[i] = fin
        js.slot[i] = slot
        js.exec_actual[i] = exec_t
        js.fill_actual[i] = model.fill_rows[i][d] * js.exec_f[i] * speed
        js.final_end[i] = -1.0
        js.final_wait[i] = 0.0
        if self._route_pools is not None:
            # the device→host result transfer of a sink queues as well
            tf = model.final_rows[i][d] * js.final_f[i]
            if tf > 0.0:
                pools = self._route_pools[d][0]
                if pools:
                    ts, end, _bl = self._claim_route(js, i, fin, tf, pools)
                    js.final_end[i] = end
                    js.final_wait[i] = ts - fin

        gen = js.gen[i]
        if js.state[i] == _RELEASED:
            self._push(max(r, self._now), _READY, ("ready", js.idx, i, gen))
        self._push(st, _START, ("start", js.idx, i, gen))
        self._push(fin, _FINISH, ("finish", js.idx, i, gen))

        # successors pull their ready times when they commit; here they
        # only learn that one more input is known
        unknown = js.unknown
        for s in js.succs[i]:
            unknown[s] -= 1
            if unknown[s] == 0:
                work.append(js.mapping[s])

    def _ready_time(self, js: _JobState, i: int, d: int) -> float:
        """Task ``i``'s ready time on device ``d``: the one ready-time rule.

        Runs as the task commits, so every predecessor is committed: the
        max over its inputs, in model order, of host staging (arrival +
        transfer), same-device streaming predecessors (start + fill; the
        task cannot finish before they drain) and other predecessors
        (finish + transfer).  With finite link pools each cross-device
        transfer of positive duration first claims its route FIFO
        (:meth:`_claim_route`); the link-wait record names the link that
        blocked longest.
        """
        model = js.model
        routes = self._route_pools
        streaming = self._streaming[d]
        preds = model.preds[i]
        js.link_claims[i].clear()
        wait = 0.0
        n_waited = 0
        worst = 0.0
        block = -1
        drain = 0.0
        streamed = False
        r = js.arrival
        for k in range(-1, len(preds)):
            if k < 0:  # host→device input staging
                src = 0
                avail = js.arrival
                tau = model.initial_rows[i][d] * js.init_f[i]
            else:
                p, row = preds[k]
                src = js.mapping[p]
                if src == d and streaming:
                    end = js.start[p] + js.fill_actual[p]
                    streamed = True
                    if js.finish[p] > drain:
                        drain = js.finish[p]
                    if end > r:
                        r = end
                    continue
                avail = js.finish[p]
                tau = row[src][d] * js.trans_f[i][k]
            pools = routes[src][d] if routes is not None and tau > 0.0 else ()
            if pools:
                ts, end, bl = self._claim_route(js, i, avail, tau, pools)
                w = ts - avail
                if w > 0.0:
                    wait += w
                    n_waited += 1
                    if w > worst:
                        worst = w
                        block = bl
            else:
                end = avail + tau
            if end > r:
                r = end
        js.drain[i] = drain
        js.streamed[i] = streamed
        js.link_wait[i] = wait
        js.link_wait_n[i] = n_waited
        js.link_block[i] = block
        return r

    # ------------------------------------------------------------------
    # shared-resource claims (cross-job area ledger, link slots, energy)
    # ------------------------------------------------------------------
    def _build_link_pools(
        self, m: int
    ) -> Tuple[
        Optional[List[List[float]]],
        Optional[List[List[Tuple[Tuple[int, int], ...]]]],
    ]:
        """Slot pools and per-pair route→pool tables for this run.

        Uniform platform + finite ``link_slots``: one pool, every
        cross-device route claims it (link id ``-1`` — the anonymous
        shared interconnect).  Topology-aware platform: one pool per
        link with a finite width (its own ``slots``, else the engine
        default); a route's claim list keeps hop order and skips
        unlimited links.  ``(None, None)`` when nothing is finite (or
        the engine was built with ``link_slots=0``): the analytic model.
        """
        if self._links_forced_off:
            return None, None
        lg = self.platform.link_graph
        if lg is None:
            if self.link_slots is None:
                return None, None
            shared = ((0, -1),)
            routes = [
                [() if a == b else shared for b in range(m)]
                for a in range(m)
            ]
            return [[0.0] * self.link_slots], routes
        pool_of: Dict[int, int] = {}
        pools: List[List[float]] = []
        for li, link in enumerate(lg.links):
            width = link.slots if link.slots is not None else self.link_slots
            if width is not None:
                pool_of[li] = len(pools)
                pools.append([0.0] * width)
        if not pools:
            return None, None
        routes = [
            [
                tuple(
                    (pool_of[li], li)
                    for li in lg.routes[a][b]
                    if li in pool_of
                )
                for b in range(m)
            ]
            for a in range(m)
        ]
        return pools, routes

    def _claim_route(
        self,
        js: _JobState,
        i: int,
        ready: float,
        dur: float,
        pools: Tuple[Tuple[int, int], ...],
    ) -> Tuple[float, float, int]:
        """FIFO-claim one slot on every pool of a transfer's route.

        The transfer starts at the max of ``ready`` and each pool's
        earliest-free slot (lowest index on ties) and occupies all the
        claimed slots for ``dur`` — a routed transfer holds its whole
        path.  Claims are recorded on task ``i`` as ``(pool, slot,
        end)`` so rollback can rebuild slot state.  Returns ``(start,
        end, link)`` where ``link`` is the route link whose queue set
        the start time (``-1`` if ``ready`` did, or on the uniform
        platform's anonymous pool).
        """
        ts = ready
        blocking = -1
        picks: List[Tuple[int, int, int]] = []
        for pi, li in pools:
            avail = self._link_pools[pi]
            best = min(range(len(avail)), key=avail.__getitem__)
            picks.append((pi, best, li))
            if avail[best] > ts:
                ts = avail[best]
                blocking = li
        end = ts + dur
        claims = js.link_claims[i]
        for pi, best, _li in picks:
            self._link_pools[pi][best] = end
            claims.append((pi, best, end))
        return ts, end, blocking

    def _area_pressure(
        self, js: _JobState
    ) -> Tuple[Tuple[int, float], ...]:
        """Fabric held by other in-flight jobs, if ``js`` would contend.

        Returns ``(device, area_in_use)`` pairs when the arriving job's
        static usage plus the area that *unfinished* tasks of other
        incomplete jobs still occupy oversubscribes some budget — the
        signal to route the arrival through the replan policy.  Empty
        tuple: no contention, the job proceeds unchanged.
        """
        limits = self._limits
        if not limits or not self._jobs:
            return ()
        # the decision counts area units; in_use reports real area
        new = {d: 0.0 for d in limits}
        units = js.model.area_units_list
        for i in range(js.model.n):
            d = js.mapping[i]
            if d in new:
                new[d] += units[i]
        held = {d: 0.0 for d in limits}
        in_use = {d: 0.0 for d in limits}
        for other in self._jobs:
            if other.remaining == 0:
                continue
            ou = other.model.area_units_list
            oa = other.model.area.tolist()
            for i in range(other.model.n):
                d = other.mapping[i]
                if d in in_use and not other.done[i]:
                    held[d] += ou[i]
                    in_use[d] += oa[i]
        for d, limit in limits.items():
            if new[d] > 0.0 and new[d] + held[d] > limit:
                return tuple(sorted(
                    (dev, use) for dev, use in in_use.items() if use > 0.0
                ))
        return ()

    # ------------------------------------------------------------------
    # realizations
    # ------------------------------------------------------------------
    def _realize_ready(self, j: int, i: int, gen: int) -> None:
        js = self._jobs[j]
        if gen != js.gen[i] or js.state[i] != _RELEASED:
            return
        js.state[i] = _READY_ST
        self._emit(ev.TaskReady(self._now, js.name, js.model.tasks[i], js.mapping[i]))

    def _realize_start(self, j: int, i: int, gen: int) -> None:
        js = self._jobs[j]
        if gen != js.gen[i]:
            return
        js.state[i] = _RUNNING
        w = js.area_wait[i]
        if w > 0.0:
            self._area_wait_total += w
            self._n_area_waits += 1
            self._emit(ev.AreaWait(
                self._now, js.name, js.model.tasks[i], js.mapping[i], w
            ))
        w = js.link_wait[i]
        if w > 0.0:
            self._link_wait_total += w
            self._n_link_waits += js.link_wait_n[i]
            self._emit(ev.LinkWait(
                self._now, js.name, js.model.tasks[i], w, js.link_block[i]
            ))
        # input data is on the device now: charge the transfer energy
        # (re-charged if a failure rolls the task back and it restarts)
        self._e_mb += js.emodel.transfer_mb(js.mapping, i)
        self._emit(ev.TaskStarted(
            self._now, js.name, js.model.tasks[i], js.mapping[i], js.slot[i]
        ))

    def _realize_finish(self, j: int, i: int, gen: int) -> None:
        js = self._jobs[j]
        if gen != js.gen[i]:
            return
        js.done[i] = True
        js.state[i] = _DONE
        d = js.mapping[i]
        self._busy[d] += js.exec_actual[i]
        self._e_compute_j += js.exec_actual[i] * self._watts_active[d]
        self._e_mb += js.emodel.sink_mb(js.mapping, i)
        fw = js.final_wait[i]
        if fw > 0.0:
            self._link_wait_total += fw
            self._n_link_waits += 1
        self._emit(ev.TaskFinished(self._now, js.name, js.model.tasks[i], js.mapping[i]))
        js.remaining -= 1
        if js.remaining == 0:
            completion = max(js.end_time(i) for i in range(js.model.n))
            js.completion = completion
            self._push(completion, _JOB_DONE, ("job-done", j))

    def _realize_job_done(self, j: int) -> None:
        js = self._jobs[j]
        self._emit(ev.JobCompleted(self._now, js.name, js.completion - js.arrival))

    # ------------------------------------------------------------------
    # scenarios: rollback + replan
    # ------------------------------------------------------------------
    def _remap_tasks(
        self,
        js: _JobState,
        tasks: List[int],
        preferred: Optional[int],
        desired: Optional[Dict[int, int]] = None,
    ) -> Dict[int, int]:
        """Pick an alive, area-feasible target device for each task.

        The *static* area budgets validated here are per job, in the
        model's area units against its ``limit_units`` (so replan and
        static mapping agree on feasibility at the boundary; dynamic
        cross-job co-residency is the area ledger's job):
        usage counts every task still mapped to an area-limited device —
        including finished ones, whose bitstreams occupied the fabric —
        minus the tasks being moved.  Preference order: the task's entry
        in ``desired`` (a replan policy's proposal — tried first when the
        device is alive, so an overflowing or dead proposal degrades
        gracefully), then the explicit fallback device, then lowest index.
        """
        if not tasks:
            return {}
        model = js.model
        limits = model.limit_units
        units = model.area_units_list
        moving = set(tasks)
        usage = {d: 0.0 for d in limits}
        for i in range(model.n):
            d = js.mapping[i]
            if d in usage and i not in moving:
                usage[d] += units[i]
        candidates = [d for d in range(self.platform.n_devices) if self._alive[d]]
        if not candidates:
            raise RuntimeError("all devices have failed")
        if preferred is not None and preferred in candidates:
            candidates.remove(preferred)
            candidates.insert(0, preferred)
        targets: Dict[int, int] = {}
        for i in tasks:
            order = candidates
            if desired is not None:
                want = desired.get(i, js.mapping[i])
                if self._alive[want]:
                    order = [want] + [d for d in candidates if d != want]
            area = units[i]
            for d in order:
                if d in limits and usage[d] + area > limits[d]:
                    continue
                targets[i] = d
                if d in limits:
                    usage[d] += area
                break
            else:
                raise RuntimeError(
                    f"job {js.name}: no surviving device can host task "
                    f"{model.tasks[i]} within its area budget"
                )
        return targets

    def _apply_scenario(self, scn: Scenario) -> None:
        if isinstance(scn, DeviceSlowdown):
            if not self._alive[scn.device]:
                return
            self._speed[scn.device] *= scn.factor
            self._emit(ev.DeviceSlowed(self._now, scn.device, scn.factor))
            # a slowdown whose cumulative factor crosses the threshold
            # asks the replan policy for a mapping of the degraded
            # platform; below it (or with no policy) the rollback/recommit
            # alone re-times the committed frontier at the new speed
            slowed = None
            if (
                self.replan_policy is not None
                and self._speed[scn.device] >= self.slowdown_replan_threshold
            ):
                slowed = scn.device
            self._replan(slowed=slowed)
        elif isinstance(scn, DeviceFailure):
            if not self._alive[scn.device]:
                return
            self._alive[scn.device] = False
            self._emit(ev.DeviceFailed(self._now, scn.device))
            self._replan(failed=scn.device, fallback=scn.fallback)

    def _replan(
        self,
        failed: Optional[int] = None,
        fallback: Optional[int] = None,
        slowed: Optional[int] = None,
    ) -> None:
        t = self._now
        # 1) roll back every commitment that has not started yet (start >= t:
        #    same-instant starts realize after the scenario, see the rank
        #    order); kill running tasks on a failed device (done tasks are
        #    never touched)
        for js in self._jobs:
            for i in range(js.model.n):
                if not js.committed[i] or js.done[i]:
                    continue
                running = js.start[i] < t
                if running and js.mapping[i] != failed:
                    continue
                js.committed[i] = False
                js.gen[i] += 1
                if running:
                    js.state[i] = _RELEASED
                    js.n_killed += 1
                    partial = t - js.start[i]
                    self._busy[failed] += partial
                    # energy burned on the rolled-back execution — and on
                    # the input transfers it already paid — is real; it
                    # stays in the totals and is surfaced as waste
                    burned = partial * self._watts_active[failed]
                    self._e_compute_j += burned
                    self._e_wasted_j += (
                        burned
                        + js.emodel.transfer_mb(js.mapping, i) * JOULES_PER_MB
                    )
                    self._emit(ev.TaskKilled(t, js.name, js.model.tasks[i], failed))

        # 2) move unfinished work off the failed device (area-aware: a
        #    fallback that would blow an FPGA budget is skipped for the
        #    next surviving device).  With a replan policy, *every*
        #    not-yet-started task may move: the policy re-runs a mapper on
        #    the surviving platform and the fresh mapping is spliced in.
        if failed is not None and fallback is not None and not self._alive[fallback]:
            # the designated fallback is itself dead: record it loudly
            # (the area-aware _remap_tasks path takes over) instead of
            # silently coercing to None
            self._n_fallback_dead += 1
            self._emit(ev.FallbackDead(t, fallback, failed))
            fallback = None
        if failed is not None or slowed is not None:
            for js in self._jobs:
                movable = [
                    i for i in range(js.model.n)
                    if not js.done[i] and not js.committed[i]
                ]
                if failed is None and not any(
                    js.mapping[i] == slowed for i in movable
                ):
                    continue  # the slowdown cannot affect this job's plan
                self._reroute(
                    js, movable, failed=failed, fallback=fallback,
                    slowed=slowed,
                )

        # 3) rebuild in one pass, job by job: uncommitted tasks recount
        #    their unknown predecessors (ready times are pulled afresh when
        #    they recommit) and rejoin the device queues in priority order;
        #    committed tasks restore slot availability, link slots (a done
        #    task's result transfer may outlive it) and the area ledger
        #    (unfinished ones only).  Then the cascade replans.
        m = self.platform.n_devices
        queues: List[List[Tuple[int, int]]] = [[] for _ in range(m)]
        avail = [[0.0] * len(slots) for slots in self._avail]
        pools = self._link_pools
        if pools is not None:
            pools = [[0.0] * len(pool) for pool in pools]
        ledgers = {d: AreaLedger(c) for d, c in self._limits.items()}
        for js in self._jobs:
            committed = js.committed
            preds = js.model.preds
            for i in js.order:
                if not committed[i]:
                    js.unknown[i] = sum(
                        1 for p, _row in preds[i] if not committed[p]
                    )
                    queues[js.mapping[i]].append((js.idx, i))
            area = js.model.area_units_list
            for i in range(js.model.n):
                if not committed[i]:
                    continue
                d = js.mapping[i]
                slot = js.slot[i]
                if slot >= 0 and js.finish[i] > avail[d][slot]:
                    avail[d][slot] = js.finish[i]
                for pool, slot, end in js.link_claims[i]:
                    if end > pools[pool][slot]:
                        pools[pool][slot] = end
                if not js.done[i] and d in ledgers and area[i] > 0.0:
                    ledgers[d].add(js.start[i], js.finish[i], area[i])
        self._queues = queues
        self._heads = [0] * m
        self._avail = avail
        self._link_pools = pools
        self._ledgers = ledgers
        self._cascade()

    def _reroute(
        self,
        js: _JobState,
        movable: List[int],
        *,
        failed: Optional[int] = None,
        fallback: Optional[int] = None,
        slowed: Optional[int] = None,
        area_in_use: Tuple[Tuple[int, float], ...] = (),
    ) -> None:
        """Move ``js``'s ``movable`` tasks to new devices and log each move.

        A replan policy's proposal is validated by :meth:`_remap_tasks`;
        without a policy, or when it declines, only stranded tasks (movable
        ones on a dead device) move.  A moved task is rewound to released,
        so its readiness is re-announced on its new device.
        """
        proposal = None
        if self.replan_policy is not None and movable:
            proposal = self.replan_policy.propose(ReplanContext(
                graph=js.model.graph,
                platform=self.platform,
                alive=tuple(self._alive),
                mapping=tuple(js.mapping),
                movable=tuple(movable),
                failed=failed,
                fallback=fallback,
                slowed=slowed,
                speed=tuple(self._speed),
                area_in_use=area_in_use,
            ))
        if proposal is None:
            stranded = [i for i in movable if not self._alive[js.mapping[i]]]
            targets = self._remap_tasks(js, stranded, fallback)
        else:
            targets = self._remap_tasks(
                js, movable, fallback, desired=proposal
            )
        for i, target in targets.items():
            old = js.mapping[i]
            if target == old:
                continue
            js.mapping[i] = target
            js.state[i] = _RELEASED
            js.n_remapped += 1
            self._emit(ev.TaskRemapped(
                self._now, js.name, js.model.tasks[i], old, target
            ))

    # ------------------------------------------------------------------
    def _build_trace(self) -> RuntimeTrace:
        jobs = []
        for js in self._jobs:
            model = js.model
            tasks = [
                TaskTrace(
                    task=model.tasks[i],
                    index=i,
                    device=js.mapping[i],
                    slot=js.slot[i],
                    ready=js.ready[i],
                    start=js.start[i],
                    finish=js.finish[i],
                    streamed=js.streamed[i],
                    waited=max(0.0, js.start[i] - js.ready[i]),
                )
                for i in js.order
            ]
            jobs.append(JobResult(
                name=js.name,
                arrival=js.arrival,
                completion=js.completion,
                tasks=tasks,
                n_killed=js.n_killed,
                n_remapped=js.n_remapped,
            ))
        makespan = max((job.completion for job in jobs), default=0.0)
        # idle floor over the serving horizon (first arrival -> last
        # completion, the same window throughput_report measures): a job
        # arriving at t is not charged platform idle for [0, t), keeping
        # engine energy == EnergyModel.energy for clean runs at any
        # arrival offset
        horizon = makespan - min((job.arrival for job in jobs), default=0.0)
        trace = RuntimeTrace(
            jobs=jobs,
            events=self._log,
            makespan=makespan,
            device_busy=list(self._busy),
            n_fallback_dead=self._n_fallback_dead,
            area_wait_time=self._area_wait_total,
            n_area_waits=self._n_area_waits,
            link_wait_time=self._link_wait_total,
            n_link_waits=self._n_link_waits,
            compute_energy_j=self._e_compute_j,
            transfer_energy_j=self._e_mb * JOULES_PER_MB,
            idle_energy_j=horizon * self._watts_idle_total,
            wasted_energy_j=self._e_wasted_j,
        )
        registry = _metrics.get_registry()
        if registry is not None:
            # Absorb the run's shared-resource aggregates (write-only;
            # nothing in the engine ever reads these back).
            registry.counter("runtime.runs").inc()
            registry.counter("runtime.jobs").inc(len(jobs))
            registry.counter("runtime.n_killed").inc(
                sum(j.n_killed for j in jobs))
            registry.counter("runtime.n_remapped").inc(
                sum(j.n_remapped for j in jobs))
            registry.counter("runtime.n_fallback_dead").inc(
                trace.n_fallback_dead)
            registry.counter("runtime.area_wait_time").inc(
                trace.area_wait_time)
            registry.counter("runtime.n_area_waits").inc(trace.n_area_waits)
            registry.counter("runtime.link_wait_time").inc(
                trace.link_wait_time)
            registry.counter("runtime.n_link_waits").inc(trace.n_link_waits)
            registry.counter("runtime.wasted_energy_j").inc(
                trace.wasted_energy_j)
            registry.histogram("runtime.makespan").observe(makespan)
            for job in jobs:
                registry.histogram("runtime.job_latency").observe(
                    job.completion - job.arrival)
        return trace


# ---------------------------------------------------------------------------
def simulate_mapping(
    graph: TaskGraph,
    platform: Platform,
    mapping: Sequence[int],
    *,
    noise: Optional[PerturbationModel] = None,
    scenarios: Sequence[Scenario] = (),
    order: Optional[Sequence[int]] = None,
    rng: Union[None, int, np.random.Generator] = None,
    name: str = "job0",
    replan_policy: Union[None, str, ReplanPolicy] = None,
    link_slots: Optional[int] = None,
    slowdown_replan_threshold: float = 2.0,
) -> RuntimeTrace:
    """Run one static mapping through the engine and return its trace."""
    engine = RuntimeEngine(
        platform, noise=noise, scenarios=scenarios,
        replan_policy=replan_policy, link_slots=link_slots,
        slowdown_replan_threshold=slowdown_replan_threshold,
    )
    return engine.run(Job(graph, mapping, name=name, order=order), rng=rng)
