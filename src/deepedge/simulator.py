"""Event-driven execution of a training plan against a virtual cluster.

Workers run their shard sequentially: per round, a compute phase, a gradient
push, a first-come-first-served wait for the single parameter server, the
server-side update, and a pull of fresh weights. All cross-worker coupling
happens at the server queue, so queueing delay emerges from the simulation
instead of the scheduler's linear contention stand-in.

The only events are arrivals at the server, in a heap ordered by time and
then by the order they were scheduled. The earliest arrival is served from
the later of its arrival and the end of the previous service; once served,
its worker pulls and computes, and its next arrival joins the heap. A
scripted crash, taken in time order, is checked just before the first
service that ends after it.

Randomness is optional and reproducible. At jitter ``sigma``, a nonzero
duration ``d`` becomes ``d * (1 + max(-0.9, sigma * z))`` for one
standard-normal draw ``z``; a zero duration, or any at jitter 0, draws
nothing. Each worker draws from its own stream, seeded from the simulation
seed and its position in the cluster: its transfer, then its init, then per
round its compute, push and pull. The server's stream draws one service per
round, in service order. So one worker's draws never shift another's.

Failures: scripted crash events kill a worker mid-training. A crash is
noticed one heartbeat later, every worker is stopped, and the job restarts
from scratch. A worker that crashes too often is excluded and the plan is
re-solved without it. ``inject_and_recover`` drives that arc and writes it as
the job's phase log: solved, transferring, registered and running for each
attempt, interrupted and retriggered between attempts, and completed or
abandoned at the end. Alongside the phases it logs what they cannot say:
which worker crashed when, and which worker was excluded.
"""

from __future__ import annotations

import csv
import enum
import heapq
import itertools
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .cluster import ClusterSpec, JobSpec, ValidationError, validate
from .documents import csv_rows, is_number, spec
from .estimators import MEM_CEILING, bundle_for, default_registry
from .scheduler import InfeasibleScheduleError, Plan, check_pressure, late_apps, solve

PS_STREAM_KEY = 10 ** 6

# seconds between heartbeats: a crash is noticed this long after it happens
HEARTBEAT_PERIOD = 1.0

COMPLETED = "completed"
INTERRUPTED = "interrupted"
ABANDONED = "abandoned"


class CrashEvent(NamedTuple):
    worker_id: str
    time: float


@spec
class SimConfig:
    """Knobs for one simulation run.

    ``jitter`` is the standard deviation of the multiplicative noise on every
    duration (0 gives a deterministic run). ``crashes`` hold absolute times
    on this run's clock; a crash only fires if its worker is actively
    training at that moment.
    """

    jitter: float = 0.0
    max_strikes: int = 3
    crashes: tuple = ()
    trace_level: str = "phases"  # "none", "phases", or "rounds"

    def __post_init__(self):
        if not (is_number(self.jitter) and math.isfinite(self.jitter) and self.jitter >= 0):
            raise ValidationError(f"sim.jitter: must be a finite number >= 0, got {self.jitter!r}")
        for i, crash in enumerate(self.crashes):
            if not isinstance(crash, CrashEvent):
                raise ValidationError(f"sim.crashes[{i}]: expected a CrashEvent, got {crash!r}")
            if not (is_number(crash.time) and math.isfinite(crash.time) and crash.time >= 0):
                raise ValidationError(f"sim.crashes[{i}].time: must be a finite number >= 0, "
                                      f"got {crash.time!r}")
        if type(self.max_strikes) is not int or self.max_strikes < 1:
            raise ValidationError(f"sim.max_strikes: must be an integer >= 1, "
                                  f"got {self.max_strikes!r}")
        if self.trace_level not in ("none", "phases", "rounds"):
            raise ValidationError(f"sim.trace_level: unknown '{self.trace_level}'")


class TraceEvent(NamedTuple):
    time: float
    worker: str
    event: str
    detail: str = ""


class Violation(NamedTuple):
    worker_id: str
    app_id: str
    exec_time: float
    deadline: float


class CrashRecord(NamedTuple):
    worker_id: str
    fire_time: float
    detect_time: float


class SimResult(NamedTuple):
    status: str  # completed | interrupted
    makespan: float
    worker_finish: dict
    train_starts: dict
    epochs_completed: dict
    rounds_completed: dict
    crash: CrashRecord | None
    violations: tuple
    trace: tuple


def _stretcher(sigma: float, seed: int, key: int):
    """The jitter of stream ``key``, as the module docstring states it; at
    jitter 0 it builds no generator."""
    if sigma == 0.0:
        return lambda duration: duration
    normal = np.random.default_rng(np.random.SeedSequence([seed, key])).standard_normal

    def stretch(duration):
        if duration == 0.0:
            return duration
        draw = sigma * normal()
        return duration * (1.0 + (draw if draw > -0.9 else -0.9))
    return stretch


def simulate(cluster: ClusterSpec, job: JobSpec, plan: Plan,
             registry: dict | None = None, seed: int = 0,
             config: SimConfig = SimConfig()) -> SimResult:
    """Run one attempt of the plan to completion or first detected crash.

    A job the cluster cannot serve (``validate``), or a plan that does not
    fit the cluster and the job (an unknown or repeated worker, shards that
    do not sum to the job, another epoch count, a batch above
    ``min(b_max, shard)`` or below ``b_min``, or one whose projected memory
    on its worker is above ``MEM_CEILING``) raises ``ValidationError``
    naming the field. Each assignment is projected once, by
    ``check_pressure``: its state decides the memory refusal, and its exec
    time the deadline violations.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    registry = registry if registry is not None else default_registry()
    validate(cluster, job)
    index_of = {w.id: i for i, w in enumerate(cluster.workers)}
    position: dict = {}  # worker id -> its assignment's index in the plan
    for p, a in enumerate(plan.assignments):
        if a.worker_id not in index_of:
            raise ValidationError(f"plan.assignments[{p}]: unknown worker '{a.worker_id}'")
        if a.worker_id in position:
            raise ValidationError(f"plan.assignments[{p}]: worker '{a.worker_id}' is assigned twice")
        if a.num_samples < 1 or a.batch_size < 1:
            raise ValidationError(f"plan.assignments[{p}]: num_samples and batch_size must be "
                                  f">= 1, got {a.num_samples} and {a.batch_size}")
        position[a.worker_id] = p
    if plan.num_samples != job.num_samples:
        raise ValidationError(f"plan.assignments: shards sum to {plan.num_samples} samples, "
                              f"the job has {job.num_samples}")
    if plan.num_epoch != job.num_epoch:
        raise ValidationError(f"plan.num_epoch: {plan.num_epoch}, the job has {job.num_epoch}")
    for ev in config.crashes:
        if ev.worker_id not in index_of:
            raise ValidationError(f"crash script names unknown worker '{ev.worker_id}'")
    sigma = config.jitter
    want_phases = config.trace_level in ("phases", "rounds")
    want_rounds = config.trace_level == "rounds"

    trace: list = []
    violations: list = []
    ps_stretch = _stretcher(sigma, seed, PS_STREAM_KEY)

    # Per worker, by position in the plan: its id, the start of its training
    # window, and what each round needs (its stream, the compute, push,
    # service and pull times, rounds per epoch and in all). Arrivals are
    # keyed (time, order of scheduling), and ``free`` is when the server ends
    # its last service.
    ids = list(position)
    train_start: list = []
    per_round: list = []
    heap: list = []
    order = itertools.count()
    for p, a in enumerate(plan.assignments):
        w = cluster.workers[index_of[a.worker_id]]
        if a.batch_size > min(w.b_max, a.num_samples):
            raise ValidationError(f"plan.assignments[{p}].batch_size: {a.batch_size} is above "
                                  f"min(b_max, num_samples) = min({w.b_max}, {a.num_samples})")
        if a.batch_size < w.b_min:
            raise ValidationError(f"plan.assignments[{p}].batch_size: {a.batch_size} is below "
                                  f"b_min = {w.b_min}")
        bundle = bundle_for(registry, w.device_class)
        _, exec_time, state = check_pressure(w, bundle, a.batch_size)
        if state.mem_util > MEM_CEILING:
            raise ValidationError(f"plan.assignments[{p}].batch_size: {a.batch_size} projects "
                                  f"memory {state.mem_util:.4f} on '{w.id}', above "
                                  f"{MEM_CEILING:.2f}")
        stretch = _stretcher(sigma, seed, index_of[w.id])
        compute = a.batch_size * bundle.est_compute_time(w.initial_state, a.batch_size)
        push, service, pull = bundle.update_components(w.initial_state, a.batch_size,
                                                       cluster.ps_state)
        rounds_per_epoch = math.ceil(a.num_samples / a.batch_size)
        transfer = stretch(w.per_sample_transfer_cost[job.source_store] * a.num_samples)
        ready = transfer + stretch(w.init_cost)
        if want_phases:
            trace.append(TraceEvent(transfer, w.id, "transfer_end",
                                    f"{a.num_samples} samples"))
            trace.append(TraceEvent(ready, w.id, "train_start", f"batch {a.batch_size}"))
        for app in late_apps(w, exec_time):
            violations.append(Violation(w.id, app.id, exec_time, app.deadline))
            if want_phases:
                trace.append(TraceEvent(
                    ready, w.id, "deadline_violation",
                    f"'{app.id}' projected {exec_time:.4f} s > {app.deadline:.4f} s"))
        train_start.append(ready)
        per_round.append((stretch, compute, push, service, pull, rounds_per_epoch,
                          rounds_per_epoch * job.num_epoch))
        heapq.heappush(heap, (ready + stretch(compute) + stretch(push), next(order), p))
    done = [0] * len(ids)
    finish: list = [None] * len(ids)
    # the sort is stable: crashes at one instant are checked in script order
    crashes = sorted(config.crashes, key=lambda e: e.time)
    crash_times = [e.time for e in crashes] + [math.inf]
    checked = 0
    free = 0.0
    crash_rec = None

    while heap:
        arrival, _, p = heapq.heappop(heap)
        stretch, compute, push, service, pull, rounds_per_epoch, total = per_round[p]
        start = arrival if arrival > free else free
        free = start + ps_stretch(service)
        while crash_times[checked] < free:
            ev = crashes[checked]
            checked += 1
            victim = position.get(ev.worker_id)
            # a worker is done once its last service ends, and crashes only while training
            if (victim is not None and finish[victim] is None
                    and train_start[victim] <= ev.time):
                crash_rec = CrashRecord(ev.worker_id, ev.time, ev.time + HEARTBEAT_PERIOD)
                break
        if want_rounds and (crash_rec is None or start <= crash_rec.fire_time):
            trace.append(TraceEvent(start, ids[p], "ps_service_start", f"round {done[p] + 1}"))
        if crash_rec is not None:
            break
        pull_end = free + stretch(pull)
        done[p] = rounds_done = done[p] + 1
        if want_rounds:
            trace.append(TraceEvent(free, ids[p], "ps_service_end", f"round {rounds_done}"))
        if rounds_done % rounds_per_epoch == 0 and want_phases:
            trace.append(TraceEvent(pull_end, ids[p], "epoch_end",
                                    f"epoch {rounds_done // rounds_per_epoch}"))
        if rounds_done >= total:
            finish[p] = pull_end
            if want_phases:
                trace.append(TraceEvent(pull_end, ids[p], "finish", ""))
        else:
            nxt = pull_end + stretch(compute) + stretch(push)
            heapq.heappush(heap, (nxt, next(order), p))

    if crash_rec is not None:
        status, makespan = INTERRUPTED, crash_rec.detect_time
        if want_phases:
            trace.append(TraceEvent(crash_rec.fire_time, crash_rec.worker_id, "crash", ""))
            trace.append(TraceEvent(crash_rec.detect_time, crash_rec.worker_id,
                                    "crash_detected", "stopping all workers"))
    else:
        status = COMPLETED
        makespan = max(finish)
    trace.sort(key=lambda e: (e.time, e.worker, e.event))
    return SimResult(
        status=status, makespan=makespan, worker_finish=dict(zip(ids, finish)),
        train_starts=dict(zip(ids, train_start)),
        epochs_completed={wid: d // rpe for wid, d, (*_, rpe, _) in zip(ids, done, per_round)},
        rounds_completed=dict(zip(ids, done)),
        crash=crash_rec, violations=tuple(violations), trace=tuple(trace))


# --- crash/recovery arc ------------------------------------------------------


class JobPhase(enum.Enum):
    REQUESTED = "requested"
    SOLVED = "solved"
    TRANSFERRING = "transferring"
    REGISTERED = "registered"
    RUNNING = "running"
    INTERRUPTED = "interrupted"
    RETRIGGERED = "retriggered"
    COMPLETED = "completed"
    ABANDONED = "abandoned"


LEGAL_TRANSITIONS = {
    JobPhase.REQUESTED: frozenset({JobPhase.SOLVED, JobPhase.ABANDONED}),
    JobPhase.SOLVED: frozenset({JobPhase.TRANSFERRING}),
    JobPhase.TRANSFERRING: frozenset({JobPhase.REGISTERED}),
    JobPhase.REGISTERED: frozenset({JobPhase.RUNNING}),
    JobPhase.RUNNING: frozenset({JobPhase.INTERRUPTED, JobPhase.COMPLETED}),
    JobPhase.INTERRUPTED: frozenset({JobPhase.RETRIGGERED, JobPhase.ABANDONED}),
    JobPhase.RETRIGGERED: frozenset({JobPhase.SOLVED}),
    JobPhase.COMPLETED: frozenset(),
    JobPhase.ABANDONED: frozenset(),
}


class IllegalTransitionError(RuntimeError):
    pass


class PhaseChange(NamedTuple):
    time: float
    phase: JobPhase


def validate_transitions(changes) -> None:
    """Raise if a phase log starts wrong, jumps illegally, or goes back in time."""
    if not changes:
        raise IllegalTransitionError("empty phase log")
    if changes[0].phase is not JobPhase.REQUESTED:
        raise IllegalTransitionError(
            f"phase log must start at requested, got {changes[0].phase.value}")
    for prev, cur in zip(changes, changes[1:]):
        if cur.phase not in LEGAL_TRANSITIONS[prev.phase]:
            raise IllegalTransitionError(
                f"illegal transition {prev.phase.value} -> {cur.phase.value}")
        if cur.time < prev.time - 1e-9:
            raise IllegalTransitionError(
                f"phase log goes back in time at {cur.phase.value}: "
                f"{cur.time} < {prev.time}")
    terminal = changes[-1].phase
    if LEGAL_TRANSITIONS[terminal]:
        raise IllegalTransitionError(
            f"phase log ends in non-terminal phase {terminal.value}")


class ArcEvent(NamedTuple):
    time: float
    kind: str  # crash | excluded
    worker: str


class RecoveryResult(NamedTuple):
    status: str  # completed | abandoned
    phases: tuple  # PhaseChange from the first solve on, on the global clock
    attempts: tuple  # SimResult per attempt, in order
    plans: tuple  # Plan used by each attempt (parallel to attempts)
    excluded: tuple
    strikes: dict
    events: tuple  # ArcEvent, on the global clock
    violations: tuple  # deduplicated (worker, app) pairs
    trace: tuple  # merged TraceEvents, on the global clock

    @property
    def total_time(self) -> float:
        return self.phases[-1].time


def inject_and_recover(cluster: ClusterSpec, job: JobSpec, plan: Plan,
                       registry: dict | None = None, seed: int = 0,
                       config: SimConfig = SimConfig()) -> RecoveryResult:
    """Run a job from its first plan across crashes: restart on each one,
    drop repeat offenders.

    Crash times in ``config.crashes`` are on the global clock spanning all
    attempts. After ``max_strikes`` crashes a worker is excluded and the plan
    is re-solved over the remaining workers; if nobody useful remains, the
    job is abandoned. An attempt is registered and running once its last
    worker starts training, or when its crash fires if that comes first.
    """
    registry = registry if registry is not None else default_registry()
    pending = sorted(config.crashes, key=lambda e: e.time)
    active_cluster = cluster
    offset = 0.0
    strikes: dict = {}
    excluded: list = []
    phases = [PhaseChange(0.0, JobPhase.SOLVED), PhaseChange(0.0, JobPhase.TRANSFERRING)]
    events: list = []
    attempts: list = []
    plans: list = []
    trace: list = []
    seen_violations: dict = {}

    def result(status):
        return RecoveryResult(
            status=status, phases=tuple(phases), attempts=tuple(attempts),
            plans=tuple(plans), excluded=tuple(excluded), strikes=dict(strikes),
            events=tuple(events), violations=tuple(seen_violations.values()),
            trace=tuple(trace))

    while True:
        local = tuple(CrashEvent(e.worker_id, e.time - offset)
                      for e in pending if e.time > offset)
        attempt_seed = int(np.random.SeedSequence([seed, len(attempts)]).generate_state(1)[0])
        res = simulate(active_cluster, job, plan, registry,
                       seed=attempt_seed, config=replace(config, crashes=local))
        attempts.append(res)
        plans.append(plan)
        for ev in res.trace:
            trace.append(TraceEvent(ev.time + offset, ev.worker, ev.event, ev.detail))
        for v in res.violations:
            seen_violations.setdefault((v.worker_id, v.app_id), v)
        running = max(res.train_starts.values())
        if res.crash is not None:
            running = min(running, res.crash.fire_time)
        phases.append(PhaseChange(offset + running, JobPhase.REGISTERED))
        phases.append(PhaseChange(offset + running, JobPhase.RUNNING))

        if res.status == COMPLETED:
            phases.append(PhaseChange(offset + res.makespan, JobPhase.COMPLETED))
            return result(COMPLETED)

        wid = res.crash.worker_id
        strikes[wid] = strikes.get(wid, 0) + 1
        events.append(ArcEvent(offset + res.crash.fire_time, "crash", wid))
        offset += res.crash.detect_time
        phases.append(PhaseChange(offset, JobPhase.INTERRUPTED))
        pending = [e for e in pending if e.time > offset]

        if strikes[wid] >= config.max_strikes:
            excluded.append(wid)
            events.append(ArcEvent(offset, "excluded", wid))
            pending = [e for e in pending if e.worker_id != wid]
            try:  # a cluster with no worker left fails to build
                active_cluster = replace(
                    active_cluster,
                    workers=tuple(w for w in active_cluster.workers if w.id != wid))
                plan = solve(active_cluster, job, registry)
            except (InfeasibleScheduleError, ValidationError):
                phases.append(PhaseChange(offset, JobPhase.ABANDONED))
                return result(ABANDONED)
        phases += [PhaseChange(offset, phase) for phase in
                   (JobPhase.RETRIGGERED, JobPhase.SOLVED, JobPhase.TRANSFERRING)]


# --- trace files --------------------------------------------------------------


TRACE_COLUMNS = ("time", "worker", "event", "detail")


def save_trace(trace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for ev in trace:
            writer.writerow([f"{ev.time:.6f}", ev.worker, ev.event, ev.detail])


def load_trace(path) -> tuple:
    return tuple(TraceEvent(*rec) for _, rec in csv_rows(path, TRACE_COLUMNS, {"time": float}))
