"""Event-driven execution of a training plan against a virtual cluster.

Workers run their shard sequentially: per round, a compute phase, a gradient
push, a first-come-first-served wait for the single parameter server, the
server-side update, and a pull of fresh weights. All cross-worker coupling
happens at the server queue, so queueing delay emerges from the simulation
instead of the scheduler's linear contention stand-in.

Randomness is optional and reproducible: every duration can be stretched by
multiplicative jitter, with one RNG stream per worker (seeded from the job
seed and the worker's position in the cluster) plus a dedicated stream for
the server, so one worker's draws never shift another's.

Failures: scripted crash events kill a worker mid-training. A crash is
noticed one heartbeat later, every worker is stopped, and the job restarts
from scratch. A worker that crashes too often is excluded and the plan is
re-solved without it (``inject_and_recover`` drives that arc).
"""

from __future__ import annotations

import csv
import heapq
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .cluster import ClusterSpec, JobSpec, ValidationError
from .documents import csv_rows
from .estimators import bundle_for, default_registry
from .scheduler import InfeasibleScheduleError, Plan, check_pressure, solve

PS_STREAM_KEY = 10 ** 6

COMPLETED = "completed"
INTERRUPTED = "interrupted"
ABANDONED = "abandoned"


@dataclass(frozen=True)
class CrashEvent:
    worker_id: str
    time: float


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one simulation run.

    ``jitter`` is the standard deviation of the multiplicative noise on every
    duration (0 gives a deterministic run). ``crashes`` hold absolute times
    on this run's clock; a crash only fires if its worker is actively
    training at that moment. ``include_transfer`` exists so a retriggered
    attempt can skip re-fetching samples when the deployment keeps them
    cached on the workers.
    """

    jitter: float = 0.0
    heartbeat_period: float = 1.0
    max_strikes: int = 3
    retrigger_transfer: bool = True
    crashes: tuple = ()
    trace_level: str = "phases"  # "none", "phases", or "rounds"
    include_transfer: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.jitter) and self.jitter >= 0):
            raise ValidationError(f"sim.jitter: must be a finite number >= 0, got {self.jitter}")
        if not (math.isfinite(self.heartbeat_period) and self.heartbeat_period > 0):
            raise ValidationError(f"sim.heartbeat_period: must be a finite number > 0, "
                                  f"got {self.heartbeat_period}")
        for i, crash in enumerate(self.crashes):
            if not (math.isfinite(crash.time) and crash.time >= 0):
                raise ValidationError(f"sim.crashes[{i}].time: must be a finite number >= 0, "
                                      f"got {crash.time}")
        if self.max_strikes < 1:
            raise ValidationError("sim.max_strikes: must be >= 1")
        if self.trace_level not in ("none", "phases", "rounds"):
            raise ValidationError(f"sim.trace_level: unknown '{self.trace_level}'")


@dataclass(frozen=True)
class TraceEvent:
    time: float
    worker: str
    event: str
    detail: str = ""


@dataclass(frozen=True)
class Violation:
    worker_id: str
    app_id: str
    exec_time: float
    deadline: float


@dataclass(frozen=True)
class CrashRecord:
    worker_id: str
    fire_time: float
    detect_time: float


@dataclass(frozen=True)
class SimResult:
    status: str  # completed | interrupted
    makespan: float
    worker_finish: dict
    train_starts: dict
    epochs_completed: dict
    rounds_completed: dict
    crash: CrashRecord | None
    violations: tuple
    trace: tuple


def _jitter(rng, sigma: float, duration: float) -> float:
    if sigma == 0.0 or duration == 0.0:
        return duration
    draw = max(-0.9, float(rng.normal(0.0, sigma)))
    return duration * (1.0 + draw)


def simulate(cluster: ClusterSpec, job: JobSpec, plan: Plan,
             registry: dict | None = None, seed: int = 0,
             config: SimConfig = SimConfig()) -> SimResult:
    """Run one attempt of the plan to completion or first detected crash."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    registry = registry if registry is not None else default_registry()
    index_of = {w.id: i for i, w in enumerate(cluster.workers)}
    assigned = set()
    for i, a in enumerate(plan.assignments):
        if a.worker_id not in index_of:
            raise ValidationError(f"plan.assignments[{i}]: unknown worker '{a.worker_id}'")
        if a.worker_id in assigned:
            raise ValidationError(f"plan.assignments[{i}]: worker '{a.worker_id}' is assigned twice")
        if a.num_samples < 1 or a.batch_size < 1:
            raise ValidationError(f"plan.assignments[{i}]: num_samples and batch_size must be "
                                  f">= 1, got {a.num_samples} and {a.batch_size}")
        assigned.add(a.worker_id)
    if plan.num_samples != job.num_samples:
        raise ValidationError(f"plan.assignments: shards sum to {plan.num_samples} samples, "
                              f"the job has {job.num_samples}")
    for ev in config.crashes:
        if ev.worker_id not in index_of:
            raise ValidationError(f"crash script names unknown worker '{ev.worker_id}'")
    sigma = config.jitter
    want_phases = config.trace_level in ("phases", "rounds")
    want_rounds = config.trace_level == "rounds"

    trace: list = []
    violations: list = []
    rng_ps = np.random.default_rng(np.random.SeedSequence([seed, PS_STREAM_KEY]))

    # Per-worker setup: durations, RNG stream, start of the training window.
    info: dict = {}
    for a in plan.assignments:
        w = cluster.workers[index_of[a.worker_id]]
        bundle = bundle_for(registry, w.device_class)
        rng = np.random.default_rng(np.random.SeedSequence([seed, index_of[w.id]]))
        t_c = bundle.est_compute_time(w.initial_state, a.batch_size)
        push, service, pull = bundle.update_components(w.initial_state, a.batch_size,
                                                       cluster.ps_state)
        rounds_per_epoch = math.ceil(a.num_samples / a.batch_size)
        rate = w.per_sample_transfer_cost.get(job.source_store, 0.0)
        transfer = _jitter(rng, sigma, rate * a.num_samples if config.include_transfer else 0.0)
        init = _jitter(rng, sigma, w.init_cost)
        train_start = transfer + init
        if want_phases:
            if config.include_transfer:
                trace.append(TraceEvent(transfer, w.id, "transfer_end",
                                        f"{a.num_samples} samples"))
            trace.append(TraceEvent(train_start, w.id, "train_start",
                                    f"batch {a.batch_size}"))
        ok, exec_times = check_pressure(w, bundle, a.batch_size)
        if not ok:
            for app in w.background_apps:
                if exec_times[app.id] > app.deadline:
                    violations.append(Violation(w.id, app.id, exec_times[app.id],
                                                app.deadline))
                    if want_phases:
                        trace.append(TraceEvent(
                            train_start, w.id, "deadline_violation",
                            f"'{app.id}' projected {exec_times[app.id]:.4f} s "
                            f"> {app.deadline:.4f} s"))
        info[w.id] = {
            "rng": rng, "t_c": t_c, "push": push, "service": service, "pull": pull,
            "batch": a.batch_size, "rpe": rounds_per_epoch,
            "total_rounds": rounds_per_epoch * job.num_epoch,
            "train_start": train_start, "rounds_done": 0, "finish": None,
        }

    # Event loop. Priorities keep simultaneous events deterministic:
    # server completions first, then queue arrivals, crashes last.
    heap: list = []
    seq = 0

    def schedule(time, priority, kind, wid):
        nonlocal seq
        heapq.heappush(heap, (time, priority, seq, kind, wid))
        seq += 1

    for wid, st in info.items():
        first = (st["train_start"]
                 + _jitter(st["rng"], sigma, st["batch"] * st["t_c"])
                 + _jitter(st["rng"], sigma, st["push"]))
        schedule(first, 1, "arrival", wid)
    for ev in config.crashes:
        schedule(ev.time, 2, "crash", ev.worker_id)

    queue: deque = deque()
    busy = False
    crash_rec = None

    def start_service(now):
        nonlocal busy
        wid = queue.popleft()
        busy = True
        dur = _jitter(rng_ps, sigma, info[wid]["service"])
        if want_rounds:
            trace.append(TraceEvent(now, wid, "ps_service_start",
                                    f"round {info[wid]['rounds_done'] + 1}"))
        schedule(now + dur, 0, "service_done", wid)

    while heap:
        time, _, _, kind, wid = heapq.heappop(heap)
        if kind == "arrival":
            queue.append(wid)
            if not busy:
                start_service(time)
        elif kind == "service_done":
            busy = False
            st = info[wid]
            pull_end = time + _jitter(st["rng"], sigma, st["pull"])
            st["rounds_done"] += 1
            if want_rounds:
                trace.append(TraceEvent(time, wid, "ps_service_end",
                                        f"round {st['rounds_done']}"))
            if st["rounds_done"] % st["rpe"] == 0 and want_phases:
                trace.append(TraceEvent(pull_end, wid, "epoch_end",
                                        f"epoch {st['rounds_done'] // st['rpe']}"))
            if st["rounds_done"] >= st["total_rounds"]:
                st["finish"] = pull_end
                if want_phases:
                    trace.append(TraceEvent(pull_end, wid, "finish", ""))
            else:
                nxt = (pull_end
                       + _jitter(st["rng"], sigma, st["batch"] * st["t_c"])
                       + _jitter(st["rng"], sigma, st["push"]))
                schedule(nxt, 1, "arrival", wid)
            if queue and not busy:
                start_service(time)
        else:  # crash
            st = info.get(wid)
            active = (st is not None and st["finish"] is None
                      and st["train_start"] <= time)
            if not active:
                continue
            detect = time + config.heartbeat_period
            crash_rec = CrashRecord(wid, time, detect)
            if want_phases:
                trace.append(TraceEvent(time, wid, "crash", ""))
                trace.append(TraceEvent(detect, wid, "crash_detected",
                                        "stopping all workers"))
            break

    if crash_rec is not None:
        status, makespan = INTERRUPTED, crash_rec.detect_time
    else:
        status = COMPLETED
        makespan = max(st["finish"] for st in info.values())
    trace.sort(key=lambda e: (e.time, e.worker, e.event))
    return SimResult(
        status=status, makespan=makespan,
        worker_finish={wid: st["finish"] for wid, st in info.items()},
        train_starts={wid: st["train_start"] for wid, st in info.items()},
        epochs_completed={wid: st["rounds_done"] // st["rpe"]
                          for wid, st in info.items()},
        rounds_completed={wid: st["rounds_done"] for wid, st in info.items()},
        crash=crash_rec, violations=tuple(violations), trace=tuple(trace))


# --- crash/recovery arc ------------------------------------------------------


@dataclass(frozen=True)
class ArcEvent:
    time: float
    kind: str  # crash, detected, excluded, retriggered, completed, abandoned
    worker: str = ""


@dataclass(frozen=True)
class RecoveryResult:
    status: str  # completed | abandoned
    total_time: float
    attempts: tuple  # SimResult per attempt, in order
    plans: tuple  # Plan used by each attempt (parallel to attempts)
    excluded: tuple
    strikes: dict
    events: tuple  # ArcEvent, on the global clock
    violations: tuple  # deduplicated (worker, app) pairs
    trace: tuple  # merged TraceEvents, on the global clock


def inject_and_recover(cluster: ClusterSpec, job: JobSpec,
                       registry: dict | None = None, seed: int = 0,
                       config: SimConfig = SimConfig(),
                       plan: Plan | None = None) -> RecoveryResult:
    """Run a job across crashes: restart on each one, drop repeat offenders.

    Crash times in ``config.crashes`` are on the global clock spanning all
    attempts. After ``max_strikes`` crashes a worker is excluded and the plan
    is re-solved over the remaining workers; if nobody useful remains, the
    job is abandoned.
    """
    registry = registry if registry is not None else default_registry()
    current_plan = plan if plan is not None else solve(cluster, job, registry)
    pending = sorted(config.crashes, key=lambda e: e.time)
    active_cluster = cluster
    offset = 0.0
    attempt = 0
    strikes: dict = {}
    excluded: list = []
    events: list = []
    attempts: list = []
    plans: list = []
    trace: list = []
    seen_violations: dict = {}

    while True:
        local = tuple(CrashEvent(e.worker_id, e.time - offset)
                      for e in pending if e.time > offset)
        cfg = replace(config, crashes=local,
                      include_transfer=(attempt == 0 or config.retrigger_transfer))
        attempt_seed = int(np.random.SeedSequence([seed, attempt]).generate_state(1)[0])
        res = simulate(active_cluster, job, current_plan, registry,
                       seed=attempt_seed, config=cfg)
        attempts.append(res)
        plans.append(current_plan)
        for ev in res.trace:
            trace.append(TraceEvent(ev.time + offset, ev.worker, ev.event, ev.detail))
        for v in res.violations:
            seen_violations.setdefault((v.worker_id, v.app_id), v)

        if res.status == COMPLETED:
            total = offset + res.makespan
            events.append(ArcEvent(total, COMPLETED))
            return RecoveryResult(
                status=COMPLETED, total_time=total, attempts=tuple(attempts),
                plans=tuple(plans), excluded=tuple(excluded), strikes=dict(strikes),
                events=tuple(events), violations=tuple(seen_violations.values()),
                trace=tuple(trace))

        wid = res.crash.worker_id
        strikes[wid] = strikes.get(wid, 0) + 1
        events.append(ArcEvent(offset + res.crash.fire_time, "crash", wid))
        detect_global = offset + res.crash.detect_time
        events.append(ArcEvent(detect_global, "detected", wid))
        pending = [e for e in pending if e.time > detect_global]
        offset = detect_global

        if strikes[wid] >= config.max_strikes:
            excluded.append(wid)
            events.append(ArcEvent(offset, "excluded", wid))
            active_cluster = replace(
                active_cluster,
                workers=tuple(w for w in active_cluster.workers if w.id != wid))
            pending = [e for e in pending if e.worker_id != wid]
            try:
                current_plan = solve(active_cluster, job, registry)
            except (InfeasibleScheduleError, ValidationError):
                events.append(ArcEvent(offset, ABANDONED))
                return RecoveryResult(
                    status=ABANDONED, total_time=offset, attempts=tuple(attempts),
                    plans=tuple(plans), excluded=tuple(excluded),
                    strikes=dict(strikes), events=tuple(events),
                    violations=tuple(seen_violations.values()), trace=tuple(trace))
        events.append(ArcEvent(offset, "retriggered"))
        attempt += 1


# --- trace files --------------------------------------------------------------


TRACE_COLUMNS = ("time", "worker", "event", "detail")


def save_trace(trace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for ev in trace:
            writer.writerow([f"{ev.time:.6f}", ev.worker, ev.event, ev.detail])


def load_trace(path) -> tuple:
    return tuple(TraceEvent(*rec) for rec in csv_rows(path, TRACE_COLUMNS, {"time": float}))
