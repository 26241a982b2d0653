"""Interference-aware shard and batch assignment.

``solve`` searches for the cheapest feasible assignment of training samples
and batch sizes across a heterogeneous cluster:

1. Workers that cannot fit any batch under the memory ceiling are excluded
   up front.
2. So is every worker whose background tasks would miss a deadline with a
   batch of the largest size it could run, and every worker with no batch
   size up to the job that passes that check.
3. Epoch time bills every started round in full, so the split is integer
   from the start: tables of round times over every pressure-feasible batch
   of every worker give how many samples each worker can finish within a
   time ``T``; the split is the lowest ``T`` whose capacities cover the job,
   with the lowest total cost among splits that tie on it. A worker left
   with no samples leaves the set and the split is priced again for those
   that remain. Each batch size is the one with the shortest epoch for its
   shard.
4. An outer loop removes the slowest assigned worker (the longest
   per-sample time at its batch) and repeats while the predicted epoch time
   keeps improving, and while the workers left could beat it at all with no
   update time; the best candidate wins (ties go to the cheaper plan).

The tables are flat arrays over the whole cluster, each filled with one
estimator call per device class (the node states going in as a
``StateTable``), so the number of estimator calls in a solve does not grow
with the number of workers.

``fairness_plan`` is the baseline: equal shards for everyone, no interference
checks, no refinement.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cluster import ClusterSpec, JobSpec, ValidationError, WorkerSpec, validate
from .documents import doc_field, from_doc, load_doc, save, writer
from .estimators import EstimatorBundle, StateTable, bundle_for, default_registry


class InfeasibleScheduleError(RuntimeError):
    """No worker can run the job within its memory and deadline constraints."""


def epoch_time(num_samples: int, batch_size: int, t_compute: float, t_update: float) -> float:
    """Seconds for one epoch: every round costs a full batch plus one exchange.

    The final short round is charged like a full one; devices reserve and
    sync the same buffers regardless of how many samples arrived.
    """
    if num_samples < 0 or batch_size < 1:
        raise ValueError(f"need num_samples >= 0 and batch_size >= 1, "
                         f"got {num_samples}, {batch_size}")
    rounds = math.ceil(num_samples / batch_size)
    return rounds * (batch_size * t_compute + t_update)


def check_pressure(worker: WorkerSpec, bundle: EstimatorBundle, batch_size) -> tuple:
    """Whether every background task on this worker still meets its deadline
    once a batch of the given size is training there.

    Returns (ok, app_id -> projected exec time). A batch of zero means no
    training task lands on the worker, so nothing can be pressured. Given an
    integer array of batch sizes, ``ok`` is a mask over them and each exec
    time an array.
    """
    if not isinstance(batch_size, np.ndarray) and batch_size == 0:
        return True, {}
    exec_time = bundle.est_exec_time(bundle.est_state(worker.initial_state, batch_size))
    return (_meets_deadline(exec_time, _deadline(worker)),
            {app.id: exec_time for app in worker.background_apps})


def _deadline(worker: WorkerSpec) -> float:
    """The tightest deadline among the worker's background tasks; inf with none."""
    return min((app.deadline for app in worker.background_apps), default=math.inf)


def _meets_deadline(exec_time, deadline):
    """The pressure verdict: background tasks projected at ``exec_time`` meet
    the tightest ``deadline``; elementwise over arrays."""
    return exec_time <= deadline


# --- plan structures ------------------------------------------------------------


@dataclass(frozen=True)
class CostBreakdown:
    transfer: float
    init: float
    train: float
    total: float

    @staticmethod
    def build(transfer: float, init: float, train: float) -> "CostBreakdown":
        return CostBreakdown(transfer, init, train, transfer + init + train)


@dataclass(frozen=True)
class Assignment:
    worker_id: str = doc_field(key="worker")
    num_samples: int
    batch_size: int
    t_compute: float
    t_update: float
    t_total: float
    epoch_time: float
    cost: CostBreakdown


@dataclass(frozen=True)
class Removal:
    worker_id: str = doc_field(key="worker")
    reason: str  # "pressure" or "slowest"
    detail: str = ""


@dataclass(frozen=True)
class SolveAudit:
    """What the solver did, kept so plans can be checked after the fact.

    ``t_total`` is each assigned worker's per-sample seconds at its batch,
    and ``shares`` divides the job's samples in proportion to their inverses:
    the proportional split, whose ``largest_remainder`` stays within the
    balance envelope. The plan's shards come from the whole-round split
    instead, which may sit outside it. ``iterations`` counts the splits
    priced over all candidates.
    """

    iterations: int
    shares: dict[str, float]
    t_total: dict[str, float]
    candidates_considered: int = 1


@dataclass(frozen=True)
class Plan:
    DOCUMENT = "plan"
    method: str
    num_epoch: int
    total_cost: float
    assignments: tuple[Assignment, ...]
    removed: tuple[Removal, ...] = ()
    audit: SolveAudit | None = None

    @property
    def epoch_time(self) -> float:
        return max((a.epoch_time for a in self.assignments), default=0.0)

    @property
    def num_samples(self) -> int:
        return sum(a.num_samples for a in self.assignments)

    def assignment_for(self, worker_id: str) -> Assignment:
        for a in self.assignments:
            if a.worker_id == worker_id:
                return a
        raise KeyError(f"plan has no assignment for worker '{worker_id}'")

    def shares(self) -> dict:
        return {a.worker_id: a.num_samples for a in self.assignments}


# --- shared helpers -------------------------------------------------------------


def _transfer_rate(worker: WorkerSpec, store: str) -> float:
    rate = worker.per_sample_transfer_cost.get(store)
    if rate is None:
        raise ValidationError(f"worker '{worker.id}' has no transfer cost for "
                              f"data store '{store}'")
    return rate


def largest_remainder(shares: dict, total: int, weight: dict) -> dict:
    """Round float shares to integers summing to ``total``.

    Everyone keeps the floor of their share; each leftover unit goes to the
    worker whose rounded-up load product grows the least, i.e. the smallest
    (1 - frac) * weight, with ties to the smaller weight then the smaller id.
    Giving the spare samples to the fastest workers this way keeps every
    d * weight within one sample's weight of the rest.
    """
    floors = {wid: int(math.floor(s)) for wid, s in shares.items()}
    fracs = {wid: shares[wid] - floors[wid] for wid in shares}
    out = dict(floors)
    leftover = total - sum(floors.values())
    order = sorted(shares, key=lambda wid: ((1.0 - fracs[wid]) * weight[wid],
                                            weight[wid], wid))
    i = 0
    while leftover > 0 and order:
        out[order[i % len(order)]] += 1
        leftover -= 1
        i += 1
    # float drift in the shares can leave the floors summing past the total
    shrink = sorted(shares, key=lambda wid: ((1.0 + fracs[wid]) * weight[wid],
                                             weight[wid], wid))
    i = 0
    while leftover < 0 and any(out[w] > 0 for w in out):
        wid = shrink[i % len(shrink)]
        if out[wid] > 0:
            out[wid] -= 1
            leftover += 1
        i += 1
    return out


# --- the solver -----------------------------------------------------------------


def _assignment(worker: WorkerSpec, d: int, b: int, t_c: float, t_u: float,
                job: JobSpec) -> Assignment:
    ep = epoch_time(d, b, t_c, t_u)
    cost = CostBreakdown.build(
        transfer=_transfer_rate(worker, job.source_store) * d,
        init=worker.init_cost,
        train=ep * job.num_epoch,
    )
    return Assignment(worker.id, d, b, t_c, t_u, t_c + t_u / b, ep, cost)


class _Fleet:
    """A cluster's workers as arrays in cluster order, grouped by device class.

    ``classes`` pairs each class's bundle with its workers' indices, so that
    an estimate over many workers is one call per class, their node states
    going in as a ``StateTable``.
    """

    def __init__(self, cluster: ClusterSpec, registry: dict, store: str):
        self.workers = cluster.workers
        number: dict = {}  # device class -> its place in self.classes
        for w in self.workers:
            number.setdefault(w.device_class, len(number))
        self.kind = np.array([number[w.device_class] for w in self.workers])
        self.classes = [(bundle_for(registry, name), (self.kind == k).nonzero()[0])
                        for name, k in number.items()]
        self.cpu, self.gpu, self.mem, self.deadline, self.rate, self.init = np.array(
            [(w.initial_state.cpu_util, w.initial_state.gpu_util, w.initial_state.mem_util,
              _deadline(w), _transfer_rate(w, store), w.init_cost) for w in self.workers],
            dtype=float).T
        self.b_min, self.b_max = np.array([(w.b_min, w.b_max) for w in self.workers]).T

    def states(self, owner: np.ndarray) -> StateTable:
        """The node states of the workers ``owner`` lists, as a table."""
        return StateTable(self.cpu[owner], self.gpu[owner], self.mem[owner])

    def by_class(self, owner: np.ndarray) -> list:
        """(bundle, positions in ``owner``) for each device class among the
        workers ``owner`` holds the indices of."""
        kind = self.kind[owner]
        return [(bundle, (kind == k).nonzero()[0]) for k, (bundle, _) in enumerate(self.classes)]

    def max_batch_sizes(self, mem_ceiling: float) -> np.ndarray:
        """Every worker's largest batch under the memory ceiling; 0 for none."""
        out = np.empty(len(self.workers), dtype=int)
        for bundle, members in self.classes:
            out[members] = bundle.max_batch_size(self.mem[members], self.b_min[members],
                                                 self.b_max[members], mem_ceiling)
        return out


class _Tables:
    """Estimator values over every pressure-feasible batch size of every
    worker with a memory cap, as flat arrays of rows.

    A worker's batches run from ``b_min`` to the memory cap or the job size,
    whichever is smaller, since no shard is larger than the job. Rows are
    grouped by worker in cluster order (``owner`` numbers them), batches
    ascending within each: the shape ``_min_epoch`` and ``_split`` take.
    Each table is one estimator call per device class over all its rows: the
    pressure mask and compute times once per solve, update times once per
    worker count, since they also depend on how many workers share the
    parameter server. The mask's rows include each worker's memory cap, and
    a worker whose background tasks miss a deadline there is left out, into
    ``failed`` (``at_cap`` has the exec times); so is one with no batch that
    passes, into ``empty``.
    """

    def __init__(self, fleet: _Fleet, job: JobSpec, maxbatch: np.ndarray, ps_state):
        self.ps_state = ps_state
        eligible = maxbatch.nonzero()[0]
        low, cap = fleet.b_min[eligible], maxbatch[eligible]
        top = np.minimum(cap, job.num_samples)
        # every batch up to top, then the cap where it lies beyond
        counts = np.maximum(top - low + 1, 0) + (cap > top)
        last = counts.cumsum() - 1
        place = np.arange(eligible.size).repeat(counts)  # position in ``eligible``
        b = low[place] + np.arange(place.size) - (last + 1 - counts)[place]
        b[last] = cap
        owner = eligible[place]
        self.size = b.size
        exec_time, t_c = np.empty(b.size), np.empty(b.size)
        # each class's rows with their states and batches, for the update times
        self.classes = []
        for bundle, rows in fleet.by_class(owner):
            if rows.size:
                states, b_rows = fleet.states(owner[rows]), b[rows]
                exec_time[rows] = bundle.est_exec_time(bundle.est_state(states, b_rows))
                t_c[rows] = bundle.est_compute_time(states, b_rows)
                self.classes.append((bundle, rows, states, b_rows))
        ok = _meets_deadline(exec_time, fleet.deadline[owner])
        passed = ok[last]
        self.failed, self.at_cap = eligible[~passed], exec_time[last[~passed]]
        # the rows the splits see: those that pass, of workers passing at their cap
        self.rows = (ok & passed[place] & (b <= top[place])).nonzero()[0]
        has_rows = np.bincount(place[self.rows], minlength=eligible.size) > 0
        self.empty, self.top = eligible[passed & ~has_rows], top[passed & ~has_rows]
        self.workers = eligible[has_rows]  # fleet index of each table worker
        self.owner = (has_rows.cumsum() - 1)[place[self.rows]]
        self.b, self.t_c = b[self.rows], t_c[self.rows]
        starts = self.owner.searchsorted(np.arange(self.workers.size))
        # samples per second with no update time at all: a bound on any split
        self.fastest_rate = 1.0 / np.minimum.reduceat(self.t_c, starts)
        self.rate, self.init = fleet.rate[self.workers], fleet.init[self.workers]

    def update(self, n: int) -> np.ndarray:
        """Update times at every row with ``n`` workers sharing the parameter
        server, evaluated over the rows the mask had, then cut to the table's."""
        out = np.empty(self.size)
        for bundle, rows, states, b_rows in self.classes:
            out[rows] = bundle.est_update_time(states, b_rows, self.ps_state, n)
        return out[self.rows]


def _rounds_within(limit, r: np.ndarray) -> np.ndarray:
    """Most whole rounds of length ``r`` whose total ``k * r`` stays <= ``limit``.

    The floor of the quotient can be one off in floating point; the product is
    what ``epoch_time`` bills, so that is what gets compared.
    """
    k = np.floor(limit / r)
    k -= k * r > limit
    k += (k + 1) * r <= limit
    return k


# breakpoints _min_epoch sorts at once; with more, it halves its bracket first
_MAX_BREAKPOINTS = 100_000


def _min_epoch(b: np.ndarray, r: np.ndarray, owner: np.ndarray, starts: np.ndarray,
               M: int) -> float:
    """Lowest ``T`` at which the capacities ``max_b b * floor(T / r_b)`` cover ``M``.

    ``b`` and ``r`` list every worker's feasible batches and their round
    times, grouped by ``owner`` with each group beginning at ``starts``. A
    worker's capacity lies between ``T * s - b_max`` and ``T * s``, ``s``
    being its best samples per second, which brackets the answer.
    Capacities change only where ``T`` is a whole number of some worker's
    rounds; the breakpoints inside the bracket are sorted once, and each
    one's gain in its worker's capacity is summed in time order.
    """
    def covered(T):
        return np.maximum.reduceat(b * _rounds_within(T, r), starts).sum()

    speed = np.maximum.reduceat(b / r, starts).sum()
    lo = M / speed * (1 - 1e-9)
    hi = (M + np.maximum.reduceat(b, starts).sum()) / speed * (1 + 1e-9)
    while covered(hi) < M:
        hi *= 2.0
    while True:
        k_lo = _rounds_within(lo, r)
        counts = (_rounds_within(hi, r) - k_lo).astype(int)
        if counts.sum() <= _MAX_BREAKPOINTS:
            break
        mid = 0.5 * (lo + hi)
        if covered(mid) >= M:
            hi = mid
        else:
            lo = mid
    base = np.maximum.reduceat(b * k_lo, starts)
    entry = np.arange(b.size).repeat(counts)
    k = k_lo[entry] + 1 + np.arange(entry.size) - (counts.cumsum() - counts).repeat(counts)
    times, worker, values = k * r[entry], owner[entry], k * b[entry]
    order = np.lexsort((times, worker))
    times, worker, values = times[order], worker[order], values[order]
    # each worker's capacity after each of its breakpoints, and what that gained
    offset = values.max() + 1.0
    reach = np.maximum(np.maximum.accumulate(values + worker * offset) - worker * offset,
                       base[worker])
    first = np.concatenate(([True], worker[1:] != worker[:-1]))
    gain = reach - np.where(first, base[worker], np.concatenate(([0.0], reach[:-1])))
    by_time = times.argsort(kind="stable")
    covered_after = base.sum() + gain[by_time].cumsum()
    return float(times[by_time][(covered_after >= M).argmax()])


def _epochs(d, b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Whole-round epoch of shard ``d`` at each batch in ``b``; inf where ``b > d``."""
    return np.where(b <= d, np.ceil(d / b) * r, np.inf)


def _split(b: np.ndarray, r: np.ndarray, owner: np.ndarray, rate: np.ndarray,
           init: np.ndarray, job: JobSpec) -> np.ndarray:
    """Integer shards, one per worker, with the lowest whole-round epoch time
    and, among those, the lowest total cost.

    Every worker first takes all it can finish by the lowest epoch time; the
    samples beyond the job then come off one at a time, each from the worker
    whose shard costs the most (transfer, init and every epoch's rounds),
    which minimizes the largest cost as long as a shard's cost does not grow
    when it shrinks. A shard is cut to nothing rather than below its
    smallest feasible batch.
    """
    M = job.num_samples
    starts = owner.searchsorted(np.arange(len(rate)))
    ends = np.append(starts[1:], b.size)
    epoch = _min_epoch(b, r, owner, starts, M)
    shards = np.maximum.reduceat(b * _rounds_within(epoch, r), starts).astype(int)
    excess = int(shards.sum()) - M
    smallest = b[starts].astype(int)
    full = rate * shards + init + job.num_epoch * np.minimum.reduceat(
        _epochs(shards[owner], b, r), starts)
    costs: dict = {}  # worker -> (first shard, costs of shards first .. full)

    def cost(i: int, d: int) -> float:
        if i not in costs:
            ds = np.arange(max(shards[i] - excess, 1), shards[i] + 1)
            rows = slice(starts[i], ends[i])
            eps = _epochs(ds[:, None], b[rows], r[rows]).min(axis=1)
            costs[i] = (ds[0], rate[i] * ds + init[i] + job.num_epoch * eps)
        first, values = costs[i]
        return float(values[d - first])

    heap = [(-float(c), i) for i, c in enumerate(full) if shards[i]]
    heapq.heapify(heap)
    while excess > 0 and heap:
        _, i = heapq.heappop(heap)
        d = int(shards[i])
        if d > smallest[i]:
            new = d - 1
        elif excess >= d:
            new = 0
        else:
            continue  # cannot shrink without dropping below one batch
        excess -= d - new
        shards[i] = new
        if new:
            heapq.heappush(heap, (-cost(i, new), i))
    if excess > 0:
        # every shard left is one smallest batch, each larger than the excess:
        # empty the smallest and give the rest of it to the largest
        i = int(np.argmin(np.where(shards > 0, shards, M + 1)))
        j = int(np.argmax(np.where(np.arange(len(shards)) != i, shards, -1)))
        shards[j] += shards[i] - excess
        shards[i] = 0
    return shards


class _Candidate(NamedTuple):
    """A worker set's split: for each assigned worker in table order, its
    fleet index, shard, batch, t_c and t_u, and its epoch time, total cost
    and per-sample time, priced as arrays to rank the candidates. They must
    equal what ``_assignment`` computes for the winner's assignments, bit for
    bit (``test_candidates_are_priced_as_their_assignments``)."""

    workers: np.ndarray
    shards: np.ndarray
    batch: np.ndarray
    t_c: np.ndarray
    t_u: np.ndarray
    epoch: np.ndarray
    cost: np.ndarray
    t_total: np.ndarray

    def assignments(self, workers: tuple, job: JobSpec) -> list:
        return [_assignment(workers[i], d, b, t_c, t_u, job) for i, d, b, t_c, t_u in zip(
            self.workers.tolist(), self.shards.tolist(), self.batch.tolist(),
            self.t_c.tolist(), self.t_u.tolist())]


def _assign(alive: np.ndarray, tables: _Tables, job: JobSpec) -> tuple:
    """The best integer split over the table workers marked ``alive``, the
    mask of those assigned, and how many splits that took.

    A worker whose shard comes out empty leaves, and the split is redone with
    update times priced for the workers that remain. Each batch size is the
    table entry with the shortest epoch for its shard (ties to the larger).
    """
    splits = 0
    while True:
        splits += 1
        members = alive.nonzero()[0]
        b, t_c, t_u, owner = tables.b, tables.t_c, tables.update(members.size), tables.owner
        if members.size < alive.size:
            rows = alive[owner].nonzero()[0]
            b, t_c, t_u, owner = b[rows], t_c[rows], t_u[rows], (alive.cumsum() - 1)[owner[rows]]
        r = b * t_c + t_u
        shards = _split(b, r, owner, tables.rate[members], tables.init[members], job)
        if shards.all():
            break
        alive = alive.copy()
        alive[members[shards == 0]] = False
    starts = owner.searchsorted(np.arange(members.size))
    epochs = _epochs(shards[owner], b, r)
    shortest = epochs == np.minimum.reduceat(epochs, starts)[owner]
    best = np.maximum.reduceat(np.arange(b.size) * shortest, starts)
    b, t_c, t_u = b[best], t_c[best], t_u[best]
    epoch = np.ceil(shards / b) * r[best]
    cost = tables.rate[members] * shards + tables.init[members] + epoch * job.num_epoch
    return (_Candidate(tables.workers[members], shards, b, t_c, t_u, epoch, cost, t_c + t_u / b),
            alive, splits)


def total_cost(assignments) -> float:
    return max((a.cost.total for a in assignments), default=0.0)


def solve(cluster: ClusterSpec, job: JobSpec, registry: dict | None = None,
          mem_ceiling: float = 0.95) -> Plan:
    """Find a low-cost feasible plan; raises InfeasibleScheduleError if none exists."""
    registry = registry if registry is not None else default_registry()
    problems = validate(cluster, job)
    if problems:
        raise ValidationError("; ".join(problems))

    fleet = _Fleet(cluster, registry, job.source_store)
    workers = cluster.workers
    removal_log: list = []
    maxbatch = fleet.max_batch_sizes(mem_ceiling)
    for i in (maxbatch == 0).nonzero()[0].tolist():
        w = workers[i]
        removal_log.append(Removal(
            w.id, "pressure",
            f"no batch in [{w.b_min}, {w.b_max}] keeps projected memory "
            f"under {mem_ceiling:.2f}"))

    # background deadlines are checked at the largest batch a worker could run
    tables = _Tables(fleet, job, maxbatch, cluster.ps_state)
    for i, exec_time in zip(tables.failed.tolist(), tables.at_cap.tolist()):
        w = workers[i]
        removal_log.append(Removal(
            w.id, "pressure",
            f"background task '{w.background_apps[0].id}' projected at {exec_time:.4f} s "
            f"over its deadline with batch {maxbatch[i]}"))
    for i, top in zip(tables.empty.tolist(), tables.top.tolist()):
        removal_log.append(Removal(
            workers[i].id, "pressure",
            f"no batch from {workers[i].b_min} to {top} samples passes the pressure check"))
    alive = np.ones(tables.workers.size, dtype=bool)
    candidates = []  # (epoch time, total cost, split, removal log length)
    n_splits = 0
    while alive.any():
        split, assigned, splits = _assign(alive, tables, job)
        n_splits += splits
        epoch = float(split.epoch.max())
        for i in tables.workers[alive & ~assigned].tolist():
            removal_log.append(Removal(
                workers[i].id, "slowest",
                f"left without samples; the other workers finish the "
                f"epoch in {epoch:.4f} s"))
        improved = not candidates or epoch < min(c[0] for c in candidates)
        candidates.append((epoch, float(split.cost.max()), split, len(removal_log)))
        if not improved or split.workers.size <= 1:
            break
        slowest = int(split.t_total.argmax())
        removal_log.append(Removal(
            workers[split.workers[slowest]].id, "slowest",
            f"dropped while searching for a faster plan; per-sample time "
            f"{split.t_total[slowest]:.4f} s"))
        alive = assigned.copy()
        alive[assigned.nonzero()[0][slowest]] = False
        # even without update times the rest could not finish sooner, so the
        # next candidate would lose and end the search
        best_epoch = min(c[0] for c in candidates)
        if job.num_samples > best_epoch * (1 + 1e-9) * sum(list(tables.fastest_rate[alive])):
            break

    if not candidates:
        raise InfeasibleScheduleError(
            "no eligible workers: " +
            "; ".join(f"{r.worker_id}: {r.detail}" for r in removal_log))
    _, best_cost, split, log_len = min(candidates,
                                       key=lambda c: (c[0], c[1], -c[2].workers.size))
    best = split.assignments(workers, job)
    inv_sum = sum(1.0 / a.t_total for a in best)
    audit = SolveAudit(
        iterations=n_splits,
        shares={a.worker_id: job.num_samples / (a.t_total * inv_sum) for a in best},
        t_total={a.worker_id: a.t_total for a in best},
        candidates_considered=len(candidates))
    return Plan(method="heuristic", num_epoch=job.num_epoch, total_cost=best_cost,
                assignments=tuple(best), removed=tuple(removal_log[:log_len]), audit=audit)


def fairness_plan(cluster: ClusterSpec, job: JobSpec, registry: dict | None = None,
                  mem_ceiling: float = 0.95) -> Plan:
    """Equal shards for every worker, no interference awareness.

    The remainder goes to the lowest worker ids; batch size is capped by the
    memory scan but deadlines of co-located tasks are ignored.
    """
    registry = registry if registry is not None else default_registry()
    problems = validate(cluster, job)
    if problems:
        raise ValidationError("; ".join(problems))
    workers = sorted(cluster.workers, key=lambda w: w.id)
    n = len(workers)
    base, extra = divmod(job.num_samples, n)
    int_shares = {w.id: base + (1 if i < extra else 0) for i, w in enumerate(workers)}
    bundles = {w.id: bundle_for(registry, w.device_class) for w in cluster.workers}
    maxbatch = {w.id: bundles[w.id].max_batch_size(w.initial_state.mem_util, w.b_min,
                                                   w.b_max, mem_ceiling)
                for w in workers}
    assigned = [w for w in workers if int_shares[w.id] > 0]
    assignments = []
    for w in assigned:
        d = int_shares[w.id]
        # the naive rule: memory cap or the whole shard, whichever is smaller
        b = max(1, min(maxbatch[w.id], d))
        bundle = bundles[w.id]
        t_c = bundle.est_compute_time(w.initial_state, b)
        t_u = bundle.est_update_time(w.initial_state, b, cluster.ps_state, len(assigned))
        assignments.append(_assignment(w, d, b, t_c, t_u, job))
    shares = {w.id: job.num_samples / n for w in workers}
    audit = SolveAudit(iterations=0, shares=shares,
                       t_total={a.worker_id: a.t_total for a in assignments})
    return Plan(method="fairness", num_epoch=job.num_epoch,
                total_cost=total_cost(assignments),
                assignments=tuple(assignments), removed=(), audit=audit)


# --- plan documents --------------------------------------------------------------


# writer() looks the plan's compiled writer up once, not on every call
plan_to_doc = writer(Plan)
save_plan = save


def plan_from_doc(doc: dict) -> Plan:
    return from_doc(Plan, doc)


def load_plan(source) -> Plan:
    return from_doc(Plan, load_doc(source))
