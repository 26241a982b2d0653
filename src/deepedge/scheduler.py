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
   shard. Each split also gets the parameter server's busy time per epoch:
   every worker's rounds times the service time ``simulate`` queues for it
   at its batch, the least time one FIFO server needs for the epoch.
4. Candidates are ranked by the longer of their epoch and their server
   time. Each is the split over the first ``n`` workers of one order, the
   all-worker split's assigned workers fastest first (by per-sample time at
   their batch), priced once per ``n``. If the server binds with every
   worker in, dropping the slowest one at a time would barely trim its busy
   time, so ``n`` is bisected down to the two counts where the epoch meets
   the server time. Otherwise ``n`` walks down one worker at a time while
   the candidates keep improving, and while the workers left could beat
   them at all with no update time. The best candidate wins (ties go to the
   cheaper plan), and the workers beyond its ``n`` are removed.

One set of tables (``_Tables``) holds the memory caps, the pressure mask,
the round times and the server's service times as flat arrays over the
whole cluster, each filled with one estimator call per device class (the
node states going in as a ``StateTable``), so the estimator calls for a
split or a candidate do not grow with the number of workers. One pricing
function (``_price``) turns shards and batches into epoch times and costs
over arrays; it ranks the candidates, and the winner's assignments are
read off its arrays.

``fairness_plan`` is the baseline: equal shards for everyone, no interference
checks, no refinement. It prices its shards with the same ``_price``.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

import numpy as np

from .cluster import ClusterSpec, JobSpec, WorkerSpec, validate
from .documents import doc_field, from_doc, spec, to_doc
from .estimators import MEM_CEILING, EstimatorBundle, StateTable, bundle_for, default_registry


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

    Returns (ok, exec time): the background tasks' projected exec time, one
    for all of them, since they share the node state the batch leaves. Given
    an integer array of batch sizes, ``ok`` is a mask over them and the exec
    time an array.
    """
    exec_time = bundle.est_exec_time(bundle.est_state(worker.initial_state, batch_size))
    return _meets_deadline(exec_time, _deadline(worker)), exec_time


def _deadline(worker: WorkerSpec) -> float:
    """The tightest deadline among the worker's background tasks; inf with none."""
    return min((app.deadline for app in worker.background_apps), default=math.inf)


def _meets_deadline(exec_time, deadline):
    """The pressure verdict: background tasks projected at ``exec_time`` meet
    the tightest ``deadline``; elementwise over arrays."""
    return exec_time <= deadline


def late_apps(worker: WorkerSpec, exec_time: float) -> list:
    """The worker's background apps, in order, that miss their deadline at ``exec_time``."""
    return [app for app in worker.background_apps
            if not _meets_deadline(exec_time, app.deadline)]


# --- plan structures ------------------------------------------------------------


@spec
class CostBreakdown:
    """Seconds a worker spends on its shard: data transfer, start-up, training, and their sum."""

    transfer: float
    init: float
    train: float
    total: float


@spec
class Assignment:
    """One worker's part of a plan: its shard, batch size, times, epoch time and cost."""

    worker_id: str = doc_field(key="worker")
    num_samples: int
    batch_size: int
    t_compute: float
    t_update: float
    t_total: float
    epoch_time: float
    cost: CostBreakdown


@spec
class Removal:
    """A worker a plan leaves out, and why."""

    worker_id: str = doc_field(key="worker")
    # "pressure", or "slowest": left without samples by a split, or beyond
    # the count of fastest workers the worker-count search chose
    reason: str
    detail: str = ""


@spec
class SolveAudit:
    """What the solver's search did: ``iterations`` counts the whole-round
    splits priced over all candidates, and ``candidates_considered`` the
    worker counts priced."""

    iterations: int
    candidates_considered: int


@spec
class Plan:
    """Who trains on how many samples at which batch size, and what the plan costs."""

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


# --- the solver -----------------------------------------------------------------


class _Tables:
    """A cluster's estimator values over every pressure-feasible batch size
    of every worker with a memory cap, as flat arrays of rows.

    Workers are grouped by device class, so that each table is one
    estimator call per class over all its rows, their node states going in
    as a ``StateTable``: the memory cap of every worker (``maxbatch``, 0 for
    none), then the pressure mask, compute times and the server's service
    times (the service ``simulate`` queues for the row's worker at its
    batch) once per solve, and update times once per worker count, since
    they also depend on how many workers share the parameter server. A
    worker's batches run from ``b_min`` to its memory cap or the job size,
    whichever is smaller, since no shard is larger than the job. Rows are
    grouped by worker in cluster order (``owner`` numbers them), batches
    ascending within each: the shape ``_min_epoch`` and ``_split`` take. The
    mask's rows include each worker's memory cap, and a worker whose
    background tasks miss a deadline there is left out, into ``failed``
    (``at_cap`` has the exec times); so is one with no batch that passes,
    into ``empty``.
    """

    def __init__(self, cluster: ClusterSpec, registry: dict, job: JobSpec):
        self.ps_state = cluster.ps_state
        workers = cluster.workers
        number: dict = {}  # device class -> its place in bundles
        for w in workers:
            number.setdefault(w.device_class, len(number))
        kind = np.array([number[w.device_class] for w in workers])
        bundles = [bundle_for(registry, name) for name in number]
        cpu, gpu, mem, deadline, rate, init = np.array(
            [(w.initial_state.cpu_util, w.initial_state.gpu_util, w.initial_state.mem_util,
              _deadline(w), w.per_sample_transfer_cost[job.source_store], w.init_cost)
             for w in workers], dtype=float).T
        b_min, b_max = np.array([(w.b_min, w.b_max) for w in workers], dtype=int).T
        self.maxbatch = np.empty(len(workers), dtype=int)
        for k, bundle in enumerate(bundles):
            members = (kind == k).nonzero()[0]
            self.maxbatch[members] = bundle.max_batch_size(
                StateTable(cpu[members], gpu[members], mem[members]), b_min[members],
                b_max[members])
        eligible = self.maxbatch.nonzero()[0]
        low, cap = b_min[eligible], self.maxbatch[eligible]
        top = np.minimum(cap, job.num_samples)
        # every batch up to top, then the cap where it lies beyond
        counts = np.maximum(top - low + 1, 0) + (cap > top)
        last = counts.cumsum() - 1
        place = np.arange(eligible.size).repeat(counts)  # position in ``eligible``
        b = low[place] + np.arange(place.size) - (last + 1 - counts)[place]
        b[last] = cap
        owner = eligible[place]
        self.size = b.size
        exec_time, t_c, service = np.empty(b.size), np.empty(b.size), np.empty(b.size)
        # each class's rows with their states and batches, for the update times
        self.classes = []
        for k, bundle in enumerate(bundles):
            rows = (kind[owner] == k).nonzero()[0]
            if rows.size:
                o = owner[rows]
                states, b_rows = StateTable(cpu[o], gpu[o], mem[o]), b[rows]
                exec_time[rows] = bundle.est_exec_time(bundle.est_state(states, b_rows))
                t_c[rows] = bundle.est_compute_time(states, b_rows)
                service[rows] = bundle.update_components(states, b_rows, self.ps_state)[1]
                self.classes.append((bundle, rows, states, b_rows))
        ok = _meets_deadline(exec_time, deadline[owner])
        passed = ok[last]
        self.failed, self.at_cap = eligible[~passed], exec_time[last[~passed]]
        # the rows the splits see: those that pass, of workers passing at their cap
        self.rows = (ok & passed[place] & (b <= top[place])).nonzero()[0]
        has_rows = np.bincount(place[self.rows], minlength=eligible.size) > 0
        self.empty, self.top = eligible[passed & ~has_rows], top[passed & ~has_rows]
        self.workers = eligible[has_rows]  # cluster index of each table worker
        self.owner = (has_rows.cumsum() - 1)[place[self.rows]]
        self.b, self.t_c, self.service = b[self.rows], t_c[self.rows], service[self.rows]
        starts = self.owner.searchsorted(np.arange(self.workers.size))
        # samples per second with no update time at all: a bound on any split
        self.fastest_rate = 1.0 / np.minimum.reduceat(self.t_c, starts)
        self.rate, self.init = rate[self.workers], init[self.workers]

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


# breakpoints _min_epoch's bracket may hold, useful or not; with more, it
# halves the bracket first (until halving can no longer split it)
_MAX_BREAKPOINTS = 100_000


def _min_epoch(b: np.ndarray, r: np.ndarray, owner: np.ndarray, starts: np.ndarray,
               M: int) -> float:
    """Lowest ``T`` at which the capacities ``max_b b * floor(T / r_b)`` cover ``M``.

    ``b`` and ``r`` list every worker's feasible batches and their round
    times, grouped by ``owner`` with each group beginning at ``starts``. A
    worker's capacity lies between ``T * s - b_max`` and ``T * s``, ``s``
    being its best samples per second, which brackets the answer ``lo < T
    <= hi``. Capacities change only at breakpoints, where ``T`` is a whole
    number ``k`` of some worker's rounds, and only where the value ``k * b``
    there is above the worker's capacity at ``lo``; the other breakpoints of
    the bracket are dropped. The rest are sorted by time once, grouped by
    worker (keeping time order) to take each one's gain over its worker's
    running capacity, and the gains are summed in time order. The gains are
    whole numbers, so the sums are exact and tied times may come in any
    order.
    """
    def covered(T):
        return np.maximum.reduceat(b * _rounds_within(T, r), starts).sum()

    speed = np.maximum.reduceat(b / r, starts).sum()
    lo = M / speed * (1 - 1e-9)
    hi = (M + np.maximum.reduceat(b, starts).sum()) / speed * (1 + 1e-9)
    while covered(hi) < M:
        hi *= 2.0
    while True:
        k_lo, k_hi = _rounds_within(lo, r), _rounds_within(hi, r)
        mid = 0.5 * (lo + hi)
        if (k_hi - k_lo).sum() <= _MAX_BREAKPOINTS or not lo < mid < hi:
            break
        if covered(mid) >= M:
            hi = mid
        else:
            lo = mid
    base = np.maximum.reduceat(b * k_lo, starts)
    # the first round count whose value tops the capacity at lo (base >= b * k_lo)
    k_first = base[owner] // b + 1
    counts = np.maximum(k_hi - k_first + 1, 0).astype(int)
    entry = np.arange(b.size).repeat(counts)
    k = k_first[entry] + np.arange(entry.size) - (counts.cumsum() - counts).repeat(counts)
    times = k * r[entry]
    by_time = times.argsort()
    times, entry, k = times[by_time], entry[by_time], k[by_time]
    worker = owner[entry]
    # numpy's stable sort is a radix sort on ints of 16 bits or fewer
    grouped =worker.astype(np.min_scalar_type(starts.size - 1)).argsort(kind="stable")
    worker, values = worker[grouped], k[grouped] * b[entry[grouped]]
    # each worker's capacity after each of its breakpoints, and what that gained
    offset = values.max() + 1.0
    reach = np.maximum.accumulate(values + worker * offset) - worker * offset
    first = np.concatenate(([True], worker[1:] != worker[:-1]))
    gain = np.empty(reach.size)
    gain[grouped] = reach - np.where(first, base[worker], np.concatenate(([0.0], reach[:-1])))
    return float(times[(base.sum() + gain.cumsum() >= M).argmax()])


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
    """A worker set's split, priced: for each assigned worker, its index
    into the worker tuple the split was made over, its shard, batch, t_c and
    t_u, its epoch time, the parts and total of its cost, and its per-sample
    time. The arrays rank the candidates, and the winner's assignments are
    read off them."""

    workers: np.ndarray
    shards: np.ndarray
    batch: np.ndarray
    t_c: np.ndarray
    t_u: np.ndarray
    epoch: np.ndarray
    transfer: np.ndarray
    init: np.ndarray
    train: np.ndarray
    total: np.ndarray
    t_total: np.ndarray

    def assignments(self, workers: tuple) -> list:
        columns = zip(*(a.tolist() for a in (
            self.workers, self.shards, self.batch, self.t_c, self.t_u, self.t_total,
            self.epoch, self.transfer, self.init, self.train, self.total)))
        return [Assignment(workers[i].id, d, b, t_c, t_u, t_total, epoch, CostBreakdown(*cost))
                for i, d, b, t_c, t_u, t_total, epoch, *cost in columns]


def _price(workers, shards, b, t_c, t_u, rate, init, job: JobSpec) -> _Candidate:
    """Each worker's epoch (``epoch_time`` over arrays), cost and per-sample
    time with shard ``shards`` at batch ``b``."""
    epoch = np.ceil(shards / b) * (b * t_c + t_u)
    transfer, train = rate * shards, epoch * job.num_epoch
    return _Candidate(workers, shards, b, t_c, t_u, epoch, transfer, init, train,
                      transfer + init + train, t_c + t_u / b)


def _assign(alive: np.ndarray, tables: _Tables, job: JobSpec) -> tuple:
    """The best integer split over the table workers marked ``alive``, the
    mask of those assigned, how many splits that took, and the parameter
    server's busy seconds per epoch under the split: every assigned worker's
    rounds times its service time.

    A worker whose shard comes out empty leaves, and the split is redone with
    update times priced for the workers that remain. Each batch size is the
    table entry with the shortest epoch for its shard (ties to the larger).
    """
    splits = 0
    while True:
        splits += 1
        members = alive.nonzero()[0]
        b, t_c, t_u = tables.b, tables.t_c, tables.update(members.size)
        service, owner = tables.service, tables.owner
        if members.size < alive.size:
            rows = alive[owner].nonzero()[0]
            b, t_c, t_u, service = b[rows], t_c[rows], t_u[rows], service[rows]
            owner = (alive.cumsum() - 1)[owner[rows]]
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
    return (_price(tables.workers[members], shards, b[best], t_c[best], t_u[best],
                   tables.rate[members], tables.init[members], job),
            alive, splits, float((np.ceil(shards / b[best]) * service[best]).sum()))


def _left_without_samples(workers: tuple, indices: np.ndarray, epoch: float) -> list:
    """Removals for the workers at ``indices`` that a split left with no samples."""
    return [Removal(workers[i].id, "slowest",
                    f"left without samples; the other workers finish the "
                    f"epoch in {epoch:.4f} s") for i in indices.tolist()]


def solve(cluster: ClusterSpec, job: JobSpec, registry: dict | None = None) -> Plan:
    """Find a low-cost feasible plan; raises InfeasibleScheduleError if none exists."""
    registry = registry if registry is not None else default_registry()
    validate(cluster, job)

    tables = _Tables(cluster, registry, job)
    workers = cluster.workers
    removed: list = []
    maxbatch = tables.maxbatch
    for i in (maxbatch == 0).nonzero()[0].tolist():
        w = workers[i]
        removed.append(Removal(
            w.id, "pressure",
            f"no batch in [{w.b_min}, {w.b_max}] keeps projected memory "
            f"under {MEM_CEILING:.2f}"))

    # background deadlines are checked at the largest batch a worker could run
    for i, exec_time in zip(tables.failed.tolist(), tables.at_cap.tolist()):
        w = workers[i]
        late = late_apps(w, exec_time)[0]
        removed.append(Removal(
            w.id, "pressure",
            f"background task '{late.id}' projected at {exec_time:.4f} s "
            f"over its deadline with batch {maxbatch[i]}"))
    for i, top in zip(tables.empty.tolist(), tables.top.tolist()):
        removed.append(Removal(
            workers[i].id, "pressure",
            f"no batch from {workers[i].b_min} to {top} samples passes the pressure check"))
    if not tables.workers.size:
        raise InfeasibleScheduleError("no eligible workers: " + "; ".join(
            f"{r.worker_id}: {r.detail}" for r in removed))
    first, assigned, n_splits, busy = _assign(np.ones(tables.workers.size, dtype=bool),
                                              tables, job)
    epoch = float(first.epoch.max())
    removed += _left_without_samples(workers, tables.workers[~assigned], epoch)
    # the all-worker split's assigned workers, fastest first (by per-sample
    # time at their batch); candidate n is the split over the first n
    rank = first.t_total.argsort(kind="stable")
    order = assigned.nonzero()[0][rank]
    # n -> (split, its epoch, the server's busy time, the workers it left empty)
    candidates = {order.size: (first, epoch, busy, order[:0])}
    server_bound = busy > epoch

    def price(n: int) -> tuple:
        nonlocal n_splits
        if n not in candidates:
            alive = np.zeros(assigned.size, dtype=bool)
            alive[order[:n]] = True
            split, kept, splits, busy = _assign(alive, tables, job)
            n_splits += splits
            candidates[n] = (split, float(split.epoch.max()), busy, (alive & ~kept).nonzero()[0])
        return candidates[n]

    def longer(n: int) -> float:
        _, epoch, busy, _ = price(n)
        return max(epoch, busy)

    if server_bound:
        # bisect down to where the epoch meets the server time, keeping a
        # server-bound count above and a worker-bound one below (one worker
        # always outlasts the server, since its update time includes the service)
        lo, hi = 1, order.size
        while hi - lo > 1:
            mid = (lo + hi) // 2
            _, epoch, busy, _ = price(mid)
            if busy > epoch:
                hi = mid
            else:
                lo = mid
        price(lo)
    else:
        # drop the slowest while that improves; stop early where the rest
        # could not finish sooner even without update times
        n = order.size
        while (n > 1 and job.num_samples
               <= longer(n) * (1 + 1e-9) * float(tables.fastest_rate[order[:n - 1]].sum())
               and longer(n - 1) < longer(n)):
            n -= 1

    count = min(candidates, key=lambda n: (longer(n), float(candidates[n][0].total.max()),
                                           -candidates[n][0].workers.size))
    split, epoch, busy, empty = candidates[count]
    removed += _left_without_samples(workers, tables.workers[empty], epoch)
    for i, t in zip(tables.workers[order[count:]].tolist(), first.t_total[rank[count:]].tolist()):
        removed.append(Removal(workers[i].id, "slowest", (
            f"left out where the parameter server binds: with {split.workers.size} workers "
            f"it is busy {busy:.4f} s per epoch, and they finish the epoch in {epoch:.4f} s"
            if server_bound else
            f"left out as slower than the {split.workers.size} workers kept, who finish the "
            f"epoch in {epoch:.4f} s; per-sample time {t:.4f} s with every worker in")))
    return Plan(method="heuristic", num_epoch=job.num_epoch,
                total_cost=float(split.total.max()),
                assignments=tuple(split.assignments(workers)), removed=tuple(removed),
                audit=SolveAudit(iterations=n_splits, candidates_considered=len(candidates)))


def fairness_plan(cluster: ClusterSpec, job: JobSpec, registry: dict | None = None) -> Plan:
    """Equal shards for every worker, no interference awareness.

    The remainder goes to the lowest worker ids; each worker's batch is the
    largest up to its shard that fits in memory, but deadlines of co-located
    tasks are ignored. A worker with a shard below its ``b_min``, or no batch
    up to its shard that fits in memory, makes the plan infeasible. It
    searches nothing, so its plan has no audit.
    """
    registry = registry if registry is not None else default_registry()
    validate(cluster, job)
    workers = sorted(cluster.workers, key=lambda w: w.id)
    n = len(workers)
    base, extra = divmod(job.num_samples, n)
    int_shares = {w.id: base + (1 if i < extra else 0) for i, w in enumerate(workers)}
    assigned = [w for w in workers if int_shares[w.id] > 0]
    rows = []
    for w in assigned:
        d, bundle = int_shares[w.id], bundle_for(registry, w.device_class)
        if d < w.b_min:
            raise InfeasibleScheduleError(f"worker '{w.id}': an equal shard of {d} samples "
                                          f"is below its b_min of {w.b_min}")
        # the naive rule: the largest batch up to the shard that fits in memory
        top = min(w.b_max, d)
        b = bundle.max_batch_size(w.initial_state, w.b_min, top)
        if b == 0:
            raise InfeasibleScheduleError(f"worker '{w.id}': no batch in [{w.b_min}, {top}] "
                                          f"keeps projected memory under {MEM_CEILING:.2f}")
        rows.append((d, b, bundle.est_compute_time(w.initial_state, b),
                     bundle.est_update_time(w.initial_state, b, cluster.ps_state, len(assigned)),
                     w.per_sample_transfer_cost[job.source_store], w.init_cost))
    priced = _price(np.arange(len(assigned)), *(np.array(col) for col in zip(*rows)), job)
    return Plan(method="fairness", num_epoch=job.num_epoch, total_cost=float(priced.total.max()),
                assignments=tuple(priced.assignments(assigned)))


# --- plan documents --------------------------------------------------------------


def plan_to_doc(plan: Plan) -> dict:
    """The plan's document; not an alias of ``to_doc``, so wrapping it wraps no other writer."""
    return to_doc(plan)


def plan_from_doc(doc: dict) -> Plan:
    return from_doc(Plan, doc)
