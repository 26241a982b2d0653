"""Interference-aware shard and batch assignment.

``solve`` searches for the cheapest feasible assignment of training samples
and batch sizes across a heterogeneous cluster:

1. A worker's batches run from its ``b_min`` to its ``b_max`` or the job
   size, whichever is smaller: no shard is larger than the job. Each is
   projected once, and workers none of whose batches fits under the memory
   ceiling are excluded up front.
2. So is every worker whose background tasks would miss a deadline with the
   largest of those batches that fits (its memory cap).
3. Epoch time bills every started round in full, so the split is integer
   from the start: tables of round times over every batch of every worker
   that fits in memory and passes the pressure check give how many samples
   each worker can finish within a time ``T``; the split is the lowest
   ``T`` whose capacities cover the job, with the lowest total cost among
   splits that tie on it. A worker left with no samples leaves the set and
   the split is priced again for those that remain. Each batch size is the
   one with the shortest epoch for its shard. Each split also gets the
   parameter server's busy time per epoch: every worker's rounds times the
   service time ``simulate`` queues for it at its batch, the least time one
   FIFO server needs for the epoch.
   The work stays where the answer can change, and each cut is exact.
   The lowest ``T`` lies between ``lo``, the job over every worker's best
   samples per second, and the first time at which each worker's fastest
   row alone, one or two rounds past its count at ``lo``, covers the job:
   those rows bound every capacity from below, and two rounds always
   suffice. Only rows whose value at the upper end tops their worker's
   capacity at ``lo`` have breakpoints in between, so only those are
   enumerated. Once ``T`` is found, no shard shrinks by more than the
   excess, so the costs and the batch choice run over the rows whose
   capacity at ``T`` reaches their worker's shard less the excess; any
   other row needs a round more than ``T`` allows. A worker whose kept
   rows cannot finish a shard by ``T`` (the tail) keeps all its rows.
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
node states going in as a ``StateTable``, at most ``_SLICE_ROWS`` rows at a
time), so the estimator calls for a split or a candidate do not grow with
the number of workers, and the rows grow with the job, not with ``b_max``.
One pricing function (``_price``) turns shards and batches into epoch times
and costs over arrays; it ranks the candidates, and the winner's
assignments are read off its arrays.

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

    Returns (ok, exec time, state): ``state`` is ``est_state``'s projection,
    which the background tasks share, so their exec time is one for all of
    them. Given an integer array of batch sizes, ``ok`` is a mask over them,
    the exec time an array and the state a table of arrays.
    """
    state = bundle.est_state(worker.initial_state, batch_size)
    exec_time = bundle.est_exec_time(state)
    return _meets_deadline(exec_time, _deadline(worker)), exec_time, state


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


# table rows est_state projects at once, per device class: memory stays
# bounded by it and by the rows that fit, however many batches a shard could run
_SLICE_ROWS = 8_192


class _Tables:
    """A cluster's estimator values over every batch size a shard could run
    on every worker, as flat arrays of rows.

    A worker's batches run from ``b_min`` to its ``b_max`` or the job size,
    whichever is smaller, since no shard is larger than the job. Workers are
    grouped by device class, so that each table is one estimator call per
    class over all its rows (``_SLICE_ROWS`` at most at a time), their node
    states going in as a ``StateTable``. Each row is projected once with
    ``est_state``, and three things are read off that projection: which rows
    fit under the memory ceiling, each worker's memory cap (``cap``, its
    largest fitting batch, 0 for none), and exec times at the fitting rows.
    A worker whose background tasks miss a deadline at its cap is left out,
    into ``failed`` (``at_cap`` has the exec times). The rows the splits see
    are the fitting rows that pass the pressure check, of the workers left,
    each of which keeps at least its cap. Compute times and the server's
    service times (the service ``simulate`` queues for the row's worker at
    its batch) are evaluated over those rows once per solve, and update times
    once per worker count, since they also depend on how many workers share
    the parameter server. Rows are grouped by worker in cluster order
    (``owner`` numbers them), batches ascending within each: the shape
    ``_min_epoch`` and ``_split`` take.
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
        counts = np.maximum(np.minimum(b_max, job.num_samples) - b_min + 1, 0)
        # each class's rows that fit in memory: their workers, batches and exec
        # times (after an empty entry, so that a cluster with no rows concatenates)
        fitting = [(np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0))]
        for k, bundle in enumerate(bundles):
            members = (kind == k).nonzero()[0]
            ends = counts[members].cumsum()
            begins = ends - counts[members]  # each member's first row in the class
            for start in range(0, int(ends[-1]), _SLICE_ROWS):
                stop = min(start + _SLICE_ROWS, int(ends[-1]))
                take = np.clip(ends, start, stop) - np.clip(begins, start, stop)
                o = members.repeat(take)
                b = np.arange(start, stop) - (begins - b_min[members]).repeat(take)
                projected = bundle.est_state(StateTable(cpu[o], gpu[o], mem[o]), b)
                fits = (projected.mem_util <= MEM_CEILING).nonzero()[0]
                fitting.append((o[fits], b[fits], bundle.est_exec_time(
                    StateTable(*(v[fits] for v in projected)))))
        owner, b, exec_time = (np.concatenate(column) for column in zip(*fitting))
        by_worker = owner.argsort(kind="stable")
        owner, b, exec_time = owner[by_worker], b[by_worker], exec_time[by_worker]
        last = np.diff(owner, append=len(workers)).nonzero()[0]  # each worker's cap row
        eligible = owner[last]
        self.cap = np.zeros(len(workers), dtype=int)
        self.cap[eligible] = b[last]
        ok = _meets_deadline(exec_time, deadline[owner])
        passed = ok[last]
        self.failed, self.at_cap = eligible[~passed], exec_time[last[~passed]]
        self.workers = eligible[passed]  # cluster index of each table worker
        place = np.full(len(workers), -1)  # each worker's place in self.workers, -1 if none
        place[self.workers] = np.arange(self.workers.size)
        # the rows the splits see: those that pass, of workers passing at their cap
        kept = (ok & (place[owner] >= 0)).nonzero()[0]
        self.owner, self.b = place[owner[kept]], b[kept]
        self.rate, self.init = rate[self.workers], init[self.workers]
        # per class, the compute and service times at its table rows, and the
        # rows with their states and batches, for the update times
        self.t_c, self.service = np.empty(self.b.size), np.empty(self.b.size)
        self.classes = []
        o = owner[kept]
        for k, bundle in enumerate(bundles):
            rows = (kind[o] == k).nonzero()[0]
            if rows.size:
                states, b_rows = StateTable(cpu[o[rows]], gpu[o[rows]], mem[o[rows]]), self.b[rows]
                self.t_c[rows] = bundle.est_compute_time(states, b_rows)
                self.service[rows] = bundle.update_components(states, b_rows, self.ps_state)[1]
                self.classes.append((bundle, rows, states, b_rows))
        starts = self.owner.searchsorted(np.arange(self.workers.size))
        # samples per second with no update time at all: a bound on any split
        self.fastest_rate = 1.0 / np.minimum.reduceat(self.t_c, starts)

    def update(self, n: int) -> np.ndarray:
        """Update times at every table row with ``n`` workers sharing the
        parameter server."""
        out = np.empty(self.b.size)
        for bundle, rows, states, b_rows in self.classes:
            out[rows] = bundle.est_update_time(states, b_rows, self.ps_state, n)
        return out


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
    worker's capacity is at most ``T * s``, ``s`` being its best samples per
    second, so the answer lies above ``lo = M / sum(s)``. Its fastest row
    (the largest ``b / r``, ties to the larger batch) alone bounds its
    capacity from below, so ``hi`` is the first of the times one and two of
    that row's rounds past its count at ``lo`` at which those bounds cover
    ``M``: two rounds past cover it, since ``sum b * (k + 2) >= lo * sum(s) +
    sum b``, and a doubling guards the float rounding. Capacities change
    only at breakpoints, where ``T`` is a whole number ``k`` of some
    worker's rounds, and only where the value ``k * b`` there is above the
    worker's capacity at ``lo``; so only rows whose value at ``hi`` is above
    it are enumerated, and only those breakpoints. They are sorted by time
    once, grouped by worker (keeping time order) to take each one's gain over
    its worker's running capacity, and the gains are summed in time order.
    The gains are whole numbers, so the sums are exact and tied times may
    come in any order.
    """
    def capacities(k):
        return np.maximum.reduceat(b * k, starts)

    speed = b / r
    best = np.maximum.reduceat(speed, starts)
    lo = M / best.sum() * (1 - 1e-9)
    k_lo = _rounds_within(lo, r)
    base = capacities(k_lo)
    # the fastest rows one and two rounds past their counts at lo, and their bounds
    fastest = np.maximum.reduceat(np.arange(b.size) * (speed == best[owner]), starts)
    k = k_lo[fastest] + np.array([[1.0], [2.0]])
    times = (k * r[fastest]).ravel()
    bound = np.maximum(k * b[fastest], base)
    gain = bound.ravel() - np.concatenate((base, bound[0]))
    by_time = times.argsort()
    reached = base.sum() + gain[by_time].cumsum() >= M
    hi = times[by_time[reached.argmax() if reached[-1] else -1]]
    k_hi = _rounds_within(hi, r)
    while capacities(k_hi).sum() < M:
        hi *= 2.0
        k_hi = _rounds_within(hi, r)
    while (k_hi - k_lo).sum() > _MAX_BREAKPOINTS:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        k_mid = _rounds_within(mid, r)
        caps = capacities(k_mid)
        if caps.sum() >= M:
            hi, k_hi = mid, k_mid
        else:
            lo, k_lo, base = mid, k_mid, caps
    # the rows with a value above their worker's capacity at lo by hi, and
    # the first round count at which each gets there (base >= b * k_lo)
    live = (b * k_hi > base[owner]).nonzero()[0]
    b, r, owner = b[live], r[live], owner[live]
    k_first = base[owner] // b + 1
    counts = (k_hi[live] - k_first + 1).astype(int)
    entry = np.arange(b.size).repeat(counts)
    k = k_first[entry] + np.arange(entry.size) - (counts.cumsum() - counts).repeat(counts)
    times = k * r[entry]
    by_time = times.argsort()
    times, entry, k = times[by_time], entry[by_time], k[by_time]
    worker = owner[entry]
    # numpy's stable sort is a radix sort on ints of 16 bits or fewer
    grouped = worker.astype(np.min_scalar_type(starts.size - 1)).argsort(kind="stable")
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
           init: np.ndarray, job: JobSpec) -> tuple:
    """Integer shards, one per worker, with the lowest whole-round epoch time
    and, among those, the lowest total cost; and each worker's row: the one
    with the shortest epoch for its shard (ties to the larger batch).

    Every worker first takes all it can finish by the lowest epoch time; the
    samples beyond the job then come off one at a time, each from the worker
    whose shard costs the most (transfer, init and every epoch's rounds),
    which minimizes the largest cost as long as a shard's cost does not grow
    when it shrinks. A shard is cut to nothing rather than below its
    smallest feasible batch.

    No shard shrinks by more than the excess, so the costs and the batch
    choice run over the rows whose capacity at the lowest epoch reaches
    their worker's shard less the excess. Any other row needs one more round
    than that epoch allows, so where a kept row finishes the shard within
    it, no other row can set the shortest epoch or tie with it. Where none
    does (the tail pushes a shard past its capacity, or every kept batch is
    above the shard), all of the worker's rows take part.
    """
    M = job.num_samples
    n = len(rate)
    starts = owner.searchsorted(np.arange(n))
    epoch = _min_epoch(b, r, owner, starts, M)
    caps = b * _rounds_within(epoch, r)
    shards = np.maximum.reduceat(caps, starts).astype(int)
    excess = int(shards.sum()) - M
    smallest = b[starts].astype(int)
    rows = (caps >= (shards - excess)[owner]).nonzero()[0]
    kept_b, kept_r, kept_owner = b[rows], r[rows], owner[rows]
    bounds = kept_owner.searchsorted(np.arange(n + 1))  # each worker's kept rows

    def epochs(i: int, ds: np.ndarray) -> tuple:
        """Worker ``i``'s epochs for each shard in ``ds`` (a row each) at
        each row taking part, and those rows."""
        own = rows[bounds[i]:bounds[i + 1]]
        eps = _epochs(ds[:, None], b[own], r[own])
        if eps.min(axis=1).max() > epoch:
            own = (owner == i).nonzero()[0]
            eps = _epochs(ds[:, None], b[own], r[own])
        return eps, own

    full = rate * shards + init + job.num_epoch * np.minimum.reduceat(
        _epochs(shards[kept_owner], kept_b, kept_r), bounds[:-1])
    costs: dict = {}  # worker -> (first shard, costs of shards first .. full)

    def cost(i: int, d: int) -> float:
        if i not in costs:
            ds = np.arange(max(shards[i] - excess, 1), shards[i] + 1)
            eps = epochs(i, ds)[0].min(axis=1)
            costs[i] = (ds[0], rate[i] * ds + init[i] + job.num_epoch * eps)
        first, values = costs[i]
        return float(values[d - first])

    heap = [(-c, i) for i, (c, d) in enumerate(zip(full.tolist(), shards.tolist())) if d]
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
        j = int(np.argmax(np.where(np.arange(n) != i, shards, -1)))
        shards[j] += shards[i] - excess
        shards[i] = 0
    eps = _epochs(shards[kept_owner], kept_b, kept_r)
    least = np.minimum.reduceat(eps, bounds[:-1])
    best = rows[np.maximum.reduceat(np.arange(rows.size) * (eps == least[kept_owner]),
                                    bounds[:-1])]
    for i in ((least > epoch) & (shards > 0)).nonzero()[0].tolist():
        eps, own = epochs(i, shards[i:i + 1])
        best[i] = own[(eps[0] == eps.min()).nonzero()[0][-1]]
    return shards, best


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
        shards, best = _split(b, r, owner, tables.rate[members], tables.init[members], job)
        if shards.all():
            break
        alive = alive.copy()
        alive[members[shards == 0]] = False
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
    for i in (tables.cap == 0).nonzero()[0].tolist():
        w = workers[i]
        top = min(w.b_max, job.num_samples)
        removed.append(Removal(w.id, "pressure", (
            f"its b_min of {w.b_min} is above the job's {job.num_samples} samples"
            if w.b_min > top else
            f"no batch in [{w.b_min}, {top}] keeps projected memory under {MEM_CEILING:.2f}")))

    # background deadlines are checked at the largest batch a worker could run
    for i, exec_time in zip(tables.failed.tolist(), tables.at_cap.tolist()):
        w = workers[i]
        late = late_apps(w, exec_time)[0]
        removed.append(Removal(
            w.id, "pressure",
            f"background task '{late.id}' projected at {exec_time:.4f} s "
            f"over its deadline with batch {tables.cap[i]}"))
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
