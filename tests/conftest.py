"""Shared test helpers."""

import heapq
import math
import random

import numpy as np
import pytest

from deepedge import (BackgroundApp, ClusterSpec, EstimatorBundle, FittedFunction, NodeState,
                      WorkerSpec, basis_terms, bundle_for, check_pressure, epoch_time, logistic)
from deepedge.estimators import FEATURES_BY_TARGET, TARGETS
from deepedge.scheduler import _epochs, _rounds_within


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


def proportional_split(plan, num_samples):
    """Each assigned worker's per-sample seconds at its batch, and the job's
    samples divided in proportion to their inverses: the split whose
    ``largest_remainder`` rounding stays within the balance envelope."""
    t = {a.worker_id: a.t_total for a in plan.assignments}
    inv_sum = sum(1.0 / a.t_total for a in plan.assignments)
    return t, {a.worker_id: num_samples / (a.t_total * inv_sum) for a in plan.assignments}


def simulate_accuracy(L: float, r: float, k0: float, num_epochs: int,
                      noise: float = 0.0, seed: int = 0):
    """Synthetic per-epoch accuracy readings from a logistic ground truth."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(1, num_epochs + 1):
        acc = logistic(k, L, r, k0)
        if noise > 0.0:
            acc += float(rng.normal(0.0, noise))
        out.append((k, float(np.clip(acc, 0.0, 1.0))))
    return tuple(out)


def record_dict(record):
    """A run record as nested dicts and lists: each record becomes the dict
    of its fields and each tuple, list or dict holding records is converted
    element by element, which as JSON reads as ``dataclasses.asdict`` of the
    same record did, so the digests pinned from that text still hold."""
    if hasattr(record, "_asdict"):
        return {name: record_dict(value) for name, value in record._asdict().items()}
    if isinstance(record, (tuple, list)):
        return [record_dict(value) for value in record]
    if isinstance(record, dict):
        return {key: record_dict(value) for key, value in record.items()}
    return record


def min_epoch_by_the_wide_bracket(b: np.ndarray, r: np.ndarray, owner: np.ndarray,
                                  starts: np.ndarray, M: int) -> float:
    """``scheduler._min_epoch`` as it was before its bracket was cut to each
    worker's fastest row: the lowest ``T`` at which the capacities ``max_b b *
    floor(T / r_b)`` cover ``M``, the oracle that function is checked against.

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
        # the solver's _MAX_BREAKPOINTS, as it was then
        if (k_hi - k_lo).sum() <= 100_000 or not lo < mid < hi:
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
    grouped = worker.astype(np.min_scalar_type(starts.size - 1)).argsort(kind="stable")
    worker, values = worker[grouped], k[grouped] * b[entry[grouped]]
    # each worker's capacity after each of its breakpoints, and what that gained
    offset = values.max() + 1.0
    reach = np.maximum.accumulate(values + worker * offset) - worker * offset
    first = np.concatenate(([True], worker[1:] != worker[:-1]))
    gain = np.empty(reach.size)
    gain[grouped] = reach - np.where(first, base[worker], np.concatenate(([0.0], reach[:-1])))
    return float(times[(base.sum() + gain.cumsum() >= M).argmax()])


def split_over_every_row(b: np.ndarray, r: np.ndarray, owner: np.ndarray, rate: np.ndarray,
                         init: np.ndarray, job) -> tuple:
    """``scheduler._split`` as it was before its row cut, with the batch
    choice ``_assign`` made then: integer shards, one per worker, with the
    lowest whole-round epoch time and, among those, the lowest total cost,
    and each worker's row with the shortest epoch for its shard (ties to the
    larger batch), every one of the worker's rows taking part.

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
    epoch = min_epoch_by_the_wide_bracket(b, r, owner, starts, M)
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
    epochs = _epochs(shards[owner], b, r)
    shortest = epochs == np.minimum.reduceat(epochs, starts)[owner]
    return shards, np.maximum.reduceat(np.arange(b.size) * shortest, starts)


def _samples_done_sooner(plan, cluster, registry):
    """Most samples the plan's workers could finish strictly before its epoch time.

    Counted from the estimators with the plan's worker count: for each worker,
    the largest whole-round shard at any pressure-feasible batch under the
    memory cap whose epoch time is below the plan's. If these add up to the
    job, some integer split over the same workers finishes sooner.
    """
    n = len(plan.assignments)
    workers = {w.id: w for w in cluster.workers}
    total = 0
    for a in plan.assignments:
        w = workers[a.worker_id]
        bundle = bundle_for(registry, w.device_class)
        top = bundle.max_batch_size(w.initial_state, w.b_min, w.b_max)
        largest = 0
        for b in range(w.b_min, top + 1):
            if not check_pressure(w, bundle, b)[0]:
                continue
            t_c = bundle.est_compute_time(w.initial_state, b)
            t_u = bundle.est_update_time(w.initial_state, b, cluster.ps_state, n)
            k = int(plan.epoch_time // (b * t_c + t_u))
            while k > 0 and epoch_time(k * b, b, t_c, t_u) >= plan.epoch_time:
                k -= 1
            while epoch_time((k + 1) * b, b, t_c, t_u) < plan.epoch_time:
                k += 1
            largest = max(largest, k * b)
        total += largest
    return total


@pytest.fixture
def samples_done_sooner():
    return _samples_done_sooner


def _random_fitted_registry(rng):
    """tx2 and nano bundles fitted to nothing: every target's coefficients are
    random, so no estimate is promised to be monotone in the batch size."""
    def model(target):
        names = FEATURES_BY_TARGET[target]
        return FittedFunction(target, names,
                              tuple(rng.uniform(-0.004, 0.012, len(basis_terms(names)))))
    return {dc: EstimatorBundle(dc, models={t: model(t) for t in TARGETS})
            for dc in ("tx2", "nano")}


@pytest.fixture
def random_fitted_registry():
    return _random_fitted_registry


def _ladder_cluster(n_workers: int) -> ClusterSpec:
    """A lightly loaded cluster of ``n_workers``, a quarter tx2, drawn as
    ``perfbench/ladder.py``'s ``cluster_doc`` draws it (same seed, same draws,
    same rounding), so that the two give equal clusters."""
    rng = random.Random(f"perfbench:ladder:{n_workers}")

    def clip(v):
        return round(min(1.0, max(0.0, v)), 4)

    workers = []
    for k in range(n_workers):
        device = "tx2" if k % 4 == 0 else "nano"
        stress = rng.uniform(0.0, 0.3)
        state = NodeState(clip(0.80 * stress + rng.uniform(0.0, 0.05)),
                          clip(0.90 * stress + rng.uniform(0.0, 0.05)),
                          clip(0.20 + 0.40 * stress + rng.uniform(0.0, 0.05)))
        workers.append(WorkerSpec(
            f"{device}-{k:03d}", device, state,
            (BackgroundApp("vision-stream", 0.2, "periodic feature extraction"),),
            b_min=1, b_max=64 if device == "tx2" else 16, init_cost=5.0,
            per_sample_transfer_cost={"store-0": 0.001}))
    return ClusterSpec(tuple(workers), NodeState(0.1, 0.0, 0.3), ("store-0",))


@pytest.fixture
def ladder_cluster():
    return _ladder_cluster
