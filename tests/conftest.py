"""Shared test helpers."""

import math
import random

import numpy as np
import pytest

from deepedge import (BackgroundApp, ClusterSpec, EstimatorBundle, FittedFunction, NodeState,
                      WorkerSpec, basis_terms, bundle_for, check_pressure, epoch_time, logistic)
from deepedge.estimators import FEATURES_BY_TARGET, TARGETS


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
