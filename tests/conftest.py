"""Shared test helpers."""

import random

import pytest

from deepedge import (BackgroundApp, ClusterSpec, EstimatorBundle, FittedFunction, NodeState,
                      WorkerSpec, basis_terms, bundle_for, check_pressure, epoch_time)
from deepedge.estimators import FEATURES_BY_TARGET, TARGETS


def _samples_done_sooner(plan, cluster, registry):
    """Most samples the plan's workers could finish strictly before its epoch time.

    Counted from the estimators with the plan's worker count: for each worker,
    the largest whole-round shard at any pressure-feasible batch under the
    memory cap whose epoch time is below the plan's. If these add up to the
    job, some integer split over the same workers finishes sooner.
    """
    n = len(plan.assignments)
    total = 0
    for a in plan.assignments:
        w = cluster.worker(a.worker_id)
        bundle = bundle_for(registry, w.device_class)
        top = bundle.max_batch_size(w.initial_state.mem_util, w.b_min, w.b_max)
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
