"""Shared test helpers."""

import pytest

from deepedge import (EstimatorBundle, FittedFunction, basis_terms, bundle_for,
                      check_pressure, epoch_time)
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
