"""Plans for wide two-class clusters, pinned by digest.

``tests/data/wide_plans.json`` holds the sha256 of each plan document (or of
the infeasibility message) for seeded clusters of 64 to 128 interleaved tx2
and nano workers: assignments, removals with their order and detail text,
and the audit's counters. A change to the solver that moves any of them
shows here.
Regenerate the file (only for a change meant to move plans) with

    PYTHONPATH=src python tests/test_wide_plans.py
"""

import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from deepedge import (BackgroundApp, ClusterSpec, EstimatorBundle, FittedFunction,
                      InfeasibleScheduleError, JobSpec, NodeState, WorkerSpec, bundle_for,
                      default_registry, default_testbed, plan_to_doc, simulate, solve)
from deepedge.estimators import DEVICE_PROFILES, FEATURES_BY_TARGET, MEM_CEILING, basis_terms

PINNED = Path(__file__).parent / "data" / "wide_plans.json"
STORE = "store-0"
# (seed, registry): parametric on the built-in profiles, or seeded random fits
CASES = [(seed, "parametric") for seed in range(20)] + [(seed, "fitted") for seed in range(20, 24)]
# background deadlines drawn per registry, around each one's exec times
DEADLINES = {"parametric": (0.12, 0.3), "fitted": (0.004, 0.02)}


def wide_case(seed: int, deadlines: tuple = DEADLINES["parametric"]) -> tuple:
    """A 64- to 128-worker cluster with both classes interleaved, and a job.

    Loads range from idle to saturated and deadlines from tight to loose, so
    that workers are removed for memory and for deadlines at their cap; on a
    fitted registry, exec time need not grow with the batch, and some workers
    pass the deadline check at some batches only.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(64, 129))
    workers = []
    for k in range(n):
        device = "tx2" if rng.random() < 0.3 else "nano"
        cpu, gpu = (float(v) for v in rng.uniform(0.0, 0.7, 2))
        mem = float(rng.choice([rng.uniform(0.0, 0.5), rng.uniform(0.7, 0.95)], p=[0.9, 0.1]))
        apps = tuple(BackgroundApp(f"bg-{j}", float(rng.uniform(*deadlines)))
                     for j in range(int(rng.integers(0, 3))))
        b_max = int(rng.choice([16, 64, 300])) if device == "tx2" else int(rng.choice([8, 16, 40]))
        workers.append(WorkerSpec(
            id=f"{device}-{k:03d}", device_class=device, initial_state=NodeState(cpu, gpu, mem),
            background_apps=apps, b_min=int(rng.integers(1, 4)), b_max=b_max,
            init_cost=float(rng.uniform(1.0, 8.0)),
            per_sample_transfer_cost={STORE: float(rng.uniform(0.0005, 0.002))}))
    cluster = ClusterSpec(tuple(workers), NodeState(float(rng.uniform(0.0, 0.5)), 0.0, 0.3),
                          (STORE,))
    job = JobSpec(num_samples=int(rng.integers(2000, 8001)), num_epoch=int(rng.integers(1, 4)),
                  source_store=STORE)
    return cluster, job


def plan_digests(fitted_registry) -> dict:
    """Case name -> sha256 of its plan document, or of the solver's refusal."""
    out = {}
    for seed, kind in CASES:
        cluster, job = wide_case(seed, DEADLINES[kind])
        registry = (default_registry() if kind == "parametric"
                    else fitted_registry(np.random.default_rng(seed)))
        try:
            text = json.dumps(plan_to_doc(solve(cluster, job, registry)), sort_keys=True)
        except InfeasibleScheduleError as exc:
            text = f"infeasible: {exc}"
        out[f"{kind}-{seed}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_wide_plans_match_the_pinned_digests(random_fitted_registry):
    assert plan_digests(random_fitted_registry) == json.loads(PINNED.read_text())


def dipping_nano_registry() -> dict:
    """The nano bundle with projected memory ``0.3 + mem_util + 0.7 / b``
    (before the clamp): every small batch is out of memory, however far below
    the memory cap it lies."""
    names = FEATURES_BY_TARGET["state_mem"]
    coefficients = {"1": 0.3, "mem_util": 1.0, "1/batch": 0.7}
    mem = FittedFunction("state_mem", names,
                         tuple(coefficients.get(t, 0.0) for t, _, _ in basis_terms(names)))
    return {"nano": EstimatorBundle("nano", DEVICE_PROFILES["nano"], {"state_mem": mem})}


def test_every_batch_solve_assigns_fits_in_memory_under_its_workers_load(
        random_fitted_registry):
    # a memory cap projected with no CPU or GPU load gave tx2-040 batch 286 here,
    # which projects at memory 1.0 under the worker's own load
    cluster, job = wide_case(29, DEADLINES["fitted"])
    registry = random_fitted_registry(np.random.default_rng(29))
    cases = [(cluster, job, registry)]
    # and every small job on the three nanos of the testbed, whose small
    # batches project above the ceiling below the cap
    testbed = default_testbed()
    nanos = replace(testbed, workers=testbed.workers[1:])
    cases += [(nanos, JobSpec(m, 1, STORE), dipping_nano_registry()) for m in range(1, 61)]
    planned = []  # the workers of each plan
    for cluster, job, registry in cases:
        try:
            plan = solve(cluster, job, registry)
        except InfeasibleScheduleError:
            continue
        planned.append({a.worker_id for a in plan.assignments})
        workers = {w.id: w for w in cluster.workers}
        for a in plan.assignments:
            w = workers[a.worker_id]
            projected = bundle_for(registry, w.device_class).est_state(w.initial_state,
                                                                       a.batch_size)
            assert projected.mem_util <= MEM_CEILING, (a.worker_id, a.batch_size)
        simulate(cluster, job, plan, registry)
    assert "tx2-040" in planned[0] and len(planned) > 30, len(planned)


def test_solve_refuses_a_job_whose_only_batches_are_out_of_memory():
    # each nano's one batch of a 1-sample job projects memory 1.0, though
    # larger batches fit: no worker is eligible
    testbed = default_testbed()
    nanos = replace(testbed, workers=testbed.workers[1:])
    registry = dipping_nano_registry()
    nano = registry["nano"]
    for w in nanos.workers:
        assert nano.est_state(w.initial_state, 1).mem_util > MEM_CEILING
    assert nano.max_batch_size(nanos.workers[2].initial_state, 1, 16) > 1
    with pytest.raises(InfeasibleScheduleError, match=re.escape(
            "nano-2: no batch in [1, 1] keeps projected memory under 0.95")):
        solve(nanos, JobSpec(1, 1, STORE), registry)


if __name__ == "__main__":
    from conftest import _random_fitted_registry

    PINNED.write_text(json.dumps(plan_digests(_random_fitted_registry), indent=2) + "\n")
