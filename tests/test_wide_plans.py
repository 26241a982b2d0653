"""Plans for wide two-class clusters, pinned by digest.

``tests/data/wide_plans.json`` holds the sha256 of each plan document (or of
the infeasibility message) for seeded clusters of 64 to 128 interleaved tx2
and nano workers: assignments, removals with their order and detail text,
and the audit. A change to the solver that moves any of them shows here.
Regenerate the file (only for a change meant to move plans) with

    PYTHONPATH=src python tests/test_wide_plans.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from deepedge import (BackgroundApp, ClusterSpec, InfeasibleScheduleError, JobSpec, NodeState,
                      WorkerSpec, default_registry, plan_to_doc, solve)

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


if __name__ == "__main__":
    from conftest import _random_fitted_registry

    PINNED.write_text(json.dumps(plan_digests(_random_fitted_registry), indent=2) + "\n")
