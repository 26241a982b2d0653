"""Planned against simulated finish times on ladder clusters, with no jitter.

``solve`` prices each worker's update as if the worker had the parameter
server to itself, and ranks its candidates by the longer of the workers'
epoch and the server's busy time per epoch: the work-conservation bound of
one FIFO server. ``simulate`` queues every round at that one server. A
worker's residual is the relative gap between its simulated finish and its
predicted ``cost.total``. Queueing below saturation is not priced, so the
gap grows with the server's load; these bounds hold it where the
work-conservation bound leaves it. Without that bound, the 256-worker
cluster at 2,000 samples read +198% mean and +407% max.

``tests/data/wide_cluster.json`` is the 96-worker ladder cluster that CI
solves and simulates from files. It was written by

    PYTHONPATH=src python tests/test_residuals.py
"""

import statistics
from pathlib import Path

import pytest

from deepedge import JobSpec, SimConfig, load_cluster, simulate, solve
from deepedge.documents import save

WIDE_CLUSTER = Path(__file__).parent / "data" / "wide_cluster.json"
WORKERS = (4, 16, 64, 128, 256)
# samples -> the bounds on each cluster's mean residual and on its largest
# residual either way
BOUNDS = {2000: (0.30, 0.60), 20000: (0.10, 0.16)}
# up to 16 workers the server is at most 59% busy, and plans stay as they were
SMALL, SMALL_MAX = 16, 0.06
# simulated makespans at 2,000 samples when plans ignored the server's busy time
SERVER_BLIND = {128: 28.81, 256: 43.85}


def residuals(cluster, job) -> tuple:
    """(each assigned worker's relative gap between its simulated finish and
    its predicted ``cost.total``, the simulated makespan)."""
    plan = solve(cluster, job)
    sim = simulate(cluster, job, plan, seed=0, config=SimConfig(jitter=0.0, trace_level="none"))
    return ([(sim.worker_finish[a.worker_id] - a.cost.total) / a.cost.total
             for a in plan.assignments], sim.makespan)


@pytest.mark.parametrize("samples", sorted(BOUNDS))
def test_residuals_stay_within_the_bounds_on_ladder_clusters(samples, ladder_cluster):
    mean_bound, max_bound = BOUNDS[samples]
    job = JobSpec(num_samples=samples, num_epoch=1, source_store="store-0")
    for n in WORKERS:
        gaps, makespan = residuals(ladder_cluster(n), job)
        largest = max(abs(g) for g in gaps)
        assert statistics.mean(gaps) <= mean_bound, (n, statistics.mean(gaps))
        assert largest <= (SMALL_MAX if n <= SMALL else max_bound), (n, largest)
        if samples == 2000 and n in SERVER_BLIND:
            assert makespan < SERVER_BLIND[n], (n, makespan)


def test_wide_cluster_document_is_the_96_worker_ladder_cluster(ladder_cluster):
    assert load_cluster(WIDE_CLUSTER) == ladder_cluster(96)


if __name__ == "__main__":
    from conftest import _ladder_cluster

    save(_ladder_cluster(96), WIDE_CLUSTER)
