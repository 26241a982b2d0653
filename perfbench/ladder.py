"""One-shot scaling ladder for ``solve``: a record of growth, not a gated workload.

    python3 perfbench/run.py ladder

Three ladders step one input size at a time away from a small base point,
each on the parametric and on a fitted registry:

* workers: 4, 16, 64, 128, 256 at 2,000 samples;
* samples: 2e3, 2e4, 1e5 on 16 workers;
* ``b_max``: 64, 1e3, 1e4, 1e5 for every worker on 4 workers.

Each point runs once under a wall-clock cap of CAP seconds; a point over
the cap is reported as such. Clusters are lightly loaded (no storms) so that
the sizes, not removals, set the cost. Results go to
``perfbench/out/ladder.json``.
"""

from __future__ import annotations

import json
import random
import signal
import time
from pathlib import Path

import workloads

OUT = Path(__file__).resolve().parent / "out"
CAP = 10.0  # seconds allowed per point

LADDERS = (
    [("workers", n, 2000, None) for n in (4, 16, 64, 128, 256)]
    + [("samples", 16, s, None) for s in (2000, 20000, 100000)]
    + [("b_max", 4, 2000, b) for b in (64, 1000, 10000, 100000)]
)


class Capped(Exception):
    pass


def _raise_capped(signum, frame):
    raise Capped()


def cluster_doc(n_workers: int, b_max) -> bytes:
    """A lightly loaded cluster, a quarter tx2, from a fixed seed."""
    rng = random.Random(f"perfbench:ladder:{n_workers}")
    workers = []
    for k in range(n_workers):
        device = "tx2" if k % 4 == 0 else "nano"
        workers.append(workloads.worker_doc(
            f"{device}-{k:03d}", device, workloads.state_doc(rng, rng.uniform(0.0, 0.3)),
            deadline=0.2, b_max=b_max or (64 if device == "tx2" else 16),
            init_cost=5.0, transfer=0.001))
    return workloads.dumps({"schema": 1, "data_stores": [workloads.STORE],
                             "ps_state": {"cpu_util": 0.1, "gpu_util": 0.0, "mem_util": 0.3},
                             "workers": workers})


def run_point(modules: dict, registry: dict, n_workers: int, samples: int, b_max):
    """(seconds, assigned workers) of one solve, or (None, None) past the cap."""
    cluster = modules["deepedge.cluster"].load_cluster(cluster_doc(n_workers, b_max))
    job = modules["deepedge.cluster"].load_job(workloads.dumps(workloads.job_doc(samples, 1)))
    previous = signal.signal(signal.SIGALRM, _raise_capped)
    signal.setitimer(signal.ITIMER_REAL, CAP)
    t0 = time.perf_counter()
    try:
        plan = modules["deepedge.scheduler"].solve(cluster, job, registry)
        return time.perf_counter() - t0, len(plan.assignments)
    except Capped:
        return None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def main(modules: dict, registries: dict) -> int:
    rows = []
    print(f"{'ladder':8s} {'workers':>7s} {'samples':>7s} {'b_max':>7s} "
          + " ".join(f"{name + ' s':>14s}" for name in registries))
    for ladder, n_workers, samples, b_max in LADDERS:
        row = {"ladder": ladder, "workers": n_workers, "samples": samples,
               "b_max": b_max or "64/16"}
        cells = []
        for name, registry in registries.items():
            secs, assigned = run_point(modules, registry, n_workers, samples, b_max)
            row[name] = {"seconds": secs, "assigned": assigned, "cap": CAP}
            cells.append(f"{secs:14.4f}" if secs is not None else f"{'> ' + str(CAP):>14s}")
        rows.append(row)
        print(f"{ladder:8s} {n_workers:7d} {samples:7d} {str(row['b_max']):>7s} "
              + " ".join(cells), flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / "ladder.json").write_text(json.dumps(rows, indent=1) + "\n")
    return 0
