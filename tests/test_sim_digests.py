"""Simulations pinned by digest.

``tests/data/sim_digests.json`` holds the sha256 of seeded ``simulate`` and
``inject_and_recover`` results: status, makespan, the per-worker dicts, the
crash, the violations and the trace, and for a recovery every attempt, plan,
phase and arc event as well. The cases cover the reference testbed, idle and
stressed, the same stressed testbed with every other worker free of init and
transfer cost (durations that draw nothing), the 96-worker
``tests/data/wide_cluster.json`` and a 64-worker ladder cluster, at jitter 0,
0.03, 0.3 and 0.8 (where the -0.9 clamp fires on about 13% of draws), with
random crash scripts at every trace level. The stressed testbed and the wide
cluster run on two fitted registries as well: the benchmark's (tx2 and nano
swept from ``reference_grid`` at noise 0.02, seed 1, and fitted) and one of
random coefficients, at jitter 0 and 0.03. The ``zero-`` cases run a flat
registry whose push, server update and pull all take zero time, so under
jitter every round draws its compute alone. A change to the simulator or to
the estimators that moves any draw, any round or any trace event shows here.
Regenerate the file (only for a change meant to move simulations) with

    PYTHONPATH=src python tests/test_sim_digests.py
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from deepedge import (ClusterSpec, CrashEvent, EstimatorBundle, JobSpec, NodeState,
                      ParametricProfile, SimConfig, WorkerSpec, default_registry,
                      default_testbed, fairness_plan, fit_all, inject_and_recover, load_cluster,
                      plan_to_doc, reference_grid, run_sweep, simulate, solve)

from conftest import record_dict

DATA = Path(__file__).parent / "data"
PINNED = DATA / "sim_digests.json"
STORE = "store-0"
JITTERS = (0.0, 0.03, 0.3, 0.8)
LEVELS = ("none", "phases", "rounds")


def sim_text(res) -> str:
    return json.dumps(record_dict(res), sort_keys=True)


def recovery_text(rec) -> str:
    return json.dumps({
        "status": rec.status,
        "phases": [(p.time, p.phase.value) for p in rec.phases],
        "attempts": record_dict(rec.attempts),
        "plans": [plan_to_doc(p) for p in rec.plans],
        "excluded": rec.excluded, "strikes": rec.strikes,
        "events": record_dict(rec.events),
        "violations": record_dict(rec.violations),
        "trace": record_dict(rec.trace),
    }, sort_keys=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def clusters(ladder_cluster) -> dict:
    """Name -> (cluster, whether fairness plans are simulated too, cases per jitter)."""
    stressed = default_testbed(stressed=True)
    bare = replace(stressed, workers=tuple(
        replace(w, init_cost=0.0, per_sample_transfer_cost={STORE: 0.0}) if k % 2 else w
        for k, w in enumerate(stressed.workers)))
    return {
        "testbed": (default_testbed(), True, 4),
        "stressed": (stressed, True, 4),
        "bare": (bare, True, 4),
        "wide": (load_cluster(DATA / "wide_cluster.json"), False, 2),
        "ladder64": (ladder_cluster(64), False, 2),
    }


def fitted_registries(random_fitted_registry) -> dict:
    """Name -> a fitted registry: the benchmark's, and one of random coefficients."""
    base = default_registry()
    bench = {dev: EstimatorBundle(dev, models={
        t: r.model for t, r in fit_all(run_sweep(base[dev], reference_grid(dev, noise=0.02),
                                                 seed=1)).items()})
        for dev in ("tx2", "nano")}
    return {"bench": bench, "random": random_fitted_registry(np.random.default_rng(19))}


def crash_script(rng, ids, clean) -> tuple:
    """Up to three crashes, most at event times of the clean run."""
    times = sorted({ev.time for ev in clean.trace})
    return tuple(
        CrashEvent(ids[int(rng.integers(len(ids)))],
                   times[int(rng.integers(len(times)))] if rng.random() < 0.7
                   else float(rng.uniform(0.0, clean.makespan)))
        for _ in range(int(rng.integers(0, 4))))


def level_digests(rng, name, cluster, job, plan, registry, jitter) -> dict:
    """``name-level`` -> sha256 of the plan's result with one random crash
    script, at every trace level."""
    seed = int(rng.integers(1000))
    clean = simulate(cluster, job, plan, registry, seed=seed,
                     config=SimConfig(jitter=jitter, trace_level="rounds"))
    crashes = crash_script(rng, [w.id for w in cluster.workers], clean)
    return {f"{name}-{level}": digest(sim_text(simulate(
        cluster, job, plan, registry, seed=seed,
        config=SimConfig(jitter=jitter, crashes=crashes, trace_level=level))))
        for level in LEVELS}


def sim_digests(ladder_cluster, random_fitted_registry) -> dict:
    """Case name -> sha256 of its result."""
    out = {}
    rng = np.random.default_rng(18)
    named = clusters(ladder_cluster)
    for name, (cluster, fair, cases) in named.items():
        for jitter in JITTERS:
            for k in range(cases):
                job = JobSpec(num_samples=int(rng.integers(200, 4000)),
                              num_epoch=int(rng.integers(1, 4)), source_store=STORE)
                plan = fairness_plan(cluster, job) if fair and k % 2 else solve(cluster, job)
                out.update(level_digests(rng, f"{name}-{jitter}-{k}", cluster, job, plan,
                                         None, jitter))
    for name in ("testbed", "stressed", "bare"):
        cluster = named[name][0]
        ids = [w.id for w in cluster.workers]
        for k, jitter in enumerate(JITTERS):
            job = JobSpec(num_samples=int(rng.integers(200, 3000)),
                          num_epoch=int(rng.integers(1, 3)), source_store=STORE)
            # repeat offenders: up to three strikes on one worker, plus strays
            victim = ids[int(rng.integers(len(ids)))]
            times = np.cumsum(rng.uniform(5.0, 40.0, 5))
            crashes = tuple(CrashEvent(victim if rng.random() < 0.7
                                       else ids[int(rng.integers(len(ids)))], float(t))
                            for t in times)
            rec = inject_and_recover(cluster, job, solve(cluster, job), seed=k, config=SimConfig(
                jitter=jitter, crashes=crashes, trace_level=LEVELS[k % 3]))
            out[f"recover-{name}-{jitter}"] = digest(recovery_text(rec))
    rng = np.random.default_rng(19)
    for reg_name, registry in fitted_registries(random_fitted_registry).items():
        for name in ("stressed", "wide"):
            cluster, fair, _ = named[name]
            for jitter in (0.0, 0.03):
                for k in range(2):
                    job = JobSpec(num_samples=int(rng.integers(200, 4000)),
                                  num_epoch=int(rng.integers(1, 4)), source_store=STORE)
                    plan = (fairness_plan(cluster, job, registry) if fair and k % 2
                            else solve(cluster, job, registry))
                    out.update(level_digests(rng, f"{reg_name}-{name}-{jitter}-{k}", cluster,
                                             job, plan, registry, jitter))
    return out


def zero_round_case() -> tuple:
    """(cluster, registry): six workers of mixed load on a flat registry with
    ``base_push = base_pull = ps_update = 0``, every other one also free of
    init and transfer cost, so that only compute, init and transfer draw."""
    profile = ParametricProfile(base_forward=0.05, base_backward=0.2, cpu_slope=0.6,
                                gpu_slope=0.4)
    workers = tuple(
        WorkerSpec(f"z{k}", "flat", NodeState(0.15 * k, 0.1 * k, 0.2),
                   b_max=(4, 16, 64)[k % 3], init_cost=0.0 if k % 2 else 2.0 + k,
                   per_sample_transfer_cost={STORE: 0.0 if k % 2 else 0.001 * (k + 1)})
        for k in range(6))
    return (ClusterSpec(workers, NodeState(0.1, 0.0, 0.3), (STORE,)),
            {"flat": EstimatorBundle("flat", profile=profile)})


def zero_round_digests() -> dict:
    """Case name -> sha256 of a zero-round case's result, at jitter 0.03 and 0.8."""
    cluster, registry = zero_round_case()
    out = {}
    rng = np.random.default_rng(20)
    for jitter in (0.03, 0.8):
        for k in range(4):
            job = JobSpec(num_samples=int(rng.integers(200, 4000)),
                          num_epoch=int(rng.integers(1, 4)), source_store=STORE)
            plan = (fairness_plan(cluster, job, registry) if k % 2
                    else solve(cluster, job, registry))
            out.update(level_digests(rng, f"zero-{jitter}-{k}", cluster, job, plan,
                                     registry, jitter))
    return out


def pinned(zero_round: bool) -> dict:
    return {k: v for k, v in json.loads(PINNED.read_text()).items()
            if k.startswith("zero-") == zero_round}


def test_simulations_match_the_pinned_digests(ladder_cluster, random_fitted_registry):
    assert sim_digests(ladder_cluster, random_fitted_registry) == pinned(zero_round=False)


def test_zero_round_simulations_match_the_pinned_digests():
    assert zero_round_digests() == pinned(zero_round=True)


if __name__ == "__main__":
    from conftest import _ladder_cluster, _random_fitted_registry

    PINNED.write_text(json.dumps({**sim_digests(_ladder_cluster, _random_fitted_registry),
                                  **zero_round_digests()}, indent=2) + "\n")
