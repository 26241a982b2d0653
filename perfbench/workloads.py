"""Seeded request pools, per-request drivers and output checks.

Inputs come only from this file and the workload seed: the generators use the
standard library's ``random`` and never call deepedge, so a change to the
program cannot change what it is asked to do. Every request is serialized to
the same cluster/job JSON bytes the CLI reads before any timing starts.

Sizes that drive the cost of a request (worker count, samples, epochs, storm
count, crash count) are stratified over the pool rather than drawn
independently, samples and epochs within each worker or storm count, so every
seed gets the same mix and only the details differ.
That keeps the pool means steady from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, replace

WORKLOADS = ("testbed-paired", "wide-cluster", "fitted-testbed", "crash-recovery")

# Requests in a run's pool. Every run executes each of them at least twice and
# reports each request's median latency, so the pool holds at least 100
# requests (ten beyond the 90th percentile). testbed-paired keeps 400 so that
# about five passes fit in a 25 s run at the seed commit's speed;
# crash-recovery keeps the minimum, which gives each request a dozen or so
# passes spread over the run.
POOL_SIZE = {
    "testbed-paired": 400,
    "wide-cluster": 100,
    "fitted-testbed": 100,
    "crash-recovery": 100,
}

STORE = "store-0"
JITTER = 0.03


@dataclass(frozen=True)
class Request:
    """One request: the documents the CLI reads plus the run's own arguments."""

    index: int
    cluster: bytes
    job: bytes
    sim_seed: int
    crashes: tuple = ()        # (worker id, time on the global clock)
    observations: tuple = ()   # (epoch, accuracy)


# --- generation -------------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    # string seeding hashes with sha512, which is stable across Python versions
    return random.Random(f"perfbench:{workload}:{seed}")


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """n values in [lo, hi), one per equal-width stratum, in random order."""
    order = list(range(n))
    rng.shuffle(order)
    return [lo + (hi - lo) * (k + rng.random()) / n for k in order]


def _within(rng: random.Random, groups: list, make) -> list:
    """``make(rng, size)`` drawn separately for each group of equal values in
    ``groups``, so that every group gets the same stratified spread."""
    out = [None] * len(groups)
    for g in sorted(set(groups)):
        idx = [i for i, x in enumerate(groups) if x == g]
        for i, value in zip(idx, make(rng, len(idx))):
            out[i] = value
    return out


def _stratified_counts(rng: random.Random, n: int, weights) -> list:
    """n category indices whose counts follow ``weights`` as closely as integers allow."""
    raw = [w * n / sum(weights) for w in weights]
    counts = [int(r) for r in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    out = [i for i, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(out)
    return out


def state_doc(rng: random.Random, stress: float) -> dict:
    """Utilization for a stress level, mapped as the paper's stress model does."""
    def clip(v):
        return round(min(1.0, max(0.0, v)), 4)
    return {
        "cpu_util": clip(0.80 * stress + rng.uniform(0.0, 0.05)),
        "gpu_util": clip(0.90 * stress + rng.uniform(0.0, 0.05)),
        "mem_util": clip(0.20 + 0.40 * stress + rng.uniform(0.0, 0.05)),
    }


def worker_doc(wid, device, state, deadline, b_max, init_cost, transfer) -> dict:
    return {
        "id": wid,
        "device_class": device,
        "initial_state": state,
        "background_apps": [{"id": "vision-stream", "deadline": deadline,
                             "description": "periodic feature extraction"}],
        "b_min": 1,
        "b_max": b_max,
        "init_cost": init_cost,
        "per_sample_transfer_cost": {STORE: transfer},
    }


def dumps(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _testbed(rng: random.Random, n_hot: int) -> tuple:
    """(cluster doc, hot nano ids): one tx2 and three nanos, each with a 200 ms stream.

    The tx2 never runs hot; it only carries light load, as on the reference testbed.
    """
    nanos = [f"nano-{i}" for i in range(3)]
    hot = set(rng.sample(nanos, n_hot))
    workers = [worker_doc("tx2-0", "tx2", state_doc(rng, rng.uniform(0.0, 0.3)), 0.2, 64, 5.0, 0.001)]
    for wid in nanos:
        stress = rng.uniform(0.75, 1.0) if wid in hot else rng.uniform(0.0, 0.3)
        workers.append(worker_doc(wid, "nano", state_doc(rng, stress), 0.2, 16, 5.0, 0.001))
    doc = {"schema": 1, "data_stores": [STORE],
           "ps_state": {"cpu_util": 0.1, "gpu_util": 0.0, "mem_util": 0.3},
           "workers": workers}
    return doc, sorted(hot)


def job_doc(num_samples: int, num_epoch: int) -> dict:
    return {"schema": 1, "num_samples": num_samples, "num_epoch": num_epoch,
            "source_store": STORE}


# P(0, 1, 2 hot nanos), as in the paper's stress model
STORM_WEIGHTS = (0.40, 0.35, 0.25)


def _testbed_pool(rng: random.Random, n: int, fixed_job=None) -> list:
    storms = _stratified_counts(rng, n, STORM_WEIGHTS)
    samples = _within(rng, storms, lambda r, k: _stratified(r, k, 1800, 6001))
    epochs = _within(rng, storms, lambda r, k: _stratified_counts(r, k, (1, 1, 1, 1)))  # 2..5
    out = []
    for i in range(n):
        cluster, hot = _testbed(rng, storms[i])
        job = dict(fixed_job) if fixed_job else job_doc(int(samples[i]), 2 + epochs[i])
        out.append((cluster, job, hot))
    return out


def _wide_pool(rng: random.Random, n: int) -> list:
    sizes = _stratified_counts(rng, n, (1, 1, 1))
    samples = _within(rng, sizes, lambda r, k: _stratified(r, k, 2000, 8001))
    epochs = _within(rng, sizes, lambda r, k: _stratified_counts(r, k, (1, 1, 1)))  # 1..3
    out = []
    for i in range(n):
        count = (64, 96, 128)[sizes[i]]
        n_tx2 = round(0.25 * count)
        n_hot = round(0.20 * count)
        devices = ["tx2"] * n_tx2 + ["nano"] * (count - n_tx2)
        rng.shuffle(devices)
        hot = set(rng.sample(range(count), n_hot))
        workers = []
        for k, device in enumerate(devices):
            stress = rng.uniform(0.5, 1.0) if k in hot else rng.uniform(0.0, 0.3)
            workers.append(worker_doc(
                f"{device}-{k:03d}", device, state_doc(rng, stress),
                deadline=0.2,
                b_max=(64 if device == "tx2" else 16),
                init_cost=round(rng.uniform(2.0, 8.0), 3),
                transfer=round(rng.uniform(0.0005, 0.003), 6)))
        cluster = {"schema": 1, "data_stores": [STORE],
                   "ps_state": {"cpu_util": round(rng.uniform(0.05, 0.5), 4),
                                "gpu_util": 0.0, "mem_util": 0.3},
                   "workers": workers}
        out.append((cluster, job_doc(int(samples[i]), 1 + epochs[i]), ()))
    return out


# crash mix: none, one crash, three crashes on one nano; three is the
# simulator's default strike limit, so the last kind forces exclusion
CRASH_WEIGHTS = (0.5, 0.3, 0.2)
STRIKES = 3
HEARTBEAT = 1.0
# A retriggered attempt trains again at most ~11.5 s after detection (transfer
# of at most 6000 samples at 1 ms each plus 5 s init, with 3% jitter); crashes
# land later than that, and long before a nano's shard of 2+ epochs is done.
RESTART_CLEAR = 12.0


def _crash_times(rng: random.Random, count: int) -> list:
    times = []
    t = RESTART_CLEAR + rng.uniform(0.0, 20.0)
    for _ in range(count):
        times.append(round(t, 3))
        t += HEARTBEAT + RESTART_CLEAR + rng.uniform(0.0, 10.0)
    return times


def _observations(rng: random.Random) -> tuple:
    """Five noisy per-epoch accuracy readings from a logistic ground truth."""
    L, r, k0 = rng.uniform(0.85, 0.95), rng.uniform(0.8, 1.5), rng.uniform(1.5, 3.0)
    out = []
    for k in range(1, 6):
        acc = L / (1.0 + math.exp(-r * (k - k0))) + rng.uniform(-0.01, 0.01)
        out.append((k, round(min(1.0, max(0.0, acc)), 4)))
    return tuple(out)


def generate(workload: str, seed: int, pool_size: int | None = None) -> list:
    """The workload's request pool for this seed, serialized before any timing."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'")
    rng = _rng(workload, seed)
    n = pool_size if pool_size is not None else POOL_SIZE[workload]
    if workload == "wide-cluster":
        base = _wide_pool(rng, n)
    elif workload == "fitted-testbed":
        base = _testbed_pool(rng, n, fixed_job=job_doc(1800, 2))
    else:
        base = _testbed_pool(rng, n)
    crash_kinds = _stratified_counts(rng, n, CRASH_WEIGHTS) if workload == "crash-recovery" else ()
    pool = []
    for i, (cluster, job, hot) in enumerate(base):
        crashes, observations = (), ()
        if workload == "crash-recovery":
            job["target_accuracy"] = round(rng.uniform(0.7, 0.9), 4)
            observations = _observations(rng)
            # crash a nano that is not hot, so it is in the plan when it fails
            victim = rng.choice([w["id"] for w in cluster["workers"]
                                 if w["device_class"] == "nano" and w["id"] not in hot])
            count = (0, 1, STRIKES)[crash_kinds[i]]
            crashes = tuple((victim, t) for t in _crash_times(rng, count))
        pool.append(Request(index=i, cluster=dumps(cluster), job=dumps(job),
                            sim_seed=rng.randrange(2 ** 32), crashes=crashes,
                            observations=observations))
    return pool


def pool_digest(pool: list) -> str:
    """sha256 over every input byte of the pool, to show two runs got the same inputs."""
    h = hashlib.sha256()
    for req in pool:
        h.update(req.cluster)
        h.update(req.job)
        h.update(json.dumps([req.sim_seed, req.crashes, req.observations]).encode())
    return h.hexdigest()


# --- per-request drivers --------------------------------------------------------


class Api:
    """The deepedge modules, looked up at call time so traced wrappers are seen."""

    def __init__(self, modules: dict):
        self.cluster = modules["deepedge.cluster"]
        self.scheduler = modules["deepedge.scheduler"]
        self.simulator = modules["deepedge.simulator"]
        self.orchestrator = modules["deepedge.orchestrator"]


def _decode(api: Api, req: Request):
    return api.cluster.load_cluster(req.cluster), api.cluster.load_job(req.job)


def _run_paired(api: Api, req: Request, registry: dict) -> dict:
    cluster, job = _decode(api, req)
    plan = api.scheduler.solve(cluster, job, registry)
    doc = api.scheduler.plan_to_doc(plan)
    plan = api.scheduler.plan_from_doc(doc)
    fair = api.scheduler.fairness_plan(cluster, job, registry)
    cfg = api.simulator.SimConfig(jitter=JITTER, trace_level="none")
    res = api.simulator.simulate(cluster, job, plan, registry, seed=req.sim_seed, config=cfg)
    res_f = api.simulator.simulate(cluster, job, fair, registry, seed=req.sim_seed, config=cfg)
    return {"cluster": cluster, "job": job, "plan": plan, "plan_doc": doc,
            "sim": res, "makespan": res.makespan, "fair": fair, "fair_sim": res_f,
            "violations": len(res.violations)}


def _run_single(api: Api, req: Request, registry: dict) -> dict:
    cluster, job = _decode(api, req)
    plan = api.scheduler.solve(cluster, job, registry)
    doc = api.scheduler.plan_to_doc(plan)
    cfg = api.simulator.SimConfig(jitter=JITTER, trace_level="none")
    res = api.simulator.simulate(cluster, job, plan, registry, seed=req.sim_seed, config=cfg)
    return {"cluster": cluster, "job": job, "plan": plan, "plan_doc": doc,
            "sim": res, "makespan": res.makespan, "violations": len(res.violations)}


def _run_recovery(api: Api, req: Request, registry: dict) -> dict:
    cluster, job = _decode(api, req)
    crashes = tuple(api.simulator.CrashEvent(w, t) for w, t in req.crashes)
    cfg = api.simulator.SimConfig(jitter=JITTER, crashes=crashes)
    report = api.orchestrator.run_job(cluster, job, registry, seed=req.sim_seed,
                                      config=cfg, accuracy_observations=req.observations)
    rec = report.recovery
    plan = report.final_plan
    doc = api.scheduler.plan_to_doc(plan) if plan is not None else None
    return {"cluster": cluster, "job": job, "plan": plan, "plan_doc": doc,
            "sim": rec.attempts[-1] if rec is not None else None,
            "makespan": report.total_time, "report": report, "recovery": rec,
            "crashes": req.crashes, "violations": len(rec.violations) if rec is not None else 0}


RUNNERS = {
    "testbed-paired": _run_paired,
    "wide-cluster": _run_single,
    "fitted-testbed": _run_single,
    "crash-recovery": _run_recovery,
}


# --- output checks ----------------------------------------------------------------


def check_plan(plan, cluster, job, what: str) -> list:
    """Problems with a plan's shards, worker ids and batch sizes; empty if none."""
    problems = []
    total = sum(a.num_samples for a in plan.assignments)
    if total != job.num_samples:
        problems.append(f"{what}: shares sum to {total}, job has {job.num_samples}")
    ids = [a.worker_id for a in plan.assignments]
    if len(set(ids)) != len(ids):
        problems.append(f"{what}: a worker id appears twice")
    workers = {w.id: w for w in cluster.workers}
    for a in plan.assignments:
        w = workers.get(a.worker_id)
        if w is None:
            problems.append(f"{what}: worker '{a.worker_id}' is not in the cluster")
        elif not w.b_min <= a.batch_size <= min(w.b_max, a.num_samples):
            problems.append(f"{what}: worker '{a.worker_id}' batch {a.batch_size} outside "
                            f"[{w.b_min}, min({w.b_max}, {a.num_samples})]")
    return problems


def check_sim(res, plan, job, what: str) -> list:
    """A crash-free simulation must complete every round of every shard."""
    if res.status != "completed":
        return [f"{what}: status {res.status}, expected completed"]
    problems = []
    for a in plan.assignments:
        want = math.ceil(a.num_samples / a.batch_size) * job.num_epoch
        got = res.rounds_completed.get(a.worker_id)
        if got != want:
            problems.append(f"{what}: worker '{a.worker_id}' ran {got} rounds, expected {want}")
    if not (math.isfinite(res.makespan) and res.makespan > 0):
        problems.append(f"{what}: makespan {res.makespan} is not a positive number")
    return problems


def check_crashes(rec, scripted: tuple) -> list:
    """Every scripted crash must fire, and a victim struck STRIKES times must be excluded.

    The generator times each crash while its victim trains (see RESTART_CLEAR),
    so a crash missing from the recovery arc means the program dropped it.
    """
    problems = []
    fired = [(e.worker, e.time) for e in rec.events if e.kind == "crash"]
    if len(fired) != len(scripted) or any(
            w != fw or not math.isclose(t, ft, rel_tol=0.0, abs_tol=1e-6)
            for (w, t), (fw, ft) in zip(scripted, fired)):
        problems.append(f"crashes fired {fired}, scripted {list(scripted)}")
    victims = [w for w, _ in scripted]
    want = sorted({w for w in victims if victims.count(w) >= STRIKES})
    if sorted(rec.excluded) != want:
        problems.append(f"excluded {sorted(rec.excluded)}, scripted crashes imply {want}")
    return problems


def check(api: Api, workload: str, out: dict) -> list:
    """Every problem with one request's outputs; an empty list means it passed."""
    cluster, job, plan = out["cluster"], out["job"], out["plan"]
    if workload == "crash-recovery":
        report = out["report"]
        problems = []
        if report.status != "completed":
            return [f"run_job ended {report.status}, expected completed"]
        try:
            api.orchestrator.validate_transitions(report.phases)
        except api.orchestrator.IllegalTransitionError as exc:
            problems.append(f"phase log: {exc}")
        problems += check_crashes(out["recovery"], out["crashes"])
        excluded = set(out["recovery"].excluded)
        active = replace(cluster, workers=tuple(w for w in cluster.workers
                                                if w.id not in excluded))
        problems += check_plan(plan, active, job, "final plan")
        problems += check_sim(out["sim"], plan, job, "completing attempt")
    else:
        problems = check_plan(plan, cluster, job, "load-aware plan")
        problems += check_sim(out["sim"], plan, job, "load-aware simulation")
        if "fair" in out:
            problems += check_plan(out["fair"], cluster, job, "fairness plan")
            problems += check_sim(out["fair_sim"], out["fair"], job, "fairness simulation")
    # the scheduler only assigns batches whose projected background exec times
    # meet their deadlines, so a load-aware run must never violate one
    if out["violations"]:
        problems.append(f"{out['violations']} background deadline violations in the load-aware run")
    return problems


def output_digest(out: dict) -> str:
    """sha256 of the canonical load-aware plan document and the simulated makespan."""
    text = json.dumps([out["plan_doc"], repr(out["makespan"])], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
