import bisect
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from deepedge import scheduler
from deepedge.estimators import DEVICE_PROFILES, MEM_CEILING, StateTable
from deepedge import (BackgroundApp, ClusterSpec, EstimatorBundle,
                      InfeasibleScheduleError, JobSpec, NodeState,
                      ParametricProfile, WorkerSpec, bundle_for, check_pressure,
                      default_registry, default_testbed, epoch_time,
                      fairness_plan, plan_from_doc, plan_to_doc, simulate, solve,
                      ValidationError)
from deepedge.documents import load_doc, save

from conftest import (largest_remainder, min_epoch_by_the_wide_bracket, proportional_split,
                      split_over_every_row)

STORE = "store-0"


def flat_registry(**kwargs):
    prof = ParametricProfile(base_forward=kwargs.pop("base_forward", 0.1),
                             base_mem_footprint=0.0, mem_per_batch_unit=0.0,
                             **kwargs)
    return {"flat": EstimatorBundle(device_class="flat", profile=prof)}


def flat_worker(wid="w0", b_max=16, apps=(), state=None, init=0.0, transfer=0.0):
    return WorkerSpec(id=wid, device_class="flat",
                      initial_state=state or NodeState(0, 0, 0),
                      background_apps=apps, b_min=1, b_max=b_max,
                      init_cost=init, per_sample_transfer_cost={STORE: transfer})


def one_worker_cluster(**kwargs):
    return ClusterSpec(workers=(flat_worker(**kwargs),),
                       ps_state=NodeState(0, 0, 0), data_stores=(STORE,))


# --- epoch time ------------------------------------------------------------


def test_epoch_time_pure_compute():
    assert epoch_time(100, 10, 1.0, 0.0) == 100.0


def test_epoch_time_with_update_rounds():
    assert epoch_time(100, 10, 1.0, 2.0) == 120.0


def test_epoch_time_charges_partial_round_in_full():
    assert epoch_time(101, 10, 1.0, 2.0) == 132.0


def test_epoch_time_rejects_zero_batch():
    with pytest.raises(ValueError):
        epoch_time(100, 0, 1.0, 0.0)


# --- pressure --------------------------------------------------------------


def test_pressure_vacuous_without_background_apps():
    w = flat_worker()
    ok, exec_time, _ = check_pressure(w, flat_registry(bg_base_exec=5.0)["flat"], 8)
    assert ok and exec_time == 5.0


def test_pressure_tight_deadline_fails():
    reg = default_registry()
    nano = bundle_for(reg, "nano")
    w = WorkerSpec(id="n", device_class="nano",
                   initial_state=NodeState(0.55, 0.65, 0.45),
                   background_apps=(BackgroundApp(id="cam", deadline=0.2),),
                   b_min=1, b_max=16, per_sample_transfer_cost={STORE: 0.0})
    ok, exec_time, _ = check_pressure(w, nano, 1)
    assert not ok
    assert exec_time > 0.2


@pytest.mark.parametrize("kind", ["parametric", "fitted"])
def test_pressure_returns_the_projection_of_est_state(kind, random_fitted_registry):
    """``check_pressure``'s state is ``est_state``'s projection, bit for bit,
    at one batch and at an array of them, and its exec time is read off it."""
    registry = (default_registry() if kind == "parametric"
                else random_fitted_registry(np.random.default_rng(5)))
    for w in default_testbed(stressed=True).workers:
        bundle = bundle_for(registry, w.device_class)
        for b in (w.b_min, w.b_max, np.arange(w.b_min, w.b_max + 1)):
            ok, exec_time, state = check_pressure(w, bundle, b)
            want = bundle.est_state(w.initial_state, b)
            assert type(state) is type(want) is StateTable
            assert all(np.array_equal(got, component) for got, component in zip(state, want))
            assert np.array_equal(exec_time, bundle.est_exec_time(want))
            deadline = min((app.deadline for app in w.background_apps), default=math.inf)
            assert np.array_equal(ok, exec_time <= deadline)


# --- rounding --------------------------------------------------------------


def test_largest_remainder_exact_floats():
    out = largest_remainder({"a": 2000.0, "b": 1000.0}, 3000, {"a": 0.5, "b": 1.0})
    assert out == {"a": 2000, "b": 1000}


def test_largest_remainder_prefers_small_product_growth():
    # a remainder handed to the fast worker would give products (2, 3.2);
    # water filling keeps the spread within the largest per-sample time
    out = largest_remainder({"a": 2.857142857, "b": 7.142857143}, 10,
                            {"a": 1.0, "b": 0.4})
    assert out == {"a": 3, "b": 7}


def test_largest_remainder_properties():
    rng = np.random.default_rng(17)
    for trial in range(400):
        n = int(rng.integers(1, 7))
        t = {f"w{i}": float(rng.uniform(0.05, 2.0)) for i in range(n)}
        total = int(rng.integers(n, 5000))
        inv_sum = sum(1.0 / v for v in t.values())
        shares = {w: total / (t[w] * inv_sum) for w in t}
        out = largest_remainder(shares, total, t)
        assert sum(out.values()) == total
        assert all(v >= 0 for v in out.values())
        products = [out[w] * t[w] for w in t]
        assert max(products) - min(products) <= max(t.values()) + 1e-9


# --- solve -----------------------------------------------------------------


def test_solve_single_worker_gets_everything():
    cluster = one_worker_cluster(b_max=10)
    job = JobSpec(num_samples=100, num_epoch=2, source_store=STORE)
    plan = solve(cluster, job, flat_registry())
    a = plan.assignments[0]
    assert a.num_samples == 100
    assert a.batch_size == 10
    assert plan.num_samples == 100


def test_solve_forced_elimination():
    reg = flat_registry(cpu_pressure=0.5, bg_base_exec=1.0)
    workers = (
        flat_worker("ok"),
        flat_worker("doomed", apps=(BackgroundApp(id="rt", deadline=0.5),)),
    )
    cluster = ClusterSpec(workers=workers, ps_state=NodeState(0, 0, 0),
                          data_stores=(STORE,))
    job = JobSpec(num_samples=500, num_epoch=1, source_store=STORE)
    plan = solve(cluster, job, reg)
    assert [a.worker_id for a in plan.assignments] == ["ok"]
    assert plan.assignments[0].num_samples == 500
    assert [(r.worker_id, r.reason) for r in plan.removed] == [("doomed", "pressure")]


def split_epoch_and_cost(cluster, job, shards, batches):
    """(epoch time, total cost) of a given split, priced the way plans are."""
    reg = default_registry()
    workers = {w.id: w for w in cluster.workers}
    epoch = cost = 0.0
    for wid, d in shards.items():
        w = workers[wid]
        bundle = bundle_for(reg, w.device_class)
        b = batches[wid]
        t_c = bundle.est_compute_time(w.initial_state, b)
        t_u = bundle.est_update_time(w.initial_state, b, cluster.ps_state, len(shards))
        ep = epoch_time(d, b, t_c, t_u)
        epoch = max(epoch, ep)
        cost = max(cost, w.per_sample_transfer_cost[job.source_store] * d
                   + w.init_cost + ep * job.num_epoch)
    return epoch, cost


def test_solve_reference_testbed():
    cluster = default_testbed()
    job = JobSpec(num_samples=2000, num_epoch=2, source_store=STORE)
    plan = solve(cluster, job)
    shards = {a.worker_id: a.num_samples for a in plan.assignments}
    batches = {a.worker_id: a.batch_size for a in plan.assignments}
    assert shards == {"tx2-0": 800, "nano-0": 400, "nano-1": 400, "nano-2": 400}
    assert batches == {"tx2-0": 62, "nano-0": 16, "nano-1": 16, "nano-2": 16}
    assert plan.epoch_time == pytest.approx(85.8071, abs=1e-3)
    assert plan.total_cost == pytest.approx(177.414, abs=1e-3)
    assert plan.removed == ()
    # the proportional split 788/404 leaves each nano 27 rounds of 15 where
    # 400 samples take 25 rounds of 16, so it ends its epoch later
    old_epoch, _ = split_epoch_and_cost(
        cluster, job, {"tx2-0": 788, "nano-0": 404, "nano-1": 404, "nano-2": 404},
        {"tx2-0": 61, "nano-0": 15, "nano-1": 15, "nano-2": 15})
    assert old_epoch == pytest.approx(85.8195, abs=1e-3)
    assert old_epoch > plan.epoch_time


def test_solve_stressed_testbed_drops_loaded_worker():
    cluster = default_testbed(stressed=True)
    job = JobSpec(num_samples=2000, num_epoch=2, source_store=STORE)
    plan = solve(cluster, job)
    shards = {a.worker_id: a.num_samples for a in plan.assignments}
    assert shards == {"tx2-0": 992, "nano-1": 504, "nano-2": 504}
    assert [(r.worker_id, r.reason) for r in plan.removed] == [("nano-0", "pressure")]
    # 988/506/506 ends the epoch at the same time (32 nano rounds of 16 either
    # way) but moves more transfer onto the nanos, which set the total cost
    old_epoch, old_cost = split_epoch_and_cost(
        cluster, job, {"tx2-0": 988, "nano-1": 506, "nano-2": 506},
        {"tx2-0": 62, "nano-1": 16, "nano-2": 16})
    assert old_epoch == plan.epoch_time
    assert old_cost > plan.total_cost


def test_solve_deterministic():
    cluster = default_testbed()
    job = JobSpec(num_samples=1777, num_epoch=3, source_store=STORE)
    assert solve(cluster, job) == solve(cluster, job)


def test_solve_infeasible_lists_pressures():
    reg = flat_registry(cpu_pressure=0.9, bg_base_exec=5.0)
    w = flat_worker("only", apps=(BackgroundApp(id="rt", deadline=0.01),))
    cluster = ClusterSpec(workers=(w,), ps_state=NodeState(0, 0, 0),
                          data_stores=(STORE,))
    job = JobSpec(num_samples=100, num_epoch=1, source_store=STORE)
    with pytest.raises(InfeasibleScheduleError, match="only"):
        solve(cluster, job, reg)


def random_feasible_cluster(rng, max_workers=5):
    n = int(rng.integers(1, max_workers + 1))
    workers = []
    for i in range(n):
        dc = str(rng.choice(["tx2", "nano"]))
        state = NodeState(float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.4)),
                          float(rng.uniform(0, 0.4)))
        apps = ()
        if rng.random() < 0.4:
            apps = (BackgroundApp(id="bg", deadline=float(rng.uniform(0.15, 0.5))),)
        b_min = int(rng.integers(1, 3))
        workers.append(WorkerSpec(
            id=f"w{i}", device_class=dc, initial_state=state,
            background_apps=apps, b_min=b_min,
            b_max=b_min + int(rng.integers(1, 64)),
            init_cost=float(rng.uniform(0, 5)),
            per_sample_transfer_cost={STORE: float(rng.uniform(0, 0.005))}))
    ps = NodeState(float(rng.uniform(0, 0.5)), 0.0, float(rng.uniform(0, 0.4)))
    return ClusterSpec(workers=tuple(workers), ps_state=ps, data_stores=(STORE,))


def test_solve_plan_invariants_hold_on_random_clusters():
    rng = np.random.default_rng(23)
    reg = default_registry()
    done = 0
    while done < 150:
        cluster = random_feasible_cluster(rng)
        job = JobSpec(num_samples=int(rng.integers(50, 3000)),
                      num_epoch=int(rng.integers(1, 4)), source_store=STORE)
        try:
            plan = solve(cluster, job, reg)
        except InfeasibleScheduleError:
            continue
        done += 1
        assert plan.num_samples == job.num_samples
        workers = {w.id: w for w in cluster.workers}
        for a in plan.assignments:
            w = workers[a.worker_id]
            assert w.b_min <= a.batch_size <= min(w.b_max, a.num_samples)
            bundle = bundle_for(reg, w.device_class)
            ok, _, _ = check_pressure(w, bundle, a.batch_size)
            assert ok
            assert a.num_samples >= 1
        # every removal carries an explanation
        for r in plan.removed:
            assert r.reason in ("pressure", "slowest")
            assert r.detail
        # assigned and removed workers cover the cluster exactly once
        named = [a.worker_id for a in plan.assignments] + [r.worker_id for r in plan.removed]
        assert sorted(named) == sorted(w.id for w in cluster.workers)


def test_solve_checks_pressure_at_the_memory_capped_batch():
    # the deadline holds at small batches but not at the largest batch the
    # memory allows, and that batch is where the check is made
    reg = default_registry()
    nano = bundle_for(reg, "nano")
    w = WorkerSpec(id="nano-x", device_class="nano", initial_state=NodeState(0.2, 0.2, 0.2),
                   background_apps=(BackgroundApp(id="cam", deadline=0.178),),
                   b_min=1, b_max=64, per_sample_transfer_cost={STORE: 0.0})
    cap = nano.max_batch_size(w.initial_state, 1, 64)
    assert check_pressure(w, nano, 1)[0] and not check_pressure(w, nano, cap)[0]
    testbed = default_testbed()
    cluster = replace(testbed, workers=testbed.workers + (w,))
    plan = solve(cluster, JobSpec(num_samples=2000, num_epoch=2, source_store=STORE), reg)
    assert "nano-x" not in {a.worker_id for a in plan.assignments}
    [removal] = [r for r in plan.removed if r.worker_id == "nano-x"]
    assert removal.reason == "pressure"
    assert removal.detail.endswith(f"with batch {cap}")


def test_a_deadline_removal_names_an_app_that_misses_its_deadline():
    reg = default_registry()
    nano = bundle_for(reg, "nano")
    state = NodeState(0.2, 0.2, 0.2)
    at_cap = nano.est_exec_time(nano.est_state(state, nano.max_batch_size(state, 1, 64)))
    # the first app meets its deadline at the cap, the second misses it
    apps = (BackgroundApp(id="bg-0", deadline=at_cap + 0.01),
            BackgroundApp(id="bg-1", deadline=at_cap - 0.01))
    w = WorkerSpec(id="nano-x", device_class="nano", initial_state=state, background_apps=apps,
                   b_min=1, b_max=64, per_sample_transfer_cost={STORE: 0.0})
    testbed = default_testbed()
    cluster = replace(testbed, workers=testbed.workers + (w,))
    plan = solve(cluster, JobSpec(num_samples=2000, num_epoch=2, source_store=STORE), reg)
    [removal] = [r for r in plan.removed if r.worker_id == "nano-x"]
    assert removal.detail.startswith(f"background task 'bg-1' projected at {at_cap:.4f} s")


def test_solve_checks_pressure_at_batches_up_to_the_job():
    # tx2-0's app meets its deadline at batch 40 and misses it at its memory
    # cap of 64; a 40-sample job runs no batch above 40, so it stays
    testbed = default_testbed()
    tx2 = bundle_for(default_registry(), "tx2")
    w = testbed.workers[0]
    e40, e64 = (tx2.est_exec_time(tx2.est_state(w.initial_state, b)) for b in (40, 64))
    assert (e40, e64) == pytest.approx((0.11005, 0.11077))
    assert tx2.max_batch_size(w.initial_state, w.b_min, w.b_max) == 64
    w = replace(w, background_apps=(BackgroundApp("bg", (e40 + e64) / 2),))
    cluster = replace(testbed, workers=(w,))
    job = JobSpec(num_samples=40, num_epoch=1, source_store=STORE)
    plan = solve(cluster, job)
    assert [(a.worker_id, a.num_samples, a.batch_size) for a in plan.assignments] == [
        ("tx2-0", 40, 40)]
    assert simulate(cluster, job, plan).violations == ()
    # fairness_plan runs the same job at that batch
    assert [a.batch_size for a in fairness_plan(cluster, job).assignments] == [40]


def test_pressure_removals_name_the_batches_a_shard_could_run():
    testbed = default_testbed()
    # nano-0 fits no batch in memory; nano-1 has no batch as small as the job
    full = replace(testbed.workers[1], initial_state=NodeState(0.05, 0.0, 0.9))
    high = replace(testbed.workers[2], b_min=30, b_max=40)
    cluster = replace(testbed, workers=(testbed.workers[0], full, high, testbed.workers[3]))
    plan = solve(cluster, JobSpec(num_samples=10, num_epoch=1, source_store=STORE))
    removed = {r.worker_id: (r.reason, r.detail) for r in plan.removed}
    assert removed["nano-0"] == ("pressure",
                                 "no batch in [1, 10] keeps projected memory under 0.95")
    assert removed["nano-1"] == ("pressure", "its b_min of 30 is above the job's 10 samples")
    # with the job above b_max, the range ends at b_max
    plan = solve(cluster, JobSpec(num_samples=2000, num_epoch=1, source_store=STORE))
    removed = {r.worker_id: (r.reason, r.detail) for r in plan.removed}
    assert removed["nano-0"] == ("pressure",
                                 "no batch in [1, 16] keeps projected memory under 0.95")


def test_a_server_cut_names_every_worker_it_leaves_out(ladder_cluster):
    cluster = ladder_cluster(128)
    job = JobSpec(num_samples=2000, num_epoch=1, source_store=STORE)
    plan = solve(cluster, job)
    # assigned and removed workers cover the cluster exactly once
    named = [a.worker_id for a in plan.assignments] + [r.worker_id for r in plan.removed]
    assert sorted(named) == sorted(w.id for w in cluster.workers)
    cut = [r for r in plan.removed if "parameter server binds" in r.detail]
    assert cut and {r.reason for r in cut} == {"slowest"}
    # each names the server's busy seconds per epoch and the workers' epoch
    # at the chosen count
    workers = {w.id: w for w in cluster.workers}
    busy = sum(math.ceil(a.num_samples / a.batch_size)
               * bundle_for(default_registry(), workers[a.worker_id].device_class)
               .update_components(workers[a.worker_id].initial_state, a.batch_size,
                                  cluster.ps_state)[1]
               for a in plan.assignments)
    for r in cut:
        assert (f"with {len(plan.assignments)} workers it is busy {busy:.4f} s per epoch, "
                f"and they finish the epoch in {plan.epoch_time:.4f} s") in r.detail


def test_solve_drops_the_slowest_workers_under_high_contention():
    # with every extra worker adding 2 s to each update, the server does not
    # bind, and leaving workers out shortens the epoch: the walk down the
    # worker count is what finds the two-worker plan
    registry = {name: EstimatorBundle(device_class=name,
                                      profile=replace(profile, contention_slope=2.0))
                for name, profile in DEVICE_PROFILES.items()}
    cluster = default_testbed()
    plan = solve(cluster, JobSpec(num_samples=2000, num_epoch=2, source_store=STORE), registry)
    assert len(plan.assignments) == 2
    assert plan.epoch_time == pytest.approx(195.932, abs=1e-3)
    left_out = {r.worker_id: r for r in plan.removed}
    assert sorted(left_out) == sorted({w.id for w in cluster.workers}
                                      - {a.worker_id for a in plan.assignments})
    for r in left_out.values():
        assert r.reason == "slowest"
        assert "parameter server binds" not in r.detail


def _subset_gaps(registry, clusters: int) -> list:
    """For the first ``clusters`` feasible clusters of seed 8, how far the
    plan ``solve`` returns lies above the exact optimum of the worker-count
    search: every non-empty subset of the table workers split through
    ``_assign``, ranked by the longer of its epoch and the server's busy time,
    as ``solve`` ranks its candidates."""
    rng = np.random.default_rng(8)
    gaps = []
    while len(gaps) < clusters:
        cluster = random_feasible_cluster(rng, max_workers=8)
        job = JobSpec(int(rng.integers(50, 3000)), int(rng.integers(1, 4)), STORE)
        try:
            plan = solve(cluster, job, registry)
        except InfeasibleScheduleError:
            continue
        tables = scheduler._Tables(cluster, registry, job)
        n = tables.workers.size
        longer = {}
        for mask in range(1, 1 << n):
            alive = (mask >> np.arange(n)) & 1 == 1
            split, kept, _, busy = scheduler._assign(alive, tables, job)
            # a subset whose split leaves workers empty is the subset of those kept
            longer[frozenset(tables.workers[kept].tolist())] = max(float(split.epoch.max()), busy)
        index = {w.id: i for i, w in enumerate(cluster.workers)}
        chosen = longer[frozenset(index[a.worker_id] for a in plan.assignments)]
        gaps.append(chosen / min(longer.values()) - 1.0)
    return gaps


@pytest.mark.parametrize("slope, clusters, misses, worst", [
    (None, 50, 0, 0.0),
    # the walk keeps one fastest-first order, so where a smaller shard moves
    # a worker to a worse per-sample time it can drop the wrong worker
    (2.0, 100, 3, 0.13993126475941287),
], ids=["built-in", "contention-2.0"])
def test_worker_count_search_against_the_exact_subset_optimum(slope, clusters, misses, worst):
    registry = default_registry() if slope is None else {
        name: EstimatorBundle(device_class=name, profile=replace(profile, contention_slope=slope))
        for name, profile in DEVICE_PROFILES.items()}
    gaps = _subset_gaps(registry, clusters)
    assert min(gaps) >= 0.0
    assert sum(gap > 1e-9 for gap in gaps) == misses
    assert max(gaps) == pytest.approx(worst, rel=1e-9, abs=1e-12)


def test_audit_counts_splits_and_candidates():
    rng = np.random.default_rng(29)
    reg = default_registry()
    done = 0
    while done < 40:
        cluster = random_feasible_cluster(rng)
        job = JobSpec(num_samples=int(rng.integers(50, 3000)), num_epoch=1,
                      source_store=STORE)
        try:
            plan = solve(cluster, job, reg)
        except InfeasibleScheduleError:
            continue
        done += 1
        audit = plan.audit
        assert audit.iterations >= audit.candidates_considered >= 1


def test_solve_balances_work_products(samples_done_sooner):
    rng = np.random.default_rng(41)
    reg = default_registry()
    done = 0
    while done < 80:
        cluster = random_feasible_cluster(rng)
        job = JobSpec(num_samples=int(rng.integers(100, 2000)),
                      num_epoch=1, source_store=STORE)
        try:
            plan = solve(cluster, job, reg)
        except InfeasibleScheduleError:
            continue
        done += 1
        assert plan.num_samples == job.num_samples
        # the envelope holds where the shares are still proportional
        t, shares = proportional_split(plan, job.num_samples)
        rounded = largest_remainder(shares, job.num_samples, t)
        products = [d * t[wid] for wid, d in rounded.items()]
        assert max(products) - min(products) <= max(t.values()) * (1 + 1e-9) + 1e-9
        # and no integer split over the plan's workers ends the epoch sooner
        assert samples_done_sooner(plan, cluster, reg) < job.num_samples


def test_solve_same_plan_when_epoch_bracket_is_halved_first(monkeypatch):
    # the epoch search sorts every breakpoint of its bracket at once, or first
    # halves the bracket while there are too many; both find the same split
    rng = np.random.default_rng(7)
    reg = default_registry()
    cases = [(default_testbed(), JobSpec(num_samples=2000, num_epoch=2,
                                         source_store=STORE))]
    while len(cases) < 15:
        cluster = random_feasible_cluster(rng)
        job = JobSpec(num_samples=int(rng.integers(50, 3000)), num_epoch=1,
                      source_store=STORE)
        try:
            solve(cluster, job, reg)
        except InfeasibleScheduleError:
            continue
        cases.append((cluster, job))
    plans = [solve(cluster, job, reg) for cluster, job in cases]
    monkeypatch.setattr(scheduler, "_MAX_BREAKPOINTS", 1)
    assert [solve(cluster, job, reg) for cluster, job in cases] == plans


def _random_table(rng, n_workers: int, tied: bool) -> tuple:
    """A ``_min_epoch`` table: each worker's batches ascending with their
    round times; with ``tied``, round times on a quarter-second grid, so
    that breakpoints coincide within and across workers, and every other
    worker a copy of the one before it."""
    b, r, owner = [], [], []
    for w in range(n_workers):
        if tied and w % 2:
            rows = [i for i, o in enumerate(owner) if o == w - 1]
            b += [b[i] for i in rows]
            r += [r[i] for i in rows]
        else:
            batches = np.unique(rng.integers(1, 65, size=int(rng.integers(1, 9))))
            if tied:
                times = 0.25 * rng.integers(1, 41, size=batches.size)
            else:
                times = batches * rng.uniform(0.01, 0.2) + rng.uniform(0.0, 0.5)
            b += batches.tolist()
            r += times.tolist()
        owner += [w] * (len(b) - len(owner))
    return np.array(b), np.array(r), np.array(owner)


def _min_epoch_by_enumeration(b, r, owner, M: int) -> float:
    """The smallest breakpoint time ``k * r_b`` at which the workers' summed
    capacities cover ``M``, among every breakpoint up to a time that covers it."""
    def covered(T):
        caps = np.zeros(owner[-1] + 1)
        np.maximum.at(caps, owner, b * scheduler._rounds_within(T, r))
        return caps.sum()

    top = r.min()
    while covered(top) < M:
        top *= 2.0
    times = np.unique(np.concatenate([np.arange(1.0, top // r_b + 2) * r_b for r_b in r]))
    # capacities never shrink as T grows, so the first time that covers M is
    # found by bisection
    first = bisect.bisect_left(times.tolist(), True, key=lambda T: covered(T) >= M)
    return float(times[first])


MIN_EPOCH_TABLES = ("one worker", "many workers", "tied times", "one breakpoint per bracket")


@pytest.mark.parametrize("kind", MIN_EPOCH_TABLES)
def test_min_epoch_matches_enumeration(kind, monkeypatch):
    rng = np.random.default_rng(MIN_EPOCH_TABLES.index(kind))
    if kind == "one breakpoint per bracket":
        monkeypatch.setattr(scheduler, "_MAX_BREAKPOINTS", 1)
    for case in range(75):
        n_workers = (1 if kind == "one worker" else
                     int(rng.integers(100, 151)) if kind == "many workers" else
                     int(rng.integers(1, 20)))
        b, r, owner = _random_table(rng, n_workers, tied=kind == "tied times" or bool(case % 2))
        M = int(rng.integers(1, 20_001))
        starts = owner.searchsorted(np.arange(n_workers))
        assert (scheduler._min_epoch(b, r, owner, starts, M)
                == _min_epoch_by_enumeration(b, r, owner, M)), (kind, case)


def _shortest_epochs(b, r, M: int) -> np.ndarray:
    """For every shard 0..M, the shortest whole-round epoch over one worker's
    rows ``(b, r)``: 0 for no samples, inf below its smallest batch."""
    d = np.arange(M + 1)[:, None]
    epochs = np.where(b <= d, np.ceil(d / b) * r, np.inf).min(axis=1)
    epochs[0] = 0.0
    return epochs


def _lowest_epoch(epochs: list, M: int) -> float:
    """The lowest epoch of any split of ``M`` samples over two or three
    workers, each shard 0 or at least its worker's smallest batch."""
    shards = np.stack(np.meshgrid(*[np.arange(M + 1)] * (len(epochs) - 1), indexing="ij"))
    last = M - shards.sum(axis=0)
    ok = last >= 0
    worst = epochs[-1][last[ok]]
    for e, d in zip(epochs, shards):
        worst = np.maximum(worst, e[d[ok]])
    return float(worst.min())


def test_split_epoch_against_the_exact_lowest():
    """``_split`` pinned against every split of small jobs over 2-3 idle
    workers whose batch ranges are narrow, so that a shard is 0 or at least
    a whole smallest batch. ``_min_epoch`` ignores that, and the samples left
    over at the end go to the largest shard, which can add a round: it
    misses the lowest epoch on about one cluster in five, at worst by twice.
    A mend lowers the pins."""
    rng = np.random.default_rng(11)
    registry = default_registry()
    cases = misses = 0
    worst = 1.0
    for _ in range(1500):
        workers = []
        for i in range(int(rng.integers(2, 4))):
            b_min = int(rng.integers(1, 33))
            device = ("tx2", "nano")[int(rng.integers(2))]
            workers.append(WorkerSpec(f"{device}-{i}", device, NodeState(0.05, 0.0, 0.2), (),
                                      b_min, b_min + int(rng.integers(0, 3)),
                                      per_sample_transfer_cost={STORE: 0.001}))
        job = JobSpec(int(rng.integers(5, 70)), 1, STORE)
        cluster = ClusterSpec(tuple(workers), NodeState(0.1, 0.0, 0.3), (STORE,))
        tables = scheduler._Tables(cluster, registry, job)
        n = tables.workers.size
        if n < 2:
            continue
        cases += 1
        r = tables.b * tables.t_c + tables.update(n)
        shards, _ = scheduler._split(tables.b, r, tables.owner, tables.rate, tables.init, job)
        epochs = [_shortest_epochs(tables.b[tables.owner == i], r[tables.owner == i],
                                   job.num_samples) for i in range(n)]
        got = max(e[d] for e, d in zip(epochs, shards.tolist()))
        lowest = _lowest_epoch(epochs, job.num_samples)
        assert got >= lowest
        if got > lowest:
            misses += 1
            worst = max(worst, got / lowest)
    assert (cases, misses) == (1179, 239)
    assert worst == pytest.approx(2.0)


def test_split_miss_end_to_end():
    """Three idle nanos with single batch sizes 32, 2 and 8 and a 37-sample
    job: the split gives all 37 samples to the 32-batch worker, two rounds,
    where 32 + 5 on the first two workers takes one round each."""
    workers = tuple(WorkerSpec(f"nano-{i}", "nano", NodeState(0.05, 0.0, 0.2), (), b, b,
                               per_sample_transfer_cost={STORE: 0.001})
                    for i, b in enumerate((32, 2, 8)))
    cluster = ClusterSpec(workers, NodeState(0.1, 0.0, 0.3), (STORE,))
    job = JobSpec(37, 1, STORE)
    plan = solve(cluster, job)
    assert [(a.worker_id, a.num_samples) for a in plan.assignments] == [("nano-0", 37)]
    assert simulate(cluster, job, plan).makespan == pytest.approx(10.895, abs=1e-3)
    pair = solve(replace(cluster, workers=workers[:2]), job)
    assert [(a.worker_id, a.num_samples) for a in pair.assignments] == [("nano-0", 32),
                                                                         ("nano-1", 5)]
    assert simulate(cluster, job, pair).makespan == pytest.approx(5.461, abs=1e-3)


def _oracle_tables(rng, random_fitted_registry, count: int) -> list:
    """``count`` solver tables ``(b, r, owner, rate, init, job)``, their
    update times priced for all their workers. Three in four come from
    random clusters of 1-8 workers with ``b_min`` up to 8, every third with
    each worker copied (ties), on a fitted registry drawn at random every 25
    tables (non-monotone round times) or, every fourth, the default one.
    The rest are drawn directly: any ascending batches up to 64 per worker,
    with round times at random."""
    tables = []
    while len(tables) < count:
        if len(tables) % 25 == 0:
            fitted = random_fitted_registry(rng)
        job = JobSpec(int(rng.integers(1, 3000)), int(rng.integers(1, 4)), STORE)
        if len(tables) % 4 == 3:
            b, r, owner = [], [], []
            for w in range(int(rng.integers(1, 12))):
                batches = np.unique(rng.integers(1, 65, size=int(rng.integers(1, 9))))
                b += batches.tolist()
                r += rng.uniform(0.05, 3.0, batches.size).tolist()
                owner += [w] * batches.size
            n = owner[-1] + 1
            tables.append((np.array(b), np.array(r), np.array(owner), rng.uniform(0.0, 0.01, n),
                           rng.uniform(0.0, 5.0, n), job))
            continue
        workers = []
        for i in range(int(rng.integers(1, 9))):
            b_min = int(rng.integers(1, 9))
            workers.append(WorkerSpec(
                f"w{i}", str(rng.choice(["tx2", "nano"])),
                NodeState(*(float(v) for v in rng.uniform(0.0, 0.4, 3))), (), b_min,
                b_min + int(rng.integers(0, 48)), init_cost=float(rng.uniform(0, 5)),
                per_sample_transfer_cost={STORE: float(rng.uniform(0, 0.005))}))
        if len(tables) % 3 == 0:
            workers += [replace(w, id=f"{w.id}-copy") for w in workers]
        registry = default_registry() if len(tables) % 4 == 0 else fitted
        tables_of = scheduler._Tables(ClusterSpec(tuple(workers), NodeState(0.1, 0.0, 0.3),
                                                  (STORE,)), registry, job)
        n = tables_of.workers.size
        if n:
            r = tables_of.b * tables_of.t_c + tables_of.update(n)
            tables.append((tables_of.b, r, tables_of.owner, tables_of.rate, tables_of.init, job))
    return tables


def _against_the_oracles(tables: list) -> int:
    """Asserts that ``_min_epoch`` and ``_split`` (its shards and each
    assigned worker's row) equal the oracles on every table; returns how many
    assigned workers' shards the rows kept by the row cut cannot finish by
    the lowest epoch, where all the worker's rows take part."""
    every_row = 0
    for b, r, owner, rate, init, job in tables:
        starts = owner.searchsorted(np.arange(len(rate)))
        epoch = scheduler._min_epoch(b, r, owner, starts, job.num_samples)
        assert epoch == min_epoch_by_the_wide_bracket(b, r, owner, starts, job.num_samples)
        shards, best = scheduler._split(b, r, owner, rate, init, job)
        want, want_best = split_over_every_row(b, r, owner, rate, init, job)
        assert shards.tolist() == want.tolist()
        assert best[shards > 0].tolist() == want_best[want > 0].tolist()
        caps = b * scheduler._rounds_within(epoch, r)
        full = np.maximum.reduceat(caps, starts)
        kept = caps >= (full - (full.sum() - job.num_samples))[owner]
        late = ~kept | (scheduler._epochs(shards[owner], b, r) > epoch)
        every_row += int((np.logical_and.reduceat(late, starts) & (shards > 0)).sum())
    return every_row


def test_min_epoch_and_split_against_the_every_row_oracles(random_fitted_registry):
    rng = np.random.default_rng(31)
    tables = _oracle_tables(rng, random_fitted_registry, 2000)
    assert _against_the_oracles(tables) > 0
    # the draw has ties, b_min above 1, non-monotone round times and workers
    # with no capacity at the lower end of the epoch bracket
    ties = non_monotone = b_min = idle = 0
    for b, r, owner, rate, _, job in tables:
        starts = owner.searchsorted(np.arange(len(rate)))
        ties += len({tuple(r[owner == i]) for i in range(len(rate))}) < len(rate)
        non_monotone += bool(((np.diff(r) < 0) & (np.diff(owner) == 0)).any())
        b_min += bool((b[starts] > 1).any())
        lo = job.num_samples / np.maximum.reduceat(b / r, starts).sum() * (1 - 1e-9)
        idle += bool((np.maximum.reduceat(b * scheduler._rounds_within(lo, r), starts) == 0)
                     .any())
    assert min(ties, non_monotone, b_min, idle) >= 50, (ties, non_monotone, b_min, idle)


def test_min_epoch_and_split_against_the_oracles_on_ladder_clusters(ladder_cluster):
    """The ladder clusters of 4 to 256 workers at 2,000x1, 3,855x4 and
    20,000x1, and the tail case of ``test_split_miss_end_to_end``."""
    tables = []
    for n in (4, 8, 16, 32, 64, 128, 256):
        for job in (JobSpec(2000, 1, STORE), JobSpec(3855, 4, STORE), JobSpec(20000, 1, STORE)):
            t = scheduler._Tables(ladder_cluster(n), default_registry(), job)
            r = t.b * t.t_c + t.update(t.workers.size)
            tables.append((t.b, r, t.owner, t.rate, t.init, job))
    workers = tuple(WorkerSpec(f"nano-{i}", "nano", NodeState(0.05, 0.0, 0.2), (), b, b,
                               per_sample_transfer_cost={STORE: 0.001})
                    for i, b in enumerate((32, 2, 8)))
    job = JobSpec(37, 1, STORE)
    t = scheduler._Tables(ClusterSpec(workers, NodeState(0.1, 0.0, 0.3), (STORE,)),
                          default_registry(), job)
    r = t.b * t.t_c + t.update(3)
    tables.append((t.b, r, t.owner, t.rate, t.init, job))
    # the tail: 32 + 2 + 8 is 5 over the job, and no shard can shrink
    assert split_over_every_row(*tables[-1])[0].tolist() == [37, 0, 0]
    assert _against_the_oracles(tables) >= 1


def test_min_epoch_halves_a_bracket_of_many_breakpoints_and_doubles_a_short_one(monkeypatch):
    """A fast worker whose every round is a breakpoint, beside a slow one
    whose rounds set the bracket: the bracket holds over ``_MAX_BREAKPOINTS``
    breakpoints and is halved first. And a job so large that two rounds past
    the count at ``lo`` fall short of it in floating point, so that the
    guard doubles ``hi``."""
    calls = []
    rounds_within = scheduler._rounds_within
    monkeypatch.setattr(scheduler, "_rounds_within",
                        lambda limit, r: calls.append(limit) or rounds_within(limit, r))
    b, r, owner = np.array([1, 2, 10**6]), np.array([1e-4, 1.5e-4, 100.0]), np.array([0, 0, 1])
    starts = np.array([0, 2])
    for M in (10**6 + 12_345, 3 * 10**6 + 1, 7_654_321):
        calls.clear()
        assert (scheduler._min_epoch(b, r, owner, starts, M)
                == min_epoch_by_the_wide_bracket(b, r, owner, starts, M))
        # lo, hi, and each halving's midpoint, all below hi (no doubling)
        assert len(calls) > 2 and max(calls) == calls[1]
    b, r, owner, starts = np.array([1]), np.array([1.0]), np.array([0]), np.array([0])
    M = 2 * 10**10
    lo = M / 1.0 * (1 - 1e-9)
    assert (rounds_within(lo, r)[0] + 2) * b[0] < M
    calls.clear()
    assert scheduler._min_epoch(b, r, owner, starts, M) == float(M)
    assert float(M) == min_epoch_by_the_wide_bracket(b, r, owner, starts, M)
    assert max(calls) > M


def test_solve_never_splits_below_the_minimum_batch():
    # either worker can take 2 samples in a round, but a 2/1 split is not
    # allowed, so one worker runs all 3
    workers = tuple(WorkerSpec(id=f"w{i}", device_class="flat",
                               initial_state=NodeState(0, 0, 0), b_min=2, b_max=2,
                               per_sample_transfer_cost={STORE: 0.0})
                    for i in range(2))
    cluster = ClusterSpec(workers=workers, ps_state=NodeState(0, 0, 0),
                          data_stores=(STORE,))
    job = JobSpec(num_samples=3, num_epoch=1, source_store=STORE)
    plan = solve(cluster, job, flat_registry())
    assert [(a.num_samples, a.batch_size) for a in plan.assignments] == [(3, 2)]


def test_solve_removes_worker_whose_minimum_batch_exceeds_the_job():
    big = WorkerSpec(id="big", device_class="flat", initial_state=NodeState(0, 0, 0),
                     b_min=50, b_max=60, per_sample_transfer_cost={STORE: 0.0})
    cluster = ClusterSpec(workers=(flat_worker("ok"), big),
                          ps_state=NodeState(0, 0, 0), data_stores=(STORE,))
    job = JobSpec(num_samples=20, num_epoch=1, source_store=STORE)
    plan = solve(cluster, job, flat_registry())
    assert [(a.worker_id, a.num_samples) for a in plan.assignments] == [("ok", 20)]
    assert [(r.worker_id, r.reason) for r in plan.removed] == [("big", "pressure")]
    with pytest.raises(InfeasibleScheduleError, match="big"):
        solve(replace(cluster, workers=(big,)), job, flat_registry())


# --- fairness --------------------------------------------------------------


def test_fairness_equal_split_remainder_to_low_ids():
    cluster = default_testbed()
    job = JobSpec(num_samples=3855, num_epoch=2, source_store=STORE)
    plan = fairness_plan(cluster, job)
    shards = {a.worker_id: a.num_samples for a in plan.assignments}
    assert shards == {"nano-0": 964, "nano-1": 964, "nano-2": 964, "tx2-0": 963}


def test_fairness_plan_has_no_audit():
    # it searches nothing, so its document has no audit to write or read back
    plan = fairness_plan(default_testbed(), JobSpec(num_samples=3855, num_epoch=2,
                                                    source_store=STORE))
    assert plan.audit is None
    assert "audit" not in plan_to_doc(plan)
    assert plan_from_doc(plan_to_doc(plan)) == plan


def test_fairness_matches_solve_on_homogeneous_idle_cluster():
    workers = tuple(flat_worker(f"w{i}", b_max=8) for i in range(4))
    cluster = ClusterSpec(workers=workers, ps_state=NodeState(0, 0, 0),
                          data_stores=(STORE,))
    job = JobSpec(num_samples=400, num_epoch=1, source_store=STORE)
    reg = flat_registry()
    fair = fairness_plan(cluster, job, reg)
    smart = solve(cluster, job, reg)
    assert ({a.worker_id: a.num_samples for a in fair.assignments}
            == {a.worker_id: a.num_samples for a in smart.assignments})


def test_fairness_never_beats_solve_on_heterogeneous_cluster():
    cluster = default_testbed()
    job = JobSpec(num_samples=2000, num_epoch=2, source_store=STORE)
    fair = fairness_plan(cluster, job)
    smart = solve(cluster, job)
    assert smart.epoch_time <= fair.epoch_time


def test_fairness_ignores_pressure():
    cluster = default_testbed(stressed=True)
    job = JobSpec(num_samples=1000, num_epoch=1, source_store=STORE)
    plan = fairness_plan(cluster, job)
    assert len(plan.assignments) == 4  # the loaded worker stays in


def test_fairness_refuses_a_shard_below_b_min():
    testbed = default_testbed()
    cluster = replace(testbed, workers=tuple(replace(w, b_min=4) for w in testbed.workers))
    # six samples over four workers give shards of 2, 2, 1 and 1
    with pytest.raises(InfeasibleScheduleError, match=re.escape(
            "worker 'nano-0': an equal shard of 2 samples is below its b_min of 4")):
        fairness_plan(cluster, JobSpec(num_samples=6, num_epoch=1, source_store=STORE))
    plan = fairness_plan(cluster, JobSpec(num_samples=16, num_epoch=1, source_store=STORE))
    assert [a.batch_size for a in plan.assignments] == [4, 4, 4, 4]


def test_fairness_refuses_a_worker_with_no_batch_in_memory():
    testbed = default_testbed()
    full = replace(testbed.workers[1], initial_state=NodeState(0.05, 0.0, 0.9))
    cluster = replace(testbed, workers=(testbed.workers[0], full) + testbed.workers[2:])
    assert bundle_for(default_registry(), "nano").max_batch_size(full.initial_state, 1, 16) == 0
    with pytest.raises(InfeasibleScheduleError, match=re.escape(
            "worker 'nano-0': no batch in [1, 16] keeps projected memory under 0.95")):
        fairness_plan(cluster, JobSpec(num_samples=2000, num_epoch=1, source_store=STORE))


# --- cost model ------------------------------------------------------------


def test_total_cost_formula():
    cluster = one_worker_cluster(b_max=10, init=5.0, transfer=0.001)
    job = JobSpec(num_samples=1000, num_epoch=2, source_store=STORE)
    plan = solve(cluster, job, flat_registry(base_forward=1.0))
    a = plan.assignments[0]
    assert a.epoch_time == pytest.approx(100.0 * 10)  # 100 rounds of batch 10
    # scale to the worked figures: transfer 1, init 5, epoch 100 over 2 epochs
    assert a.cost.transfer == pytest.approx(1.0)
    assert a.cost.init == pytest.approx(5.0)
    scaled = a.cost.transfer + a.cost.init + 100.0 * job.num_epoch
    assert scaled == pytest.approx(206.0)
    assert plan.total_cost == pytest.approx(a.cost.total)


def test_total_cost_zero_overheads_is_epoch_times_epochs():
    cluster = one_worker_cluster(b_max=16)
    job = JobSpec(num_samples=320, num_epoch=3, source_store=STORE)
    plan = solve(cluster, job, flat_registry())
    assert plan.total_cost == pytest.approx(plan.epoch_time * 3)


def test_total_cost_is_max_over_workers():
    cluster = default_testbed()
    job = JobSpec(num_samples=2000, num_epoch=2, source_store=STORE)
    plan = solve(cluster, job)
    assert plan.total_cost == pytest.approx(max(a.cost.total for a in plan.assignments))
    fair = fairness_plan(cluster, job)
    assert fair.total_cost == max(a.cost.total for a in fair.assignments)


def test_every_assignment_is_priced_by_the_cost_model():
    """Each assignment of both planners carries exactly the epoch time, costs
    and per-sample time the cost model gives for its shard and batch, and the
    plan's total cost is the largest of its workers'."""
    rng = np.random.default_rng(41)
    reg = default_registry()
    done = 0
    while done < 40:
        cluster = random_feasible_cluster(rng, max_workers=24)
        job = JobSpec(num_samples=int(rng.integers(50, 3000)),
                      num_epoch=int(rng.integers(1, 4)), source_store=STORE)
        try:
            plans = (solve(cluster, job, reg), fairness_plan(cluster, job, reg))
        except InfeasibleScheduleError:
            continue
        done += 1
        workers = {w.id: w for w in cluster.workers}
        for plan in plans:
            for a in plan.assignments:
                w, cost = workers[a.worker_id], a.cost
                d, b, t_c, t_u = a.num_samples, a.batch_size, a.t_compute, a.t_update
                assert a.epoch_time == epoch_time(d, b, t_c, t_u)
                assert cost.transfer == w.per_sample_transfer_cost[STORE] * d
                assert cost.init == w.init_cost
                assert cost.train == a.epoch_time * job.num_epoch
                assert cost.total == cost.transfer + cost.init + cost.train
                assert a.t_total == t_c + t_u / b
            assert plan.total_cost == max(a.cost.total for a in plan.assignments)


# --- plan documents ----------------------------------------------------------


def test_plan_round_trip(tmp_path):
    cluster = default_testbed(stressed=True)
    job = JobSpec(num_samples=2000, num_epoch=2, source_store=STORE)
    plan = solve(cluster, job)
    path = tmp_path / "plan.json"
    save(plan, path)
    assert plan_from_doc(load_doc(path)) == plan


@pytest.mark.parametrize("path", [
    *(("assignments", 0, "cost", key) for key in ("transfer", "init", "train", "total")),
    *(("audit", key) for key in ("iterations", "candidates_considered")),
])
def test_plan_doc_missing_field_is_named(path):
    doc = plan_to_doc(solve(default_testbed(), JobSpec(num_samples=100, num_epoch=1,
                                                       source_store=STORE)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    name = "plan" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    with pytest.raises(ValidationError, match=re.escape(f"{name}: missing")):
        plan_from_doc(doc)


def test_plan_doc_rejects_unknown_fields():
    cluster = default_testbed()
    job = JobSpec(num_samples=100, num_epoch=1, source_store=STORE)
    doc = plan_to_doc(solve(cluster, job))
    doc["surprise"] = 1
    with pytest.raises(Exception, match="surprise"):
        plan_from_doc(doc)


def test_plan_doc_with_the_old_audit_is_refused():
    # plans once carried the proportional shares and per-sample times in the audit
    plan = solve(default_testbed(), JobSpec(num_samples=100, num_epoch=1, source_store=STORE))
    doc = plan_to_doc(plan)
    doc["audit"]["shares"] = {a.worker_id: float(a.num_samples) for a in plan.assignments}
    with pytest.raises(ValidationError, match=re.escape("plan.audit: unknown field 'shares'")):
        plan_from_doc(doc)


# --- estimator tables --------------------------------------------------------


def _bench_workers(rng, registry, n: int) -> list:
    """``n`` workers cycling through the testbed's (one tx2, three nano) with
    random states, each with a deadline met by some batch sizes and missed by
    others wherever exec time varies."""
    workers = []
    for k in range(n):
        w = default_testbed().workers[k % 4]
        state = NodeState(*(float(v) for v in rng.uniform(0.0, 0.6, 3)))
        bundle = bundle_for(registry, w.device_class)
        deadline = bundle.est_exec_time(bundle.est_state(state, int(rng.integers(1, 17))))
        workers.append(replace(w, id=f"{w.id}-{k}", initial_state=state,
                               background_apps=(BackgroundApp("bg", deadline),)))
    return workers


@pytest.mark.parametrize("kind", ["parametric", "fitted"])
def test_tables_match_scalar_calls(kind, random_fitted_registry):
    rng = np.random.default_rng(21)
    registry = default_registry() if kind == "parametric" else random_fitted_registry(rng)
    job = JobSpec(num_samples=50, num_epoch=1, source_store=STORE)
    ps = NodeState(0.2, 0.0, 0.3)
    # the testbed's four workers, then 26 with the classes interleaved at random
    for n_workers in [4] * 5 + [26] * 5:
        workers = _bench_workers(rng, registry, n_workers)
        if n_workers > 4:
            workers = [workers[i] for i in rng.permutation(n_workers)]
        cluster = ClusterSpec(tuple(workers), ps, (STORE,))
        tables = scheduler._Tables(cluster, registry, job)
        t_u = tables.update(3)
        table_workers = tables.workers.tolist()
        failed = dict(zip(tables.failed.tolist(), tables.at_cap.tolist()))
        for i, w in enumerate(workers):
            bundle = bundle_for(registry, w.device_class)
            # the batches a shard could run, and those that fit in memory
            top = min(w.b_max, job.num_samples)
            fitting = [b for b in range(w.b_min, top + 1)
                       if bundle.est_state(w.initial_state, b).mem_util <= MEM_CEILING]
            cap = max(fitting, default=0)
            assert tables.cap[i] == cap == bundle.max_batch_size(w.initial_state, w.b_min, top)
            if not cap:
                continue
            ok_at_cap, at_cap, _ = check_pressure(w, bundle, cap)
            assert (i in failed) == (not ok_at_cap)
            if not ok_at_cap:
                assert failed[i] == at_cap
                continue
            verdicts = [check_pressure(w, bundle, b) for b in fitting]
            mask, exec_times, _ = check_pressure(w, bundle, np.array(fitting))
            assert mask.tolist() == [ok for ok, _, _ in verdicts]
            assert exec_times.tolist() == [t for _, t, _ in verdicts]
            # a worker passing at its cap keeps at least that row
            passing = [b for b, (ok, _, _) in zip(fitting, verdicts) if ok]
            assert passing[-1] == cap
            rows = tables.owner == table_workers.index(i)
            bs = tables.b[rows].tolist()
            assert bs == passing
            assert tables.t_c[rows].tolist() == [bundle.est_compute_time(w.initial_state, b)
                                                 for b in bs]
            assert t_u[rows].tolist() == [bundle.est_update_time(w.initial_state, b, ps, 3)
                                          for b in bs]
            # the service time simulate queues for the worker at each batch
            assert tables.service[rows].tolist() == [
                bundle.update_components(w.initial_state, b, ps)[1] for b in bs]


def _counted_calls(monkeypatch) -> dict:
    """EstimatorBundle method name -> calls made while the test runs."""
    calls: dict = {}
    for name in ("est_compute_time", "est_update_time", "update_components", "est_state",
                 "est_exec_time", "max_batch_size"):
        method = getattr(EstimatorBundle, name)

        def counted(*args, _method=method, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(EstimatorBundle, name, counted)
    return calls


def test_estimator_calls_per_solve_grow_only_with_the_splits(monkeypatch):
    def cluster_of(n):
        """A lightly loaded cluster, a quarter tx2, every worker with a deadline."""
        rng = np.random.default_rng(0)
        workers = []
        for k in range(n):
            device = "tx2" if k % 4 == 0 else "nano"
            workers.append(WorkerSpec(
                id=f"{device}-{k:03d}", device_class=device,
                initial_state=NodeState(*(float(v) for v in rng.uniform(0.0, 0.3, 3))),
                background_apps=(BackgroundApp("bg", 0.2),), b_min=1,
                b_max=64 if device == "tx2" else 16, init_cost=5.0,
                per_sample_transfer_cost={STORE: 0.001}))
        return ClusterSpec(tuple(workers), NodeState(0.1, 0.0, 0.3), (STORE,))

    job = JobSpec(num_samples=6000, num_epoch=1, source_store=STORE)
    tables = []
    for n in (64, 128, 256):
        calls = _counted_calls(monkeypatch)
        plan = solve(cluster_of(n), job)
        monkeypatch.undo()
        splits, candidates = plan.audit.iterations, plan.audit.candidates_considered
        # the server binds, so the worker count is bisected: splits grow
        # with its logarithm
        assert len(plan.assignments) < n
        assert candidates <= splits <= math.log2(n) + 2
        # per device class, update times once per split and service times
        # once per solve, whatever the number of candidates
        assert calls.pop("est_update_time") == 2 * splits
        assert calls.pop("update_components") == 2
        tables.append(calls)
    # the tables take one call per class and target, whatever the worker count
    assert tables[0] == tables[1] == tables[2]


@pytest.mark.parametrize("kind", ["parametric", "fitted"])
def test_tables_project_each_row_once(kind, monkeypatch, ladder_cluster, random_fitted_registry):
    registry = (default_registry() if kind == "parametric"
                else random_fitted_registry(np.random.default_rng(3)))
    seen = []  # the batch points of each est_state call
    calls = _counted_calls(monkeypatch)
    est_state = EstimatorBundle.est_state

    def counted(self, state, batch_size):
        seen.append(np.size(batch_size))
        return est_state(self, state, batch_size)
    monkeypatch.setattr(EstimatorBundle, "est_state", counted)
    wide = ladder_cluster(64)
    # four workers whose b_max is far above a job of several slices
    deep = replace(wide, workers=tuple(replace(w, b_max=10 ** 9) for w in wide.workers[:4]))
    for cluster, job in ((wide, JobSpec(2000, 1, STORE)), (deep, JobSpec(30_000, 1, STORE))):
        seen.clear()
        tables = scheduler._Tables(cluster, registry, job)
        rows = sum(max(min(w.b_max, job.num_samples) - w.b_min + 1, 0) for w in cluster.workers)
        assert sum(seen) == rows
        assert max(seen) <= scheduler._SLICE_ROWS
        assert tables.workers.size
        solve(cluster, job, registry)
    assert len(seen) > 4
    assert "max_batch_size" not in calls
