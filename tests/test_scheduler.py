import math
import re
from dataclasses import replace

import numpy as np
import pytest

from deepedge import scheduler
from deepedge import (BackgroundApp, ClusterSpec, EstimatorBundle,
                      InfeasibleScheduleError, JobSpec, NodeState,
                      ParametricProfile, WorkerSpec, bundle_for, check_pressure,
                      default_registry, default_testbed, epoch_time,
                      fairness_plan, largest_remainder,
                      load_plan, plan_from_doc, plan_to_doc, save_plan, solve,
                      total_cost, ValidationError)

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
    ok, pressures = check_pressure(w, flat_registry()["flat"], 8)
    assert ok and pressures == {}


def test_pressure_zero_batch_is_trivially_eligible():
    w = flat_worker(apps=(BackgroundApp(id="a", deadline=0.001),))
    ok, pressures = check_pressure(w, flat_registry()["flat"], 0)
    assert ok and pressures == {}


def test_pressure_tight_deadline_fails():
    reg = default_registry()
    nano = bundle_for(reg, "nano")
    w = WorkerSpec(id="n", device_class="nano",
                   initial_state=NodeState(0.55, 0.65, 0.45),
                   background_apps=(BackgroundApp(id="cam", deadline=0.2),),
                   b_min=1, b_max=16, per_sample_transfer_cost={STORE: 0.0})
    ok, pressures = check_pressure(w, nano, 1)
    assert not ok
    assert pressures["cam"] > 0.2


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
    epoch = cost = 0.0
    for wid, d in shards.items():
        w = cluster.worker(wid)
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
        for a in plan.assignments:
            w = cluster.worker(a.worker_id)
            assert w.b_min <= a.batch_size <= min(w.b_max, a.num_samples)
            bundle = bundle_for(reg, w.device_class)
            ok, _ = check_pressure(w, bundle, a.batch_size)
            assert ok
            assert a.num_samples >= 1
        # every removal carries an explanation
        for r in plan.removed:
            assert r.reason in ("pressure", "slowest")
            assert r.detail


def test_solve_checks_pressure_at_the_memory_capped_batch():
    # the deadline holds at small batches but not at the largest batch the
    # memory allows, and that batch is where the check is made
    reg = default_registry()
    nano = bundle_for(reg, "nano")
    w = WorkerSpec(id="nano-x", device_class="nano", initial_state=NodeState(0.2, 0.2, 0.2),
                   background_apps=(BackgroundApp(id="cam", deadline=0.178),),
                   b_min=1, b_max=64, per_sample_transfer_cost={STORE: 0.0})
    cap = nano.max_batch_size(0.2, 1, 64)
    assert check_pressure(w, nano, 1)[0] and not check_pressure(w, nano, cap)[0]
    testbed = default_testbed()
    cluster = replace(testbed, workers=testbed.workers + (w,))
    plan = solve(cluster, JobSpec(num_samples=2000, num_epoch=2, source_store=STORE), reg)
    assert "nano-x" not in plan.shares()
    [removal] = [r for r in plan.removed if r.worker_id == "nano-x"]
    assert removal.reason == "pressure"
    assert removal.detail.endswith(f"with batch {cap}")


def test_audit_counts_splits_and_holds_the_proportional_shares():
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
        assert audit.t_total == {a.worker_id: a.t_total for a in plan.assignments}
        assert sum(audit.shares.values()) == pytest.approx(job.num_samples)


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
        t = plan.audit.t_total
        rounded = largest_remainder(plan.audit.shares, job.num_samples, t)
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
    assert plan.shares() == {"ok": 20}
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
    assert total_cost(plan.assignments) == pytest.approx(plan.total_cost)


def test_candidates_are_priced_as_their_assignments():
    """The solver ranks candidate splits by prices computed as arrays, and
    builds the winner's assignments with scalar ones: both must agree."""
    rng = np.random.default_rng(41)
    reg = default_registry()
    done = 0
    while done < 40:
        cluster = random_feasible_cluster(rng, max_workers=24)
        job = JobSpec(num_samples=int(rng.integers(50, 3000)),
                      num_epoch=int(rng.integers(1, 4)), source_store=STORE)
        fleet = scheduler._Fleet(cluster, reg, STORE)
        tables = scheduler._Tables(fleet, job, fleet.max_batch_sizes(0.95), cluster.ps_state)
        if not tables.workers.size:
            continue
        done += 1
        split, _, _ = scheduler._assign(np.ones(tables.workers.size, dtype=bool), tables, job)
        priced = zip(split.epoch.tolist(), split.cost.tolist(), split.t_total.tolist())
        for a, (epoch, cost, t_total) in zip(split.assignments(cluster.workers, job), priced):
            assert (a.epoch_time, a.cost.total, a.t_total) == (epoch, cost, t_total)
            assert a.epoch_time == epoch_time(a.num_samples, a.batch_size, a.t_compute,
                                              a.t_update)


# --- plan documents ----------------------------------------------------------


def test_plan_round_trip(tmp_path):
    cluster = default_testbed(stressed=True)
    job = JobSpec(num_samples=2000, num_epoch=2, source_store=STORE)
    plan = solve(cluster, job)
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    assert load_plan(path) == plan


@pytest.mark.parametrize("path", [
    *(("assignments", 0, "cost", key) for key in ("transfer", "init", "train", "total")),
    *(("audit", key) for key in ("iterations", "shares", "t_total")),
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
        fleet = scheduler._Fleet(cluster, registry, STORE)
        maxbatch = fleet.max_batch_sizes(0.95)
        tables = scheduler._Tables(fleet, job, maxbatch, ps)
        t_u = tables.update(3)
        table_workers = tables.workers.tolist()
        failed = dict(zip(tables.failed.tolist(), tables.at_cap.tolist()))
        for i, w in enumerate(workers):
            bundle = bundle_for(registry, w.device_class)
            cap = bundle.max_batch_size(w.initial_state.mem_util, w.b_min, w.b_max)
            assert maxbatch[i] == cap
            if not cap:
                continue
            ok_at_cap, at_cap = check_pressure(w, bundle, cap)
            assert (i in failed) == (not ok_at_cap)
            if not ok_at_cap:
                assert failed[i] == at_cap["bg"]
                continue
            batches = range(w.b_min, min(cap, job.num_samples) + 1)
            verdicts = [check_pressure(w, bundle, b) for b in batches]
            mask, exec_times = check_pressure(w, bundle, np.array(batches))
            assert mask.tolist() == [ok for ok, _ in verdicts]
            assert exec_times["bg"].tolist() == [t["bg"] for _, t in verdicts]
            passing = [b for b, (ok, _) in zip(batches, verdicts) if ok]
            assert (i in tables.empty.tolist()) == (not passing)
            if not passing:
                continue
            rows = tables.owner == table_workers.index(i)
            bs = tables.b[rows].tolist()
            assert bs == passing
            assert tables.t_c[rows].tolist() == [bundle.est_compute_time(w.initial_state, b)
                                                 for b in bs]
            assert t_u[rows].tolist() == [bundle.est_update_time(w.initial_state, b, ps, 3)
                                          for b in bs]


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


def test_estimator_calls_per_solve_do_not_grow_with_the_cluster(monkeypatch):
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
    counts = []
    for n in (64, 128):
        calls = _counted_calls(monkeypatch)
        plan = solve(cluster_of(n), job)
        monkeypatch.undo()
        # every worker is assigned, after the same number of splits and candidates
        assert len(plan.assignments) == n
        assert (plan.audit.iterations, plan.audit.candidates_considered) == (2, 2)
        counts.append(calls)
    assert counts[0] == counts[1]
