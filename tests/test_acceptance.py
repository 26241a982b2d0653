"""Acceptance suite: nine gating checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each check pins its tolerance inline; the near-optimality check (number 4)
reports the distribution of its gaps to the exhaustive optimum. Check 3
holds the balance envelope only to the proportional split it derives from
the plan's assignments (the samples divided by inverse per-sample time at
each assigned worker's batch): epoch time bills whole rounds, so the best
integer split often lies outside it, and check 3 asserts instead that no
integer split over a plan's workers ends the epoch sooner.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from deepedge import (BackgroundApp, ClusterSpec, CrashEvent, EstimatorBundle,
                      InfeasibleScheduleError, JobPhase, JobSpec, NodeState,
                      ParametricProfile, SimConfig, WorkerSpec, bench,
                      bundle_for, check_pressure, default_registry,
                      default_testbed, epoch_time, fit_all, refine_num_epoch,
                      run_job, run_sweep, simulate, solve, reference_grid,
                      validate_transitions)

from conftest import largest_remainder, proportional_split, simulate_accuracy

STORE = "store-0"


def verdict(number, label, ok, extra=""):
    state = "PASS" if ok else "FAIL"
    suffix = f"  [{extra}]" if extra else ""
    print(f"\ncriterion {number} ({label}): {state}{suffix}")
    return ok


# --- 1. estimator calibration ---------------------------------------------------


def test_criterion_1_step_time_calibration():
    reg = default_registry()
    idle = NodeState(0.0, 0.0, 0.0)
    tx2 = 16 * bundle_for(reg, "tx2").est_compute_time(idle, 16)
    nano = 16 * bundle_for(reg, "nano").est_compute_time(idle, 16)
    ok = abs(tx2 - 1.89) / 1.89 <= 0.01 and abs(nano - 2.69) / 2.69 <= 0.01
    assert verdict(1, "step-time calibration", ok,
                   f"tx2 {tx2:.4f} s, nano {nano:.4f} s")


# --- 2. monotonicity suite -------------------------------------------------------


def random_profile(rng):
    return ParametricProfile(
        base_forward=float(rng.uniform(0.01, 0.5)),
        base_backward=float(rng.uniform(0.0, 1.0)),
        cpu_slope=float(rng.uniform(0.0, 1.0)),
        gpu_slope=float(rng.uniform(0.0, 1.0)),
        base_push=float(rng.uniform(0.0, 0.3)),
        base_pull=float(rng.uniform(0.0, 0.3)),
        ps_update=float(rng.uniform(0.01, 0.5)),
        ps_cpu_slope=float(rng.uniform(0.0, 1.0)),
        contention_slope=float(rng.uniform(0.0, 0.05)),
        batch_update_coef=float(rng.uniform(0.0, 4.0)),
        base_mem_footprint=float(rng.uniform(0.0, 0.4)),
        mem_per_batch_unit=float(rng.uniform(0.0, 0.02)),
        cpu_pressure=float(rng.uniform(0.0, 0.5)),
        gpu_pressure=float(rng.uniform(0.0, 0.5)),
        bg_base_exec=float(rng.uniform(0.01, 0.5)),
        bg_cpu_slope=float(rng.uniform(0.0, 1.0)),
        bg_gpu_slope=float(rng.uniform(0.0, 1.0)),
        bg_mem_slope=float(rng.uniform(0.0, 1.0)),
    )


def test_criterion_2_monotonicity_suite():
    rng = np.random.default_rng(2026)
    cases_per_bullet = 1000
    defaults = default_registry()
    failures = []

    def bundle_and_state():
        if rng.random() < 0.4:
            b = bundle_for(defaults, str(rng.choice(["tx2", "nano"])))
        else:
            b = EstimatorBundle(device_class="r", profile=random_profile(rng))
        state = NodeState(*(float(v) for v in rng.uniform(0, 1, 3)))
        return b, state

    for case in range(cases_per_bullet):
        bundle, state = bundle_and_state()
        batch = int(rng.integers(1, 128))
        lo, hi = sorted(rng.uniform(0, 1, 2))

        up_cpu = replace(state, cpu_util=float(hi))
        dn_cpu = replace(state, cpu_util=float(lo))
        if bundle.est_compute_time(up_cpu, batch) < bundle.est_compute_time(dn_cpu, batch):
            failures.append(("compute vs cpu", case))

        up_gpu = replace(state, gpu_util=float(hi))
        dn_gpu = replace(state, gpu_util=float(lo))
        if bundle.est_compute_time(up_gpu, batch) < bundle.est_compute_time(dn_gpu, batch):
            failures.append(("compute vs gpu", case))

        b_lo = int(rng.integers(1, 64))
        b_hi = b_lo + int(rng.integers(1, 64))
        if bundle.est_compute_time(state, b_hi) > bundle.est_compute_time(state, b_lo):
            failures.append(("compute vs batch", case))
        if bundle.est_state(state, b_hi).mem_util < bundle.est_state(state, b_lo).mem_util:
            failures.append(("memory vs batch", case))

        ps = NodeState(float(rng.uniform(0, 1)), 0.0, float(rng.uniform(0, 1)))
        n_lo = int(rng.integers(1, 8))
        n_hi = n_lo + int(rng.integers(1, 8))
        if (bundle.est_update_time(state, batch, ps, n_hi)
                < bundle.est_update_time(state, batch, ps, n_lo)):
            failures.append(("update vs workers", case))

        ps_lo = replace(ps, cpu_util=float(lo))
        ps_hi = replace(ps, cpu_util=float(hi))
        if (bundle.est_update_time(state, batch, ps_hi, n_lo)
                < bundle.est_update_time(state, batch, ps_lo, n_lo)):
            failures.append(("update vs ps cpu", case))

        if (bundle.est_update_time(state, b_hi, ps, n_lo)
                > bundle.est_update_time(state, b_lo, ps, n_lo)):
            failures.append(("update vs own batch", case))

    ok = not failures
    assert verdict(2, "estimator monotonicity", ok,
                   f"{cases_per_bullet} cases per direction, "
                   f"{len(failures)} counterexamples"), failures[:5]


# --- 3. conservation and balance -----------------------------------------------


def random_cluster(rng, max_workers=5):
    n = int(rng.integers(1, max_workers + 1))
    workers = []
    for i in range(n):
        apps = ()
        if rng.random() < 0.4:
            apps = (BackgroundApp(id="bg", deadline=float(rng.uniform(0.15, 0.5))),)
        b_min = int(rng.integers(1, 3))
        workers.append(WorkerSpec(
            id=f"w{i}", device_class=str(rng.choice(["tx2", "nano"])),
            initial_state=NodeState(float(rng.uniform(0, 0.5)),
                                    float(rng.uniform(0, 0.4)),
                                    float(rng.uniform(0, 0.4))),
            background_apps=apps, b_min=b_min,
            b_max=b_min + int(rng.integers(1, 64)),
            init_cost=float(rng.uniform(0, 5)),
            per_sample_transfer_cost={STORE: float(rng.uniform(0, 0.005))}))
    ps = NodeState(float(rng.uniform(0, 0.5)), 0.0, float(rng.uniform(0, 0.4)))
    return ClusterSpec(workers=tuple(workers), ps_state=ps, data_stores=(STORE,))


def test_criterion_3_conservation_and_balance(samples_done_sooner):
    rng = np.random.default_rng(33)
    reg = default_registry()
    checked = 0
    bad = []
    while checked < 500:
        cluster = random_cluster(rng)
        job = JobSpec(num_samples=int(rng.integers(50, 3000)),
                      num_epoch=int(rng.integers(1, 4)), source_store=STORE)
        try:
            plan = solve(cluster, job, reg)
        except InfeasibleScheduleError:
            continue
        checked += 1
        if plan.num_samples != job.num_samples:
            bad.append(("conservation", checked))
            continue
        # the proportional stage keeps the envelope; the integer split may not
        t, shares = proportional_split(plan, job.num_samples)
        rounded = largest_remainder(shares, job.num_samples, t)
        products = [d * t[wid] for wid, d in rounded.items()]
        slack = max(t.values())
        if max(products) - min(products) > slack * (1 + 1e-9) + 1e-9:
            bad.append(("balance", checked))
        if samples_done_sooner(plan, cluster, reg) >= job.num_samples:
            bad.append(("epoch", checked))
    ok = not bad
    assert verdict(3, "shard conservation and balance", ok,
                   f"{checked} feasible clusters"), bad[:5]


# --- 4. brute-force near-optimality ----------------------------------------------


def enumerate_optimum(cluster, job, registry):
    """Exhaustive best predicted epoch time over every shard/batch split."""
    M = job.num_samples
    per_worker = []
    for w in cluster.workers:
        bundle = bundle_for(registry, w.device_class)
        top = bundle.max_batch_size(w.initial_state, w.b_min, w.b_max)
        feasible = [b for b in range(w.b_min, top + 1)
                    if check_pressure(w, bundle, b)[0]]
        per_worker.append((w, bundle, feasible))

    n_workers = len(per_worker)
    INF = float("inf")
    # best[i][n][d]: best epoch for worker i holding d samples among n active
    best = []
    for w, bundle, feasible in per_worker:
        by_n = {}
        for n in range(1, n_workers + 1):
            times = [(b, bundle.est_compute_time(w.initial_state, b),
                      bundle.est_update_time(w.initial_state, b,
                                             cluster.ps_state, n))
                     for b in feasible]
            row = [INF] * (M + 1)
            row[0] = 0.0
            for d in range(1, M + 1):
                lo = INF
                for b, t_c, t_u in times:
                    if b > d:
                        break
                    e = epoch_time(d, b, t_c, t_u)
                    if e < lo:
                        lo = e
                row[d] = lo
            by_n[n] = row
        best.append(by_n)

    def optimum():
        result = INF
        if n_workers == 1:
            return best[0][1][M]
        if n_workers == 2:
            for d0 in range(M + 1):
                d1 = M - d0
                n = (d0 > 0) + (d1 > 0)
                e = max(best[0][n][d0], best[1][n][d1])
                result = min(result, e)
            return result
        for d0 in range(M + 1):
            for d1 in range(M - d0 + 1):
                d2 = M - d0 - d1
                n = (d0 > 0) + (d1 > 0) + (d2 > 0)
                e = max(best[0][n][d0], best[1][n][d1], best[2][n][d2])
                result = min(result, e)
        return result

    return optimum()


def small_random_cluster(rng):
    n = int(rng.integers(1, 4))
    workers = []
    for i in range(n):
        apps = ()
        if rng.random() < 0.3:
            apps = (BackgroundApp(id="bg", deadline=float(rng.uniform(0.12, 0.3))),)
        workers.append(WorkerSpec(
            id=f"w{i}", device_class=str(rng.choice(["tx2", "nano"])),
            initial_state=NodeState(float(rng.uniform(0, 0.5)),
                                    float(rng.uniform(0, 0.4)),
                                    float(rng.uniform(0, 0.4))),
            background_apps=apps, b_min=1, b_max=int(rng.integers(2, 65)),
            init_cost=float(rng.uniform(0, 5)),
            per_sample_transfer_cost={STORE: float(rng.uniform(0, 0.01))}))
    ps = NodeState(float(rng.uniform(0, 0.4)), 0.0, 0.3)
    return ClusterSpec(workers=tuple(workers), ps_state=ps, data_stores=(STORE,))


def test_criterion_4_brute_force_near_optimality():
    rng = np.random.default_rng(20260818)
    reg = default_registry()
    start = time.monotonic()
    gaps = []
    checked = 0
    while checked < 100:
        cluster = small_random_cluster(rng)
        job = JobSpec(num_samples=int(rng.integers(20, 61)),
                      num_epoch=int(rng.integers(1, 4)), source_store=STORE)
        try:
            plan = solve(cluster, job, reg)
        except InfeasibleScheduleError:
            continue
        checked += 1
        optimum = enumerate_optimum(cluster, job, reg)
        gaps.append((plan.epoch_time - optimum) / optimum)
    elapsed = time.monotonic() - start
    over = [g for g in gaps if g > 0.10]
    ok = not over
    detail = (f"{checked} instances in {elapsed:.1f} s, {len(over)} beyond 10%, "
              f"max gap {100 * max(gaps):.1f}%, mean {100 * np.mean(gaps):.1f}%")
    assert verdict(4, "near-optimality vs exhaustive search", ok, detail), (
        "some plans end their epoch more than 10% after the best split and "
        "worker subset found by enumeration; gap distribution: " + detail)


# --- 5. prediction vs simulation --------------------------------------------------


def test_criterion_5_prediction_simulation_consistency():
    prof = ParametricProfile(base_forward=0.4, base_backward=0.8, base_push=0.05,
                             base_pull=0.05, ps_update=0.1, batch_update_coef=1.0,
                             base_mem_footprint=0.1, mem_per_batch_unit=0.005)
    reg = {"flat": EstimatorBundle(device_class="flat", profile=prof)}
    w = WorkerSpec(id="w0", device_class="flat", initial_state=NodeState(0, 0, 0),
                   b_min=1, b_max=32, init_cost=0.0,
                   per_sample_transfer_cost={STORE: 0.0})
    cluster = ClusterSpec(workers=(w,), ps_state=NodeState(0, 0, 0),
                          data_stores=(STORE,))
    job = JobSpec(num_samples=500, num_epoch=3, source_store=STORE)
    plan = solve(cluster, job, reg)
    res = simulate(cluster, job, plan, reg, seed=0)
    predicted = plan.epoch_time * job.num_epoch
    single_rel = abs(res.makespan - predicted) / predicted

    testbed = default_testbed()
    tjob = JobSpec(num_samples=2000, num_epoch=2, source_store=STORE)
    tplan = solve(testbed, tjob)
    tres = simulate(testbed, tjob, tplan, seed=0)
    tpred = tplan.epoch_time * tjob.num_epoch
    multi_rel = abs(tres.makespan - tpred) / tpred

    ok = single_rel <= 1e-9 and multi_rel <= 0.05
    assert verdict(5, "prediction vs simulation", ok,
                   f"single worker {single_rel:.2e}, four workers "
                   f"{100 * multi_rel:.2f}%")


# --- 6. benchmark reproduction ----------------------------------------------------


def test_criterion_6_benchmark_speedup():
    report = bench(n_trials=120, seed=0)
    in_band = 1.2 <= report.mean_speedup <= 2.5
    clean = report.violations_heuristic == 0
    ok = in_band and clean
    assert verdict(6, "speedup over equal sharding", ok,
                   f"mean {report.mean_speedup:.3f}x, "
                   f"{100 * report.frac_speedup_ge_1_5:.0f}% of trials >= 1.5x "
                   f"(informational), heuristic violations "
                   f"{report.violations_heuristic}, fairness violations "
                   f"{report.violations_fairness}")


# --- 7. profiler fidelity ---------------------------------------------------------


def test_criterion_7_profiler_fidelity():
    reg = default_registry()
    worst_clean = 0.0
    worst_noisy = 0.0
    split_ok = True
    for dc in ("tx2", "nano"):
        bundle = bundle_for(reg, dc)
        clean = fit_all(run_sweep(bundle, reference_grid(dc), seed=0), seed=0)
        noisy = fit_all(run_sweep(bundle, reference_grid(dc, noise=0.05), seed=1),
                        seed=1)
        for report in clean.values():
            split_ok = split_ok and (report.n_train, report.n_test) == (1386, 264)
            worst_clean = max(worst_clean, report.model.test_mape)
        for report in noisy.values():
            worst_noisy = max(worst_noisy, report.model.test_mape)
    ok = worst_clean < 0.5 and worst_noisy <= 10.0 and split_ok
    assert verdict(7, "profiler fit fidelity", ok,
                   f"noiseless worst {worst_clean:.3f}%, "
                   f"5% noise worst {worst_noisy:.3f}%, split 1386/264")


# --- 8. fault tolerance -----------------------------------------------------------


def count_recovery_cycles(seq):
    pairs = 0
    for a, b in zip(seq, seq[1:]):
        if a is JobPhase.INTERRUPTED and b is JobPhase.RETRIGGERED:
            pairs += 1
    return pairs


def test_criterion_8_three_strike_fault_tolerance():
    cluster = default_testbed()
    job = JobSpec(num_samples=2000, num_epoch=2, source_store=STORE)
    cfg = SimConfig(crashes=(CrashEvent("nano-0", 8.0), CrashEvent("nano-0", 30.0),
                             CrashEvent("nano-0", 60.0)))
    report = run_job(cluster, job, config=cfg)
    seq = [p.phase for p in report.phases]
    scripted_ok = (report.status == "completed"
                   and count_recovery_cycles(seq) == 3
                   and report.recovery.excluded == ("nano-0",)
                   and all(a.worker_id != "nano-0"
                           for a in report.final_plan.assignments))

    start = time.monotonic()
    rng = np.random.default_rng(88)
    fuzz_job = JobSpec(num_samples=240, num_epoch=1, source_store=STORE)
    ids = [w.id for w in cluster.workers]
    lost = illegal = bad_terminal = 0
    for case in range(1000):
        n_crashes = int(rng.integers(0, 6))
        crashes = tuple(CrashEvent(str(rng.choice(ids)),
                                   float(rng.uniform(0.0, 400.0)))
                        for _ in range(n_crashes))
        cfg = SimConfig(crashes=crashes,
                        max_strikes=int(rng.integers(1, 4)),
                        jitter=float(rng.choice([0.0, 0.05])))
        rng.random()  # read by nothing; keeps the draws of the scripts after this one
        rep = run_job(cluster, fuzz_job, seed=case, config=cfg)
        try:
            validate_transitions(rep.phases)
        except Exception:
            illegal += 1
        if rep.status not in ("completed", "abandoned"):
            bad_terminal += 1
        if rep.recovery is not None:
            for plan in rep.recovery.plans:
                if plan.num_samples != fuzz_job.num_samples:
                    lost += 1
    elapsed = time.monotonic() - start
    ok = scripted_ok and lost == 0 and illegal == 0 and bad_terminal == 0
    assert verdict(8, "three-strike fault tolerance", ok,
                   f"scripted arc {'ok' if scripted_ok else 'BROKEN'}, "
                   f"1000 fuzzed scripts in {elapsed:.1f} s, "
                   f"{illegal} illegal histories, {lost} sample-losing plans")


# --- 9. accuracy refinement -------------------------------------------------------


def test_criterion_9_accuracy_refinement():
    rng = np.random.default_rng(99)
    checked = 0
    misses = []
    while checked < 100:
        L = float(rng.uniform(0.75, 0.95))
        r = float(rng.uniform(0.35, 1.2))
        k0 = float(rng.uniform(2.0, 6.0))
        q = float(rng.uniform(0.80, 0.93))
        target = q * L
        crossing = k0 + math.log(q / (1.0 - q)) / r
        horizon = math.ceil(crossing) - 1
        if crossing < 4.2 or crossing > 28 or horizon < math.ceil(k0) + 1:
            continue
        checked += 1
        obs = simulate_accuracy(L, r, k0, horizon)
        refined = refine_num_epoch(obs, target, 60)
        if abs(refined - crossing) > 1.0:
            misses.append((L, r, k0, target, crossing, refined))
    ok = not misses
    assert verdict(9, "epoch budget recovery", ok,
                   f"100 random curves, {len(misses)} off by more than 1"), misses[:3]
