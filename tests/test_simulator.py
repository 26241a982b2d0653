import hashlib
import json
import math
import re
from dataclasses import replace

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deepedge import (BackgroundApp, ClusterSpec, CrashEvent, EstimatorBundle,
                      JobPhase, JobSpec, NodeState, ParametricProfile, SimConfig,
                      ParseError, ValidationError, WorkerSpec, default_registry, default_testbed,
                      fairness_plan, inject_and_recover, load_cluster, load_trace, save_trace,
                      simulate, solve)
from deepedge import simulator

from conftest import record_dict

STORE = "s"


def flat_registry(**kwargs):
    prof = ParametricProfile(base_forward=kwargs.pop("base_forward", 0.5),
                             base_mem_footprint=0.0, mem_per_batch_unit=0.0,
                             **kwargs)
    return {"flat": EstimatorBundle(device_class="flat", profile=prof)}


def flat_cluster(n=1, b_max=10, b_min=1, init=0.0, transfer=0.0):
    workers = tuple(
        WorkerSpec(id=f"w{i}", device_class="flat", initial_state=NodeState(0, 0, 0),
                   b_min=b_min, b_max=b_max, init_cost=init,
                   per_sample_transfer_cost={STORE: transfer})
        for i in range(n))
    return ClusterSpec(workers=workers, ps_state=NodeState(0, 0, 0),
                       data_stores=(STORE,))


def test_degenerate_pipeline_makespan():
    cluster = flat_cluster(n=1, b_max=10)
    job = JobSpec(num_samples=100, num_epoch=2, source_store=STORE)
    reg = flat_registry(base_forward=1.0)
    plan = solve(cluster, job, reg)
    res = simulate(cluster, job, plan, reg, seed=0)
    assert res.status == "completed"
    assert res.makespan == pytest.approx(200.0, abs=1e-9)
    assert res.rounds_completed == {"w0": 20}
    assert res.epochs_completed == {"w0": 2}


def test_fifo_collision_delays_second_pusher():
    # two identical workers push at the same instant; the server holds the
    # second for exactly one 2 s service
    reg = flat_registry(ps_update=2.0)
    cluster = flat_cluster(n=2, b_max=4, b_min=4)
    job = JobSpec(num_samples=16, num_epoch=1, source_store=STORE)
    plan = solve(cluster, job, reg)
    assert {a.worker_id: a.num_samples for a in plan.assignments} == {"w0": 8, "w1": 8}
    res = simulate(cluster, job, plan, reg, seed=0,
                   config=SimConfig(trace_level="rounds"))
    starts = {}
    for ev in res.trace:
        if ev.event == "ps_service_start" and ev.detail == "round 1":
            starts[ev.worker] = ev.time
    assert starts["w1"] - starts["w0"] == pytest.approx(2.0)
    assert res.worker_finish["w1"] - res.worker_finish["w0"] == pytest.approx(2.0)


def test_simulation_deterministic():
    cluster = default_testbed()
    job = JobSpec(num_samples=900, num_epoch=2, source_store="store-0")
    plan = solve(cluster, job)
    cfg = SimConfig(jitter=0.05)
    a = simulate(cluster, job, plan, seed=42, config=cfg)
    b = simulate(cluster, job, plan, seed=42, config=cfg)
    assert a == b
    c = simulate(cluster, job, plan, seed=43, config=cfg)
    assert c.makespan != a.makespan


def test_jitter_perturbs_but_stays_positive():
    cluster = flat_cluster(n=1, b_max=8)
    job = JobSpec(num_samples=64, num_epoch=1, source_store=STORE)
    reg = flat_registry()
    plan = solve(cluster, job, reg)
    base = simulate(cluster, job, plan, reg, seed=0).makespan
    for seed in range(10):
        noisy = simulate(cluster, job, plan, reg, seed=seed,
                         config=SimConfig(jitter=0.8))
        assert noisy.makespan > 0
    assert simulate(cluster, job, plan, reg, seed=1,
                    config=SimConfig(jitter=0.3)).makespan != base


def test_a_run_without_jitter_builds_no_random_stream(monkeypatch):
    cluster = default_testbed()
    job = JobSpec(num_samples=900, num_epoch=2, source_store="store-0")
    plan = solve(cluster, job)
    expected = simulate(cluster, job, plan, seed=3)

    def refuse(*args, **kwargs):
        raise AssertionError("a random stream was built for a run without jitter")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert simulate(cluster, job, plan, seed=3) == expected
    with pytest.raises(AssertionError, match="random stream"):
        simulate(cluster, job, plan, seed=3, config=SimConfig(jitter=0.05))


def test_crash_interrupts_training():
    cluster = default_testbed()
    job = JobSpec(num_samples=2000, num_epoch=2, source_store="store-0")
    plan = solve(cluster, job)
    cfg = SimConfig(crashes=(CrashEvent("nano-1", 20.0),))
    res = simulate(cluster, job, plan, seed=0, config=cfg)
    assert res.status == "interrupted"
    assert res.crash.worker_id == "nano-1"
    assert res.crash.fire_time == pytest.approx(20.0)
    assert res.crash.detect_time > res.crash.fire_time
    assert res.crash.detect_time <= res.crash.fire_time + 1.0 + 1e-9


def test_crash_outside_training_window_is_ignored():
    cluster = default_testbed()
    job = JobSpec(num_samples=2000, num_epoch=2, source_store="store-0")
    plan = solve(cluster, job)
    # transfer plus init keeps every worker warming up until ~5.4 s
    cfg = SimConfig(crashes=(CrashEvent("nano-1", 2.0),))
    res = simulate(cluster, job, plan, seed=0, config=cfg)
    assert res.status == "completed"
    assert res.crash is None


def test_unknown_worker_ids_rejected():
    cluster = flat_cluster(n=1)
    job = JobSpec(num_samples=10, num_epoch=1, source_store=STORE)
    reg = flat_registry()
    plan = solve(cluster, job, reg)
    with pytest.raises(ValidationError, match="ghost"):
        simulate(cluster, job, plan, reg, seed=0,
                 config=SimConfig(crashes=(CrashEvent("ghost", 1.0),)))
    # a plan naming a worker the cluster lacks is a mismatch, not a no-op
    two = flat_cluster(n=2, b_max=10)
    wide_plan = solve(two, JobSpec(num_samples=20, num_epoch=1, source_store=STORE), reg)
    with pytest.raises(ValidationError, match="w1"):
        simulate(cluster, job, wide_plan, reg, seed=0)


def test_work_conservation_round_counts():
    rng = np.random.default_rng(29)
    cluster = default_testbed()
    for trial in range(10):
        job = JobSpec(num_samples=int(rng.integers(200, 2500)),
                      num_epoch=int(rng.integers(1, 3)), source_store="store-0")
        plan = solve(cluster, job)
        res = simulate(cluster, job, plan, seed=trial)
        assert res.status == "completed"
        for a in plan.assignments:
            rounds = math.ceil(a.num_samples / a.batch_size)
            assert res.rounds_completed[a.worker_id] == rounds * job.num_epoch


def test_extra_worker_never_speeds_up_the_first():
    # FIFO server: an identical second worker with an identical shard can only
    # add contention for w0
    reg = flat_registry(ps_update=1.0)
    job = JobSpec(num_samples=40, num_epoch=1, source_store=STORE)
    solo_cluster = flat_cluster(n=1, b_max=4, b_min=4)
    solo_plan = solve(solo_cluster, job, reg)
    solo = simulate(solo_cluster, job, solo_plan, reg, seed=0)

    pair_cluster = flat_cluster(n=2, b_max=4, b_min=4)
    pair_job = JobSpec(num_samples=80, num_epoch=1, source_store=STORE)
    pair_plan = solve(pair_cluster, pair_job, reg)
    assert [a.num_samples for a in pair_plan.assignments if a.worker_id == "w0"] == [40]
    pair = simulate(pair_cluster, pair_job, pair_plan, reg, seed=0)
    assert pair.worker_finish["w0"] >= solo.worker_finish["w0"] - 1e-9


def test_background_violations_logged_for_naive_plan():
    cluster = default_testbed(stressed=True)
    job = JobSpec(num_samples=1200, num_epoch=1, source_store="store-0")
    naive = fairness_plan(cluster, job)
    res = simulate(cluster, job, naive, seed=0)
    assert any(v.worker_id == "nano-0" for v in res.violations)
    for v in res.violations:
        assert v.exec_time > v.deadline
    # the interference-aware plan avoids the pressured worker entirely
    smart = solve(cluster, job)
    clean = simulate(cluster, job, smart, seed=0)
    assert clean.violations == ()


def test_trace_round_trip(tmp_path):
    cluster = default_testbed()
    job = JobSpec(num_samples=600, num_epoch=1, source_store="store-0")
    plan = solve(cluster, job)
    res = simulate(cluster, job, plan, seed=0, config=SimConfig(trace_level="rounds"))
    path = tmp_path / "trace.csv"
    save_trace(res.trace, path)
    again = load_trace(path)
    assert len(again) == len(res.trace)
    for a, b in zip(again, res.trace):
        assert a.worker == b.worker and a.event == b.event
        assert a.time == pytest.approx(b.time, abs=1e-6)


HEADER = "time,worker,event,detail\n"


@pytest.mark.parametrize("text, named", [
    (HEADER + "abc,w,e,d\n", ":2: time: expected a finite number, got 'abc'"),
    (HEADER + "nan,w,e,d\n", ":2: time: expected a finite number, got 'nan'"),
    (HEADER + "\n1.0,w,e,d\nnan,w,e,d,extra\n", ":4: expected 4 columns, got 5"),
    (HEADER + "1.0,w,e\n", ":2: expected 4 columns, got 3"),
    ("time,worker,event\n1.0,w,e\n", ":1: expected header time,worker,event,detail"),
], ids=["non-numeric", "nan", "extra-column", "three-columns", "header"])
def test_load_trace_names_the_bad_row(text, named, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=re.escape(f"{path}{named}")):
        load_trace(path)


def test_load_trace_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(HEADER.encode() + b"1.0,w,e,caf\xe9\n")
    with pytest.raises(ParseError, match="^" + re.escape(f"{path}: not UTF-8 text") + "$"):
        load_trace(path)


def test_load_trace_reads_past_a_byte_order_mark(tmp_path):
    cluster = default_testbed()
    job = JobSpec(num_samples=600, num_epoch=1, source_store="store-0")
    res = simulate(cluster, job, solve(cluster, job), seed=0,
                   config=SimConfig(trace_level="rounds"))
    plain, bom = tmp_path / "trace.csv", tmp_path / "bom.csv"
    save_trace(res.trace, plain)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_trace(bom) == load_trace(plain)


def tie_case(n=1, inits=(0.0, 0.0)):
    """Jitter-0 workers of two rounds each: 1 s of compute, 0.5 s push and
    pull, and a 2 s service. Alone, a worker is served over [1.5, 3.5] and
    [5.5, 7.5] and finishes at 8.0."""
    reg = flat_registry(base_forward=0.5, base_push=0.5, base_pull=0.5, ps_update=2.0)
    cluster = flat_cluster(n=n, b_min=2, b_max=2)
    cluster = replace(cluster, workers=tuple(replace(w, init_cost=c)
                                             for w, c in zip(cluster.workers, inits)))
    job = JobSpec(num_samples=4 * n, num_epoch=1, source_store=STORE)
    plan = solve(cluster, job, reg)
    assert [a.num_samples for a in plan.assignments] == [4] * n
    return cluster, job, plan, reg


def run_ties(case, *crashes, plan=None):
    cluster, job, case_plan, reg = case
    cfg = SimConfig(trace_level="rounds", crashes=tuple(CrashEvent(*c) for c in crashes))
    return simulate(cluster, job, plan or case_plan, reg, config=cfg)


def service_starts(res):
    return [(ev.time, ev.worker, ev.detail) for ev in res.trace if ev.event == "ps_service_start"]


def test_a_crash_as_a_service_ends_comes_after_it():
    case = tie_case()
    just_before = run_ties(case, ("w0", 3.4999))
    assert just_before.status == "interrupted" and just_before.rounds_completed == {"w0": 0}
    res = run_ties(case, ("w0", 3.5))
    assert res.status == "interrupted" and res.crash.fire_time == 3.5
    assert res.rounds_completed == {"w0": 1}
    # at the end of its last service the worker is done, so the crash is ignored
    last = run_ties(case, ("w0", 7.5))
    assert last.status == "completed" and last.crash is None
    assert last.makespan == 8.0 and last.rounds_completed == {"w0": 2}


def test_a_crash_during_the_final_pull_is_ignored():
    case = tie_case()
    final_pull = run_ties(case, ("w0", 7.75))
    assert final_pull.status == "completed" and final_pull.makespan == 8.0
    assert final_pull.worker_finish == {"w0": 8.0}
    earlier_pull = run_ties(case, ("w0", 3.75))
    assert earlier_pull.status == "interrupted" and earlier_pull.rounds_completed == {"w0": 1}
    assert earlier_pull.worker_finish == {"w0": None}


def test_a_crash_as_an_arrival_is_served_comes_after_the_service_starts():
    # both arrive at 1.5: w0 is served at once, w1 waits until 3.5
    case = tie_case(n=2)
    waiting = run_ties(case, ("w1", 3.5))
    assert waiting.crash.worker_id == "w1"
    assert service_starts(waiting) == [(1.5, "w0", "round 1"), (3.5, "w1", "round 1")]
    assert waiting.rounds_completed == {"w0": 1, "w1": 0}
    idle = run_ties(case, ("w1", 1.5))
    assert service_starts(idle) == [(1.5, "w0", "round 1")]
    assert idle.rounds_completed == {"w0": 0, "w1": 0}


def test_crashes_at_one_instant_are_checked_in_script_order():
    case = tie_case(n=2)
    assert run_ties(case, ("w1", 2.0), ("w0", 2.0)).crash.worker_id == "w1"
    assert run_ties(case, ("w0", 2.0), ("w1", 2.0)).crash.worker_id == "w0"
    # the script is ordered by time, whatever order it is written in
    assert run_ties(case, ("w1", 2.5), ("w0", 2.0)).crash.worker_id == "w0"
    # an ignored crash hands the instant on to the next one
    late = tie_case(n=2, inits=(0.0, 4.0))
    assert run_ties(late, ("w1", 2.0), ("w0", 2.0)).crash.worker_id == "w0"


def test_crashes_before_the_train_start_or_on_an_unassigned_worker_are_ignored():
    case = tie_case(n=1, inits=(2.0,))
    early = run_ties(case, ("w0", 1.0))
    assert early.status == "completed" and early.makespan == 10.0
    at_start = run_ties(case, ("w0", 2.0))
    assert at_start.crash.fire_time == 2.0
    cluster, job, _, reg = tie_case(n=2)
    _, _, solo_plan, _ = tie_case(n=1)
    res = run_ties((cluster, replace(job, num_samples=4), solo_plan, reg), ("w1", 2.0))
    assert res.status == "completed" and res.makespan == 8.0


def test_simultaneous_arrivals_are_served_in_the_order_scheduled():
    case = tie_case(n=2)
    assert service_starts(run_ties(case))[:2] == [(1.5, "w0", "round 1"), (3.5, "w1", "round 1")]
    plan = case[2]
    reversed_plan = replace(plan, assignments=plan.assignments[::-1])
    assert service_starts(run_ties(case, plan=reversed_plan))[:2] == [
        (1.5, "w1", "round 1"), (3.5, "w0", "round 1")]
    # w1 starts training at 4.0 and arrives at 5.5, as w0 comes back for its
    # second round; w1's arrival was scheduled first, so it is served first
    late = run_ties(tie_case(n=2, inits=(0.0, 4.0)))
    assert service_starts(late) == [(1.5, "w0", "round 1"), (5.5, "w1", "round 1"),
                                    (7.5, "w0", "round 2"), (9.5, "w1", "round 2")]
    assert late.worker_finish == {"w0": 10.0, "w1": 12.0}


# sha256 over every result of crash_sweep(); any change to when a round is
# served, counted or cut short by a crash moves it
CRASH_SWEEP_DIGEST = "4c6ecf85e5a7b5a5ac3be7db96118bc5a73d8e499ba3a4e6b4d55fe9c7983ddb"


def crash_sweep():
    """Results on the stressed testbed for seeded jobs, plans, jitters and
    crash scripts, at every trace level. Most crash times are event times of
    the same run without crashes, so they meet services and pulls exactly."""
    cluster = default_testbed(stressed=True)
    ids = [w.id for w in cluster.workers]
    rng = np.random.default_rng(7)
    for trial in range(60):
        job = JobSpec(num_samples=int(rng.integers(200, 1500)),
                      num_epoch=int(rng.integers(1, 3)), source_store="store-0")
        plan = solve(cluster, job) if trial % 2 else fairness_plan(cluster, job)
        jitter = (0.0, 0.05, 0.2)[trial % 3]
        seed = int(rng.integers(1000))
        clean = simulate(cluster, job, plan, seed=seed,
                         config=SimConfig(jitter=jitter, trace_level="rounds"))
        times = sorted({ev.time for ev in clean.trace})
        crashes = tuple(
            CrashEvent(ids[int(rng.integers(len(ids)))],
                       times[int(rng.integers(len(times)))] if rng.random() < 0.7
                       else float(rng.uniform(0.0, clean.makespan)))
            for _ in range(int(rng.integers(0, 4))))
        for level in ("none", "phases", "rounds"):
            yield simulate(cluster, job, plan, seed=seed,
                           config=SimConfig(jitter=jitter, crashes=crashes, trace_level=level))


def test_crash_sweep_matches_the_pinned_digest():
    digest = hashlib.sha256()
    for res in crash_sweep():
        digest.update(json.dumps(record_dict(res), sort_keys=True).encode())
    assert digest.hexdigest() == CRASH_SWEEP_DIGEST


def test_recovery_empty_script_matches_plain_simulation():
    cluster = default_testbed()
    job = JobSpec(num_samples=1000, num_epoch=2, source_store="store-0")
    plan = solve(cluster, job)
    rec = inject_and_recover(cluster, job, plan, seed=0)
    assert rec.status == "completed"
    assert len(rec.attempts) == 1
    assert rec.excluded == ()
    direct = simulate(cluster, job, plan, seed=rec_attempt_seed(0, 0))
    assert rec.total_time == pytest.approx(direct.makespan)


def rec_attempt_seed(seed, attempt):
    return int(np.random.SeedSequence([seed, attempt]).generate_state(1)[0])


def test_single_strike_keeps_worker_in_the_pool():
    cluster = default_testbed()
    job = JobSpec(num_samples=2000, num_epoch=2, source_store="store-0")
    cfg = SimConfig(crashes=(CrashEvent("nano-0", 8.0),))
    rec = inject_and_recover(cluster, job, solve(cluster, job), seed=0, config=cfg)
    assert rec.status == "completed"
    assert rec.strikes == {"nano-0": 1}
    assert rec.excluded == ()
    assert [(ev.kind, ev.worker, ev.time) for ev in rec.events] == [("crash", "nano-0", 8.0)]
    attempt = ["solved", "transferring", "registered", "running"]
    assert [p.phase.value for p in rec.phases] == (
        attempt + ["interrupted", "retriggered"] + attempt + ["completed"])
    # detected one heartbeat after the crash, and retriggered at once
    assert [p.time for p in rec.phases[4:8]] == [9.0] * 4
    # the second attempt still schedules the struck worker
    assert any(a.worker_id == "nano-0" for a in rec.plans[1].assignments)


def test_three_strikes_exclude_the_worker():
    cluster = default_testbed()
    job = JobSpec(num_samples=2000, num_epoch=2, source_store="store-0")
    cfg = SimConfig(crashes=(CrashEvent("nano-0", 8.0), CrashEvent("nano-0", 30.0),
                             CrashEvent("nano-0", 60.0)))
    rec = inject_and_recover(cluster, job, solve(cluster, job), seed=0, config=cfg)
    assert rec.status == "completed"
    assert rec.strikes == {"nano-0": 3}
    assert rec.excluded == ("nano-0",)
    assert all(a.worker_id != "nano-0" for a in rec.plans[-1].assignments)
    assert [(ev.kind, ev.worker) for ev in rec.events] == (
        [("crash", "nano-0")] * 3 + [("excluded", "nano-0")])
    assert rec.events[-1].time == rec.events[-2].time + 1.0
    assert [p.phase for p in rec.phases].count(JobPhase.RETRIGGERED) == 3


def test_recovery_reports_each_violation_once():
    """Both attempts of a crashed fairness plan miss nano-0's vision-stream
    deadline; the arc reports that pair once, as the first attempt saw it."""
    cluster = default_testbed(stressed=True)
    job = JobSpec(num_samples=2000, num_epoch=1, source_store="store-0")
    plan = fairness_plan(cluster, job)
    rec = inject_and_recover(cluster, job, plan,
                             config=SimConfig(crashes=(CrashEvent("tx2-0", 30.0),)))
    assert rec.status == "completed" and len(rec.attempts) == 2
    for attempt in rec.attempts:
        assert [(v.worker_id, v.app_id) for v in attempt.violations] == [
            ("nano-0", "vision-stream")]
    assert rec.violations == rec.attempts[0].violations


def test_striking_out_every_worker_abandons():
    cluster = default_testbed()
    job = JobSpec(num_samples=2000, num_epoch=2, source_store="store-0")
    cfg = SimConfig(max_strikes=1, crashes=(
        CrashEvent("nano-0", 10.0), CrashEvent("nano-1", 60.0),
        CrashEvent("nano-2", 140.0), CrashEvent("tx2-0", 260.0)))
    rec = inject_and_recover(cluster, job, solve(cluster, job), seed=0, config=cfg)
    assert rec.status == "abandoned"
    assert set(rec.excluded) == {"nano-0", "nano-1", "nano-2", "tx2-0"}
    assert [ev.kind for ev in rec.events] == ["crash", "excluded"] * 4
    assert [p.phase for p in rec.phases[-2:]] == [JobPhase.INTERRUPTED, JobPhase.ABANDONED]
    assert rec.total_time == rec.events[-1].time


@pytest.mark.parametrize("kwargs, field", [
    ({"jitter": math.nan}, "sim.jitter"),
    ({"jitter": math.inf}, "sim.jitter"),
    ({"jitter": -0.1}, "sim.jitter"),
    ({"crashes": (CrashEvent("nano-0", math.inf),)}, "sim.crashes[0].time"),
    ({"crashes": (CrashEvent("nano-0", 3.0), CrashEvent("nano-0", math.nan))},
     "sim.crashes[1].time"),
    ({"crashes": (CrashEvent("nano-0", -5.0),)}, "sim.crashes[0].time"),
])
def test_sim_config_rejects_non_finite_and_negative_times(kwargs, field):
    with pytest.raises(ValidationError, match=re.escape(field)):
        SimConfig(**kwargs)


@pytest.mark.parametrize("kwargs, field", [
    ({"max_strikes": 2.5}, "sim.max_strikes: must be an integer >= 1, got 2.5"),
    ({"max_strikes": True}, "sim.max_strikes: must be an integer >= 1, got True"),
    ({"max_strikes": "3"}, "sim.max_strikes"),
    ({"jitter": "0.1"}, "sim.jitter: must be a finite number >= 0, got '0.1'"),
    ({"jitter": True}, "sim.jitter"),
    ({"crashes": (("nano-1", 5.0),)}, "sim.crashes[0]: expected a CrashEvent, got ('nano-1', 5.0)"),
    ({"crashes": (CrashEvent("nano-1", 5.0), ("nano-1", 9.0))}, "sim.crashes[1]: expected"),
    ({"crashes": (CrashEvent("nano-1", "5"),)}, "sim.crashes[0].time"),
], ids=["strikes-2.5", "strikes-True", "strikes-str", "jitter-str", "jitter-True",
        "crash-tuple", "second-crash-tuple", "crash-time-str"])
def test_sim_config_refuses_values_of_another_kind(kwargs, field):
    with pytest.raises(ValidationError, match=re.escape(field)):
        SimConfig(**kwargs)
    with pytest.raises(ValidationError, match=re.escape(field)):
        replace(SimConfig(), **kwargs)


def test_a_crash_scripted_after_the_exclusion_strikes_no_more():
    cluster = default_testbed()
    job = JobSpec(num_samples=2000, num_epoch=2, source_store="store-0")
    crashes = tuple(CrashEvent("nano-1", t) for t in (8.0, 30.0, 60.0, 90.0))
    rec = inject_and_recover(cluster, job, solve(cluster, job), seed=0,
                             config=SimConfig(crashes=crashes))
    assert rec.strikes == {"nano-1": 3} and rec.excluded == ("nano-1",)
    assert [ev.kind for ev in rec.events] == ["crash"] * 3 + ["excluded"]
    assert len(rec.attempts) == 4


def test_simulate_checks_the_plan_against_the_job():
    cluster = default_testbed()
    job = JobSpec(num_samples=1600, num_epoch=1, source_store="store-0")
    plan = solve(cluster, job)
    first, second, *rest = plan.assignments
    short = 1600 - first.num_samples + 5
    top = min({w.id: w.b_max for w in cluster.workers}[first.worker_id], first.num_samples)
    cases = [
        ([first, replace(second, worker_id=first.worker_id)],
         f"plan.assignments[1]: worker '{first.worker_id}' is assigned twice"),
        ([replace(first, num_samples=5), second],
         f"plan.assignments: shards sum to {short} samples, the job has 1600"),
        ([replace(first, batch_size=0), second], "plan.assignments[0]: num_samples and batch_size"),
        ([replace(first, num_samples=0), second], "plan.assignments[0]: num_samples and batch_size"),
        ([replace(first, batch_size=top + 1), second],
         f"plan.assignments[0].batch_size: {top + 1} is above min(b_max, num_samples)"),
    ]
    for assignments, message in cases:
        with pytest.raises(ValidationError, match=re.escape(message)):
            simulate(cluster, job, replace(plan, assignments=tuple(assignments + rest)))
    with pytest.raises(ValidationError, match=re.escape("plan.num_epoch: 7, the job has 1")):
        simulate(cluster, job, replace(plan, num_epoch=7))
    # the largest batch the bound allows still runs
    at_top = replace(plan, assignments=(replace(first, batch_size=top), second, *rest))
    assert simulate(cluster, job, at_top).status == "completed"


def test_simulate_rejects_a_batch_below_b_min():
    job = JobSpec(num_samples=2000, num_epoch=2, source_store="store-0")
    testbed = default_testbed()
    plan = solve(testbed, job)
    # an assignment whose batch is below its worker's b_max, so b_min can go above it
    i, a = next((i, a) for i, a in enumerate(plan.assignments)
                if a.batch_size < {w.id: w.b_max for w in testbed.workers}[a.worker_id])

    def with_b_min(b_min):
        return replace(testbed, workers=tuple(replace(w, b_min=b_min) if w.id == a.worker_id
                                              else w for w in testbed.workers))

    with pytest.raises(ValidationError, match=re.escape(
            f"plan.assignments[{i}].batch_size: {a.batch_size} is below "
            f"b_min = {a.batch_size + 1}")):
        simulate(with_b_min(a.batch_size + 1), job, plan)
    assert simulate(with_b_min(a.batch_size), job, plan).status == "completed"


def test_simulate_rejects_a_batch_past_the_memory_ceiling():
    """A nano at memory 0.7 fits batches up to 8; a fairness plan edited to
    batch 16 there projects memory at 1.0, so it is refused, naming the
    batch, where batch 8 still runs."""
    testbed = default_testbed()
    cluster = replace(testbed, workers=tuple(
        replace(w, initial_state=NodeState(0.05, 0.0, 0.7)) if w.id == "nano-0" else w
        for w in testbed.workers))
    job = JobSpec(num_samples=2000, num_epoch=1, source_store="store-0")
    plan = fairness_plan(cluster, job)
    i = next(i for i, a in enumerate(plan.assignments) if a.worker_id == "nano-0")
    assert plan.assignments[i].batch_size == 8

    def with_batch(b):
        return replace(plan, assignments=tuple(replace(a, batch_size=b) if k == i else a
                                               for k, a in enumerate(plan.assignments)))

    with pytest.raises(ValidationError, match=re.escape(
            f"plan.assignments[{i}].batch_size: 16 projects memory 1.0000 on 'nano-0', "
            f"above 0.95")):
        simulate(cluster, job, with_batch(16))
    assert simulate(cluster, job, with_batch(8)).status == "completed"


@pytest.mark.parametrize("name", ["testbed", "wide"])
def test_simulate_projects_each_assignment_once(name, monkeypatch):
    """One ``check_pressure`` per assignment, and in it the only ``est_state``:
    the memory refusal and the deadline violations read one projection."""
    cluster = (default_testbed() if name == "testbed"
               else load_cluster(Path(__file__).parent / "data" / "wide_cluster.json"))
    job = JobSpec(num_samples=2000, num_epoch=2, source_store="store-0")
    plan = solve(cluster, job)
    calls = {"est_state": 0, "check_pressure": 0}
    est_state, check_pressure = EstimatorBundle.est_state, simulator.check_pressure

    def counted_state(self, state, batch_size):
        calls["est_state"] += 1
        return est_state(self, state, batch_size)

    def counted_pressure(*args):
        calls["check_pressure"] += 1
        return check_pressure(*args)
    monkeypatch.setattr(EstimatorBundle, "est_state", counted_state)
    monkeypatch.setattr(simulator, "check_pressure", counted_pressure)
    assert simulate(cluster, job, plan).status == "completed"
    n = len(plan.assignments)
    assert n > 4 if name == "wide" else n == 4
    assert calls == {"est_state": n, "check_pressure": n}


@pytest.fixture(scope="module")
def refusal_case():
    """The testbed with ``nano-1`` at memory 0.7 (it fits batches up to 8)
    and ``tx2-0`` at ``b_min`` 4, a 2,000x2 job, and its solve and fairness
    plans."""
    testbed = default_testbed()
    cluster = replace(testbed, workers=tuple(
        replace(w, initial_state=replace(w.initial_state, mem_util=0.7)) if w.id == "nano-1"
        else replace(w, b_min=4) if w.id == "tx2-0" else w for w in testbed.workers))
    job = JobSpec(num_samples=2000, num_epoch=2, source_store="store-0")
    return cluster, job, {"solve": solve(cluster, job), "fairness": fairness_plan(cluster, job)}


def test_the_plans_refusal_edits_start_from_complete(refusal_case):
    cluster, job, plans = refusal_case
    nano = default_registry()["nano"]
    assert nano.max_batch_size(cluster.workers[2].initial_state, 1, 16) == 8
    for plan in plans.values():
        assert [a.worker_id for a in sorted(plan.assignments, key=lambda a: a.worker_id)] == [
            "nano-0", "nano-1", "nano-2", "tx2-0"]
        assert simulate(cluster, job, plan).status == "completed"


EDITS = ("unknown", "repeated", "shard", "zero", "negative", "above", "below", "memory", "epochs")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(("solve", "fairness")), st.sampled_from(EDITS), st.data())
def test_simulate_refuses_each_edit_of_a_plan(refusal_case, method, edit, data):
    """One edit of a plan that completes is refused, naming its field, with
    the message each check has always given."""
    cluster, job, plans = refusal_case
    plan = plans[method]
    workers = {w.id: w for w in cluster.workers}
    ids = [a.worker_id for a in plan.assignments]
    # the b_min and memory edits are of the one worker each can apply to
    fixed = {"below": ids.index("tx2-0"), "memory": ids.index("nano-1")}
    i = fixed[edit] if edit in fixed else data.draw(st.integers(0, len(ids) - 1),
                                                    label="assignment")
    a = plan.assignments[i]
    w = workers[a.worker_id]

    def edited(k=i, **changes):
        return replace(plan, assignments=tuple(replace(x, **changes) if n == k else x
                                               for n, x in enumerate(plan.assignments)))
    if edit == "unknown":
        ghost = data.draw(st.text("ghost-0", min_size=1, max_size=8), label="worker")
        edit_plan, message = edited(worker_id=ghost), f"plan.assignments[{i}]: unknown worker '{ghost}'"
    elif edit == "repeated":
        j = data.draw(st.integers(0, len(ids) - 1).filter(lambda j: j != i), label="other")
        first, later = sorted((i, j))
        edit_plan = edited(later, worker_id=ids[first])
        message = f"plan.assignments[{later}]: worker '{ids[first]}' is assigned twice"
    elif edit == "shard":
        k = data.draw(st.integers(1 - a.num_samples, 10 ** 6).filter(bool), label="k")
        edit_plan = edited(num_samples=a.num_samples + k)
        message = (f"plan.assignments: shards sum to {job.num_samples + k} samples, "
                   f"the job has {job.num_samples}")
    elif edit in ("zero", "negative"):
        b = 0 if edit == "zero" else data.draw(st.integers(-10 ** 6, -1), label="batch")
        edit_plan = edited(batch_size=b)
        message = (f"plan.assignments[{i}]: num_samples and batch_size must be >= 1, "
                   f"got {a.num_samples} and {b}")
    elif edit == "above":
        top = min(w.b_max, a.num_samples)
        b = data.draw(st.integers(top + 1, 10 ** 9), label="batch")
        edit_plan = edited(batch_size=b)
        message = (f"plan.assignments[{i}].batch_size: {b} is above min(b_max, num_samples) "
                   f"= min({w.b_max}, {a.num_samples})")
    elif edit == "below":
        b = data.draw(st.integers(1, w.b_min - 1), label="batch")
        edit_plan = edited(batch_size=b)
        message = f"plan.assignments[{i}].batch_size: {b} is below b_min = 4"
    elif edit == "memory":
        b = data.draw(st.integers(9, min(w.b_max, a.num_samples)), label="batch")
        memory = default_registry()["nano"].est_state(w.initial_state, b).mem_util
        edit_plan = edited(batch_size=b)
        message = (f"plan.assignments[{i}].batch_size: {b} projects memory {memory:.4f} "
                   f"on 'nano-1', above 0.95")
    else:
        epochs = data.draw(st.integers(1, 100).filter(lambda e: e != job.num_epoch), label="epochs")
        edit_plan, message = replace(plan, num_epoch=epochs), f"plan.num_epoch: {epochs}, the job has 2"
    with pytest.raises(ValidationError) as refused:
        simulate(cluster, job, edit_plan)
    assert str(refused.value) == message


def test_simulate_rejects_a_worker_with_no_rate_for_the_job_store():
    job = JobSpec(num_samples=400, num_epoch=1, source_store="store-0")
    plan = solve(default_testbed(), job)
    testbed = default_testbed()
    tx2 = replace(testbed.workers[0], per_sample_transfer_cost={"other": 0.5})
    cluster = replace(testbed, workers=(tx2,) + testbed.workers[1:],
                      data_stores=("store-0", "other"))
    with pytest.raises(ValidationError, match=re.escape(
            "worker 'tx2-0'.per_sample_transfer_cost: no entry for source store 'store-0'")):
        simulate(cluster, job, plan)


def test_simulate_rejects_a_job_on_a_store_the_cluster_lacks():
    job = JobSpec(num_samples=400, num_epoch=1, source_store="store-0")
    plan = solve(default_testbed(), job)
    testbed = default_testbed()
    # every worker has a rate for the store, but the cluster does not list it
    cluster = replace(testbed, workers=tuple(
        replace(w, per_sample_transfer_cost={**w.per_sample_transfer_cost, "elsewhere": 0.01})
        for w in testbed.workers))
    elsewhere = replace(job, source_store="elsewhere")
    message = "job.source_store: 'elsewhere' is not one of the cluster's data stores"
    with pytest.raises(ValidationError, match=re.escape(message)):
        solve(cluster, elsewhere)
    with pytest.raises(ValidationError, match=re.escape(message)):
        simulate(cluster, elsewhere, plan)
