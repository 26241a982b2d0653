import math
import random
import re
import warnings

import numpy as np
import pytest

from deepedge import (BenchReport, BenchTrial, CrashEvent, IllegalTransitionError,
                      JobPhase, JobSpec, LEGAL_TRANSITIONS, NodeState, PhaseChange, SimConfig,
                      bench, crossing_epoch, default_registry, default_testbed,
                      fairness_plan, fit_accuracy_curve, inject_and_recover, LogisticFit,
                      logistic, refine_num_epoch, render_report, run_job,
                      save_histogram_csv, simulate, solve, validate_transitions,
                      ValidationError)
from deepedge.documents import from_doc, load_doc, save, to_doc
from deepedge.orchestrator import _gauss_newton, draw_states
from dataclasses import replace

from conftest import simulate_accuracy

STORE = "store-0"


def phases(*names, times=None):
    times = times or list(range(len(names)))
    return [PhaseChange(float(t), JobPhase(n)) for t, n in zip(times, names)]


# --- the transition relation -------------------------------------------------


def test_legal_happy_path_accepted():
    validate_transitions(phases("requested", "solved", "transferring",
                                "registered", "running", "completed"))


def test_recovery_loop_accepted():
    validate_transitions(phases(
        "requested", "solved", "transferring", "registered", "running",
        "interrupted", "retriggered", "solved", "transferring", "registered",
        "running", "completed"))


def test_illegal_transition_rejected():
    with pytest.raises(IllegalTransitionError):
        validate_transitions(phases("requested", "running"))
    with pytest.raises(IllegalTransitionError):
        validate_transitions(phases("requested", "solved", "transferring",
                                    "registered", "running", "completed",
                                    "running"))
    # a retrigger must re-plan before anything runs
    with pytest.raises(IllegalTransitionError):
        validate_transitions(phases("requested", "solved", "transferring",
                                    "registered", "running", "interrupted",
                                    "retriggered", "running"))


def test_time_must_not_go_backwards():
    with pytest.raises(IllegalTransitionError):
        validate_transitions(phases("requested", "solved", times=[5.0, 1.0]))


def test_terminal_phases_have_no_successors():
    assert LEGAL_TRANSITIONS[JobPhase.COMPLETED] == frozenset()
    assert LEGAL_TRANSITIONS[JobPhase.ABANDONED] == frozenset()


# --- accuracy curve fitting ----------------------------------------------------


def test_fit_recovers_exact_logistic():
    k = np.arange(1, 13)
    y = logistic(k, 0.9, 0.8, 4.0)
    fit = fit_accuracy_curve(k, y)
    assert fit.L == pytest.approx(0.9, abs=1e-4)
    assert fit.r == pytest.approx(0.8, abs=1e-3)
    assert fit.k0 == pytest.approx(4.0, abs=1e-3)
    assert fit.sse < 1e-10


def test_fit_input_validation():
    with pytest.raises(Exception):
        fit_accuracy_curve([1, 2], [0.1, 0.2])
    with pytest.raises(Exception):
        fit_accuracy_curve([1, 2, 3], [0.1, 0.2, 1.4])


@pytest.mark.parametrize("epochs, accuracies, field", [
    ([1, 2, 3, 4], [0.2, math.nan, 0.6, 0.7], "accuracies"),
    ([1, 2, 3, 4], [0.2, 0.4, math.inf, 0.7], "accuracies"),
    ([1, 2, 3, 4], [0.2, 0.4, -0.1, 0.7], "accuracies"),
    ([1, math.nan, 3, 4], [0.2, 0.4, 0.6, 0.7], "epochs"),
    ([1, 2, math.inf, 4], [0.2, 0.4, 0.6, 0.7], "epochs"),
])
def test_fit_names_a_non_finite_or_out_of_range_field(epochs, accuracies, field):
    with pytest.raises(ValidationError, match=f"^{field}: "):
        fit_accuracy_curve(epochs, accuracies)


def test_refine_rejects_a_nan_accuracy():
    with pytest.raises(ValidationError, match="^accuracies: "):
        refine_num_epoch([(1, 0.2), (2, math.nan), (3, 0.6)], 0.5, 10)


@pytest.mark.parametrize("reading, named", [
    ((2.9, 0.4), ".epoch: must be a whole number, got 2.9"),
    ((math.nan, 0.4), ".epoch: must be a whole number, got nan"),
    ((math.inf, 0.4), ".epoch: must be a whole number, got inf"),
    (("two", 0.4), ": epoch and accuracy must be numbers, got ('two', 0.4)"),
    ((2, None), ": epoch and accuracy must be numbers, got (2, None)"),
    ((-3, 0.4), ".epoch: must be >= 0, got -3"),
    ((1, 0.4), ".epoch: epoch 1 is already observed"),
])
def test_refine_and_run_job_name_a_bad_observation(reading, named):
    obs = [(1, 0.2), reading, (3, 0.6)]
    message = "^" + re.escape(f"observations[1]{named}") + "$"
    with pytest.raises(ValidationError, match=message):
        refine_num_epoch(obs, 0.5, 10)
    job = JobSpec(num_samples=600, num_epoch=3, source_store=STORE, target_accuracy=0.5)
    with pytest.raises(ValidationError, match=message):
        run_job(default_testbed(), job, accuracy_observations=obs)


def test_crossing_epoch_analytic():
    fit = fit_accuracy_curve(np.arange(1, 13), logistic(np.arange(1, 13), 0.9, 0.8, 4.0))
    k_star = crossing_epoch(fit, 0.85)
    expected = 4.0 - math.log(0.9 / 0.85 - 1.0) / 0.8
    assert k_star == pytest.approx(expected, abs=1e-3)
    assert crossing_epoch(fit, 0.95) is None  # above the ceiling
    with pytest.raises(ValueError):
        crossing_epoch(fit, 0.0)


def test_refine_shrinks_to_the_crossing():
    obs = simulate_accuracy(0.9, 0.8, 4.0, 12)
    refined = refine_num_epoch(obs, 0.85, 20)
    # the generating curve crosses 0.85 at ~7.54
    assert refined == 12  # already ran 12 epochs, cannot undo them
    early = [(k, a) for k, a in obs if k <= 6]
    assert refine_num_epoch(early, 0.85, 20) == 8


def test_refine_respects_epochs_already_run():
    obs = simulate_accuracy(0.9, 1.2, 2.0, 5)
    # crossing sits near 3.7 but five epochs already happened
    assert refine_num_epoch(obs, 0.8, 20) == 5


def test_refine_unreachable_target_keeps_budget():
    obs = [(k, 0.5) for k in range(1, 8)]
    assert refine_num_epoch(obs, 0.9, 20) == 20


def test_refine_never_exceeds_current_budget():
    obs = simulate_accuracy(0.9, 0.3, 14.0, 6)
    assert refine_num_epoch(obs, 0.89, 10) == 10


def test_refine_input_validation():
    with pytest.raises(ValueError):
        refine_num_epoch([(1, 0.1), (2, 0.2)], 0.8, 10)
    with pytest.raises(ValueError):
        refine_num_epoch([(1, 0.1), (2, 0.2), (3, 0.3)], 1.5, 10)
    with pytest.raises(ValueError):
        refine_num_epoch([(1, 0.1), (2, 0.2), (3, 0.3)], 0.8, 0)
    assert refine_num_epoch([(1, 0.1)], None, 10) == 10
    # a whole epoch given as a float reads as that epoch
    assert refine_num_epoch([(1, 0.2), (2.0, 0.4), (3, 0.6)], 0.5, 10) == 3


def test_refine_monotone_in_target():
    rng = np.random.default_rng(31)
    for trial in range(60):
        L = float(rng.uniform(0.7, 0.95))
        r = float(rng.uniform(0.4, 1.2))
        k0 = float(rng.uniform(2.0, 6.0))
        obs = simulate_accuracy(L, r, k0, int(math.ceil(k0)) + 2)
        lo = float(rng.uniform(0.3, 0.6)) * L
        hi = float(rng.uniform(0.75, 0.95)) * L
        assert refine_num_epoch(obs, lo, 50) <= refine_num_epoch(obs, hi, 50)


def _gauss_newton_numpy(k, y, starts):
    """The numpy loop the fit ran before it moved to Python floats, kept as an
    oracle and run for many curves at once: row i of ``k`` and ``y`` is one
    curve, fitted from ``starts[i]`` = (L, r, k0) by its own loop, with its own
    damping, steps and stopping rule. One fit per row."""
    L, r, k0 = (np.array(column, dtype=float) for column in zip(*starts))
    lam = np.full(len(L), 1e-3)

    def evaluate(rows, L, r, k0):
        # the loop relied on exp overflowing to inf; the suite turns the warning into an error
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-r[:, None] * (k[rows] - k0[:, None])))
        res = L[:, None] * s - y[rows]
        return s, res, np.einsum("ij,ij->i", res, res)

    s, res, sse = evaluate(slice(None), L, r, k0)
    iterations = np.zeros(len(L), dtype=int)
    live = np.ones(len(L), dtype=bool)
    for it in range(1, 101):
        rows = live.nonzero()[0]
        if not rows.size:
            break
        iterations[rows] = it
        grad_mid = L[rows, None] * s[rows] * (1.0 - s[rows])
        J = np.stack([s[rows], grad_mid * (k[rows] - k0[rows, None]),
                      -grad_mid * r[rows, None]], axis=2)
        H = J.transpose(0, 2, 1) @ J
        g = J.transpose(0, 2, 1) @ res[rows, :, None]
        A = H + lam[rows, None, None] * (H * np.eye(3) + 1e-12 * np.eye(3))
        solved = np.ones(rows.size, dtype=bool)
        try:
            step = np.linalg.solve(A, -g)[..., 0]
        except np.linalg.LinAlgError:
            step = np.zeros((rows.size, 3))
            for j in range(rows.size):
                try:
                    step[j] = np.linalg.solve(A[j], -g[j])[:, 0]
                except np.linalg.LinAlgError:
                    solved[j] = False
        lam[rows[~solved]] *= 4.0
        rows, step = rows[solved], step[solved]
        L2 = np.clip(L[rows] + step[:, 0], 1e-6, 1.0)
        r2 = np.clip(r[rows] + step[:, 1], 1e-6, 50.0)
        k02 = np.clip(k0[rows] + step[:, 2], -1e6, 1e6)
        s2, res2, sse2 = evaluate(rows, L2, r2, k02)
        better = sse2 < sse[rows]
        took = rows[better]
        moved = (np.abs(L2 - L[rows]) + np.abs(r2 - r[rows]) + np.abs(k02 - k0[rows]))[better]
        improved = sse[took] - sse2[better]
        L[took], r[took], k0[took] = L2[better], r2[better], k02[better]
        s[took], res[took], sse[took] = s2[better], res2[better], sse2[better]
        lam[took] = np.maximum(lam[took] * 0.5, 1e-12)
        live[took[(improved < 1e-14) & (moved < 1e-10)]] = False
        worse = rows[~better]
        lam[worse] *= 4.0
        live[worse[lam[worse] > 1e12]] = False
    return [LogisticFit(L=float(L[i]), r=float(r[i]), k0=float(k0[i]), sse=float(sse[i]),
                        iterations=int(iterations[i])) for i in range(len(L))]


def _oracle_readings():
    """Accuracy readings that exercise the fit: random curves, bench draws, edge cases."""
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        k = np.arange(1.0, 1.0 + int(rng.integers(3, 11)))
        L, r, k0 = rng.uniform(0.5, 1.0), rng.uniform(0.2, 2.0), rng.uniform(0.0, 8.0)
        noise = float(rng.choice([0.0, 0.01, 0.05]))
        yield k, np.clip(logistic(k, L, r, k0) + rng.normal(0.0, noise, k.size), 0.0, 1.0)
    draws = random.Random(7)
    for _ in range(300):  # five readings, drawn as the crash-recovery benchmark draws them
        L, r, k0 = draws.uniform(0.85, 0.95), draws.uniform(0.8, 1.5), draws.uniform(1.5, 3.0)
        y = [round(min(1.0, max(0.0, L / (1.0 + math.exp(-r * (k - k0)))
                                + draws.uniform(-0.01, 0.01))), 4) for k in range(1, 6)]
        yield np.arange(1.0, 6.0), np.array(y)
    k = np.arange(1.0, 7.0)
    yield k, np.zeros(6)
    yield k, np.ones(6)
    yield k, np.full(6, 0.5)
    yield k, np.array([0.2, 0.6, 0.2, 0.6, 0.2, 0.6])


def _oracle_starts(k, y) -> list:
    """The three starts of ``fit_accuracy_curve``."""
    top = float(np.max(y))
    L0 = min(1.0, max(top + 0.05, 0.1))
    k0_guess = float(k[int(np.argmin(np.abs(y - top / 2.0)))])
    return [(L0, r0, k0_guess) for r0 in (0.3, 0.8, 1.5)]


def test_fit_on_python_floats_matches_the_numpy_loop():
    targets = (0.3, 0.5, 0.7, 0.9)
    readings = list(_oracle_readings())
    # the oracle fits every (reading, start) of one reading count at once
    oracle = {}
    for n in {k.size for k, _ in readings}:
        cases = [(i, start) for i, (k, y) in enumerate(readings) if k.size == n
                 for start in _oracle_starts(k, y)]
        fits = _gauss_newton_numpy(np.array([readings[i][0] for i, _ in cases]),
                                   np.array([readings[i][1] for i, _ in cases]),
                                   [start for _, start in cases])
        oracle.update(zip(cases, fits))
    for i, (k, y) in enumerate(readings):
        ref = None
        for start in _oracle_starts(k, y):
            want = oracle[i, start]
            got = _gauss_newton(k.tolist(), y.tolist(), start)
            assert abs(got.sse - want.sse) <= 1e-10, (k, y, start, got, want)
            if ref is None or want.sse < ref.sse:
                ref = want
        fit = fit_accuracy_curve(k, y)
        for target in targets:
            want, got = crossing_epoch(ref, target), crossing_epoch(fit, target)
            assert (want is None) == (got is None), (k, y, target, fit, ref)
            if want is not None:
                assert math.ceil(got - 1e-9) == math.ceil(want - 1e-9), (k, y, target, fit, ref)


def test_fit_and_logistic_raise_no_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_accuracy_curve([1, 2, 3], [0.0251, 0.0012, 0.0545])
        refine_num_epoch([(1, 0.0251), (2, 0.0012), (3, 0.0545)], 0.5, 10)
        assert LogisticFit(0.9, 50.0, 20.0, 0.0, 1).predict(0) == 0.0


def test_simulate_accuracy_deterministic_and_clipped():
    a = simulate_accuracy(0.9, 0.8, 4.0, 10, noise=0.05, seed=7)
    b = simulate_accuracy(0.9, 0.8, 4.0, 10, noise=0.05, seed=7)
    assert a == b
    assert all(0.0 <= acc <= 1.0 for _, acc in a)


# --- job lifecycle ------------------------------------------------------------


def test_healthy_run_has_one_solve():
    cluster = default_testbed()
    job = JobSpec(num_samples=2000, num_epoch=2, source_store=STORE)
    report = run_job(cluster, job)
    seq = [p.phase.value for p in report.phases]
    assert report.status == "completed"
    assert seq == ["requested", "solved", "transferring", "registered",
                   "running", "completed"]


def test_crash_triggers_a_second_solve():
    cluster = default_testbed()
    job = JobSpec(num_samples=2000, num_epoch=2, source_store=STORE)
    cfg = SimConfig(crashes=(CrashEvent("nano-0", 8.0),))
    report = run_job(cluster, job, config=cfg)
    seq = [p.phase.value for p in report.phases]
    assert report.status == "completed"
    assert seq.count("solved") == 2
    i = seq.index("retriggered")
    assert seq[i:i + 5] == ["retriggered", "solved", "transferring",
                            "registered", "running"]


def test_run_job_phases_are_the_recovery_loops():
    cluster = default_testbed()
    job = JobSpec(num_samples=2000, num_epoch=2, source_store=STORE)
    cfg = SimConfig(jitter=0.05, crashes=(CrashEvent("nano-0", 8.0), CrashEvent("nano-0", 30.0),
                                          CrashEvent("nano-0", 60.0)))
    report = run_job(cluster, job, seed=3, config=cfg)
    rec = inject_and_recover(cluster, job, solve(cluster, job), seed=3, config=cfg)
    assert report.phases == (PhaseChange(0.0, JobPhase.REQUESTED),) + rec.phases
    assert report.total_time == rec.total_time


def slow_nano_2_testbed():
    cluster = default_testbed()
    return replace(cluster, workers=tuple(
        replace(w, per_sample_transfer_cost={STORE: 0.02}) if w.id == "nano-2" else w
        for w in cluster.workers))


def test_crash_before_the_last_worker_trains_stamps_running_at_the_crash():
    # tx2-0 trains from 5.0 s and crashes at 6.0 s, while nano-2 still
    # fetches its samples until about 12.9 s
    job = JobSpec(num_samples=2000, num_epoch=1, source_store=STORE)
    cfg = SimConfig(crashes=(CrashEvent("tx2-0", 6.0),))
    report = run_job(slow_nano_2_testbed(), job, config=cfg)
    assert report.status == "completed"
    validate_transitions(report.phases)
    assert [(p.time, p.phase.value) for p in report.phases[3:6]] == [
        (6.0, "registered"), (6.0, "running"), (7.0, "interrupted")]


def test_exhausting_the_cluster_abandons():
    cluster = default_testbed()
    job = JobSpec(num_samples=2000, num_epoch=2, source_store=STORE)
    cfg = SimConfig(max_strikes=1, crashes=(
        CrashEvent("nano-0", 10.0), CrashEvent("nano-1", 60.0),
        CrashEvent("nano-2", 140.0), CrashEvent("tx2-0", 260.0)))
    report = run_job(cluster, job, config=cfg)
    assert report.status == "abandoned"
    assert report.phases[-1].phase is JobPhase.ABANDONED


def test_infeasible_job_abandoned_at_request():
    cluster = default_testbed(stressed=True)
    # restrict to the one worker whose deadline already binds under load
    solo = replace(cluster, workers=tuple(w for w in cluster.workers
                                          if w.id == "nano-0"))
    job = JobSpec(num_samples=100, num_epoch=1, source_store=STORE)
    report = run_job(solo, job)
    assert report.status == "abandoned"
    assert [p.phase.value for p in report.phases] == ["requested", "abandoned"]
    assert report.recovery is None


def test_run_job_refines_epochs_from_observations():
    cluster = default_testbed()
    job = JobSpec(num_samples=1500, num_epoch=12, source_store=STORE,
                  target_accuracy=0.85)
    obs = simulate_accuracy(0.9, 0.8, 4.0, 6)
    report = run_job(cluster, job, accuracy_observations=obs)
    assert report.refined_num_epoch == 8
    assert report.accuracy_fit is not None


# --- the bench -----------------------------------------------------------------


def test_bench_homogeneous_idle_cluster_has_no_edge():
    cluster = default_testbed()
    idle = NodeState(0.0, 0.0, 0.2)
    homogeneous = replace(cluster, workers=tuple(
        replace(w, initial_state=idle) for w in cluster.workers if w.device_class == "nano"))
    registry = default_registry()
    # 96 samples per worker fill batch-16 rounds exactly, so the refinement
    # scan and the naive batch rule agree and the plans are identical
    job = JobSpec(num_samples=288, num_epoch=1, source_store=STORE)
    config = SimConfig(jitter=0.0, trace_level="none")
    smart, naive = (simulate(homogeneous, job, plan(homogeneous, job, registry), registry,
                             config=config) for plan in (solve, fairness_plan))
    assert smart.makespan == naive.makespan


def test_bench_accounting_and_determinism():
    report = bench(n_trials=6, seed=3, num_samples=600, num_epoch=1)
    assert report.n_trials == 6
    assert sum(report.histogram) == 6
    assert report.min_speedup <= report.median_speedup <= report.max_speedup
    again = bench(n_trials=6, seed=3, num_samples=600, num_epoch=1)
    assert again.mean_speedup == report.mean_speedup


def test_heuristic_dominates_fairness_under_its_own_model():
    rng = np.random.default_rng(37)
    cluster = default_testbed()
    registry = default_registry()
    job = JobSpec(num_samples=1200, num_epoch=1, source_store=STORE)
    for trial in range(40):
        states, _ = draw_states(rng, cluster, registry)
        trial_cluster = replace(cluster, workers=tuple(
            replace(w, initial_state=states[w.id]) for w in cluster.workers))
        smart = solve(trial_cluster, job, registry)
        naive = fairness_plan(trial_cluster, job, registry)
        assert smart.epoch_time <= naive.epoch_time + 1e-9


def test_bench_report_round_trip(tmp_path):
    report = bench(n_trials=4, seed=1, num_samples=400, num_epoch=1)
    path = tmp_path / "bench.json"
    save(report, path)
    again = from_doc(BenchReport, load_doc(path))
    assert again.mean_speedup == pytest.approx(report.mean_speedup)
    assert again.histogram == report.histogram
    assert len(again.trials) == len(report.trials)
    assert from_doc(BenchReport, to_doc(report)) == report


def test_render_report_and_histogram(tmp_path):
    report = bench(n_trials=4, seed=1, num_samples=400, num_epoch=1)
    text = render_report(report)
    assert "mean" in text.lower()
    assert "| " in text  # markdown table
    hist = tmp_path / "hist.csv"
    save_histogram_csv(report, hist)
    lines = hist.read_text().strip().splitlines()
    assert len(lines) == len(report.histogram) + 1


def test_a_bench_trial_refuses_a_bool_makespan():
    good = BenchTrial((), 10.0, 20.0, 0, 0, 4, 4)
    with pytest.raises(ValidationError, match="^fairness_makespan: must be > 0 seconds, got True"):
        replace(good, fairness_makespan=True)


@pytest.mark.parametrize("bad, message", [
    ({"fairness_violations": 1.5}, "fairness_violations: must be an integer, got 1.5"),
    ({"heuristic_workers": True}, "heuristic_workers: must be an integer, got True"),
    ({"heuristic_workers": "3"}, "heuristic_workers: must be an integer, got '3'"),
    ({"fairness_violations": -1}, "fairness_violations: must be >= 0, got -1"),
    ({"stormy_workers": "nano-1"}, "stormy_workers: expected a tuple of worker ids, got 'nano-1'"),
], ids=["fraction", "bool", "str", "negative", "stormy-str"])
def test_a_bench_trial_refuses_a_value_of_the_wrong_kind(bad, message):
    good = BenchTrial((), 10.0, 20.0, 0, 0, 4, 4)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        replace(good, **bad)


def test_render_report_counts_a_speedup_of_3_2_once():
    # numpy closes the last bin at 3.2, so a trial there is in the table, not outside
    trials = tuple(BenchTrial(stormy_workers=(), heuristic_makespan=10.0,
                              fairness_makespan=fairness, heuristic_violations=0,
                              fairness_violations=0, heuristic_workers=4, fairness_workers=4)
                   for fairness in (32.0, 5.0))
    report = BenchReport(trials=trials, seed=0, jitter=0.0, num_samples=400, num_epoch=1)
    lines = render_report(report).splitlines()
    assert "| 3.0 to 3.2 | 1 |" in lines
    assert "| outside | 1 |" in lines
