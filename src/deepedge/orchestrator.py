"""Job lifecycle, accuracy-driven epoch refinement, and the comparison bench.

A model-update job moves through a small phase machine: it is requested,
solved into a plan, samples transfer, workers register, training runs, and
the job completes; crashes interrupt and retrigger it, and a job that cannot
be (re)planned is abandoned. ``run_job`` requests the job and solves its
first plan; the simulator's recovery loop writes every phase from there on,
and ``run_job`` returns that log alongside the execution record.

Accuracy over epochs is modeled as a logistic curve fit with a damped
Gauss-Newton loop. The loop runs on Python floats, because a fit sees only a
handful of readings and a 3x3 system, where numpy's per-call overhead would
dominate. ``refine_num_epoch`` uses the fit to shrink a job's epoch budget to
the first epoch expected to reach the target accuracy.

``bench`` compares the interference-aware plan against the equal-sharding
baseline across randomized background-load scenarios. Its serializable report
stores each trial's makespans and deadline violations, and derives every
summary figure from them.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .cluster import ClusterSpec, JobSpec, NodeState, ValidationError, default_testbed
from .documents import is_number, spec
from .estimators import bundle_for, default_registry
from .scheduler import InfeasibleScheduleError, Plan, fairness_plan, late_apps, solve
# validate_transitions and IllegalTransitionError are bound here, unused, for
# perfbench, which checks run_job's phase log through this module
from .simulator import (IllegalTransitionError, JobPhase, PhaseChange, RecoveryResult,
                        SimConfig, inject_and_recover, simulate, validate_transitions,
                        ABANDONED)


# --- accuracy curve -----------------------------------------------------------


GAUSS_NEWTON_MAX_ITER = 100


def logistic(k, L: float, r: float, k0: float):
    k = np.asarray(k, dtype=float)
    # exp overflows to inf far below the midpoint, and L / inf is the right limit 0
    with np.errstate(over="ignore"):
        out = L / (1.0 + np.exp(-r * (k - k0)))
    return float(out) if out.ndim == 0 else out


class LogisticFit(NamedTuple):
    L: float
    r: float
    k0: float
    sse: float
    iterations: int

    def predict(self, k):
        return logistic(k, self.L, self.r, self.k0)


def _sigmoid(z: float) -> float:
    """1 / (1 + exp(z)), 0.0 once exp(z) would overflow a float."""
    return 0.0 if z > 709.0 else 1.0 / (1.0 + math.exp(z))


def _solve3(r0, r1, r2):
    """x solving the 3x3 system given as augmented rows (a_i0, a_i1, a_i2, b_i).

    LU with partial pivoting, as LAPACK's gesv runs it: the row with the
    largest |a_ij| pivots column j, the first such on a tie. None when a
    pivot is exactly zero.
    """
    if abs(r1[0]) > abs(r0[0]) and abs(r1[0]) >= abs(r2[0]):
        r0, r1 = r1, r0
    elif abs(r2[0]) > abs(r0[0]) and abs(r2[0]) > abs(r1[0]):
        r0, r2 = r2, r0
    if r0[0] == 0.0:
        return None
    f1, f2 = r1[0] / r0[0], r2[0] / r0[0]
    r1 = (r1[1] - f1 * r0[1], r1[2] - f1 * r0[2], r1[3] - f1 * r0[3])
    r2 = (r2[1] - f2 * r0[1], r2[2] - f2 * r0[2], r2[3] - f2 * r0[3])
    if abs(r2[0]) > abs(r1[0]):
        r1, r2 = r2, r1
    if r1[0] == 0.0:
        return None
    f = r2[0] / r1[0]
    u22 = r2[1] - f * r1[1]
    if u22 == 0.0:
        return None
    x2 = (r2[2] - f * r1[2]) / u22
    x1 = (r1[2] - r1[1] * x2) / r1[0]
    return (r0[3] - r0[2] * x2 - r0[1] * x1) / r0[0], x1, x2


def _gauss_newton(k: list, y: list, start):
    """Levenberg-style damped Gauss-Newton for the 3-parameter logistic on lists of floats."""
    L, r, k0 = start
    lam = 1e-3

    def evaluate(L, r, k0):
        s = [_sigmoid(-r * (ki - k0)) for ki in k]
        res = [L * si - yi for si, yi in zip(s, y)]
        return s, res, sum([e * e for e in res])

    s, res, sse = evaluate(L, r, k0)
    iterations = 0
    for iterations in range(1, GAUSS_NEWTON_MAX_ITER + 1):
        # J's rows are (s, grad_mid * (k - k0), -grad_mid * r); sum the six
        # distinct entries of J^T J and the three of J^T res in one pass
        haa = hab = hac = hbb = hbc = hcc = ga = gb = gc = 0.0
        for ki, a, e in zip(k, s, res):
            grad_mid = L * a * (1.0 - a)
            b = grad_mid * (ki - k0)
            c = -grad_mid * r
            haa += a * a
            hab += a * b
            hac += a * c
            hbb += b * b
            hbc += b * c
            hcc += c * c
            ga += a * e
            gb += b * e
            gc += c * e
        step = _solve3((haa + lam * (haa + 1e-12), hab, hac, -ga),
                       (hab, hbb + lam * (hbb + 1e-12), hbc, -gb),
                       (hac, hbc, hcc + lam * (hcc + 1e-12), -gc))
        if step is None:
            lam *= 4.0
            continue
        L2 = min(max(L + step[0], 1e-6), 1.0)
        r2 = min(max(r + step[1], 1e-6), 50.0)
        k02 = min(max(k0 + step[2], -1e6), 1e6)
        s2, res2, sse2 = evaluate(L2, r2, k02)
        if sse2 < sse:
            moved = abs(L2 - L) + abs(r2 - r) + abs(k02 - k0)
            L, r, k0, s, res = L2, r2, k02, s2, res2
            improved = sse - sse2
            sse = sse2
            lam = max(lam * 0.5, 1e-12)
            if improved < 1e-14 and moved < 1e-10:
                break
        else:
            lam *= 4.0
            if lam > 1e12:
                break
    return LogisticFit(L=L, r=r, k0=k0, sse=sse, iterations=iterations)


def fit_accuracy_curve(epochs, accuracies) -> LogisticFit:
    """Fit accuracy(k) = L / (1 + exp(-r (k - k0))) to observed epochs.

    Multi-start on the growth rate, best sum of squares wins. Needs at least
    three observations; epochs must be finite and accuracies lie in [0, 1].
    """
    k = np.asarray(epochs, dtype=float)
    y = np.asarray(accuracies, dtype=float)
    if k.shape != y.shape or k.ndim != 1:
        raise ValidationError("epochs and accuracies must be equal-length vectors")
    if k.size < 3:
        raise ValidationError(f"need at least 3 observations to fit, got {k.size}")
    if not np.all(np.isfinite(k)):
        raise ValidationError(f"epochs: must be finite numbers, got {k.tolist()}")
    # written so that NaN fails it too
    if not np.all((y >= 0.0) & (y <= 1.0)):
        raise ValidationError(f"accuracies: must lie in [0, 1], got {y.tolist()}")
    top = float(np.max(y))
    L0 = min(1.0, max(top + 0.05, 0.1))
    half = np.abs(y - top / 2.0)
    k0_guess = float(k[int(np.argmin(half))])
    k_list, y_list = k.tolist(), y.tolist()
    best = None
    for r0 in (0.3, 0.8, 1.5):
        fit = _gauss_newton(k_list, y_list, (L0, r0, k0_guess))
        if best is None or fit.sse < best.sse:
            best = fit
    return best


def crossing_epoch(fit: LogisticFit, target: float) -> float | None:
    """Continuous epoch where the fitted curve reaches the target, None if never."""
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target accuracy must lie in (0, 1], got {target}")
    if target >= fit.L:
        return None
    return fit.k0 - math.log(fit.L / target - 1.0) / fit.r


def _read_observations(observations) -> list:
    """(epoch, accuracy) pairs sorted by epoch; each epoch a whole number >= 0, seen once."""
    obs = {}
    for i, (k, a) in enumerate(observations):
        try:
            epoch, accuracy = float(k), float(a)
        except (TypeError, ValueError):
            raise ValidationError(f"observations[{i}]: epoch and accuracy must be numbers, "
                                  f"got ({k!r}, {a!r})") from None
        if not epoch.is_integer():
            raise ValidationError(f"observations[{i}].epoch: must be a whole number, got {k}")
        if epoch < 0:
            raise ValidationError(f"observations[{i}].epoch: must be >= 0, got {k}")
        if int(epoch) in obs:
            raise ValidationError(f"observations[{i}].epoch: epoch {k} is already observed")
        obs[int(epoch)] = accuracy
    return sorted(obs.items())


def refine_num_epoch(observations, target_accuracy: float | None,
                     current_num_epoch: int) -> int:
    """Shrink an epoch budget to the first epoch expected to hit the target.

    Fits the logistic curve to the observations and returns the first epoch
    whose fitted accuracy reaches the target, clamped between the epochs
    already observed (those cannot be taken back) and the current budget.
    A target the fitted ceiling never reaches leaves the budget unchanged.
    """
    if current_num_epoch < 1:
        raise ValueError(f"current_num_epoch must be >= 1, got {current_num_epoch}")
    if target_accuracy is None:
        return current_num_epoch
    if not 0.0 < target_accuracy <= 1.0:
        raise ValueError(f"target accuracy must be in (0, 1], got {target_accuracy}")
    obs = _read_observations(observations)
    if len(obs) < 3:
        raise ValueError(f"need at least 3 observations, got {len(obs)}")
    fit = fit_accuracy_curve([k for k, _ in obs], [a for _, a in obs])
    k_star = crossing_epoch(fit, target_accuracy)
    if k_star is None:
        return current_num_epoch
    refined = math.ceil(k_star - 1e-9)
    max_observed = max(k for k, _ in obs)
    return int(min(current_num_epoch, max(max_observed, refined)))


# --- running a job through its phases ------------------------------------------


class JobReport(NamedTuple):
    status: str  # completed | abandoned
    phases: tuple  # PhaseChange
    final_plan: Plan | None
    recovery: RecoveryResult | None
    refined_num_epoch: int | None = None
    accuracy_fit: LogisticFit | None = None

    @property
    def total_time(self) -> float:
        return self.phases[-1].time if self.phases else 0.0


def run_job(cluster: ClusterSpec, job: JobSpec, registry: dict | None = None,
            seed: int = 0, config: SimConfig = SimConfig(),
            accuracy_observations=None) -> JobReport:
    """Take a job from request to a terminal phase and report the whole arc."""
    registry = registry if registry is not None else default_registry()
    requested = PhaseChange(0.0, JobPhase.REQUESTED)
    try:
        plan = solve(cluster, job, registry)
    except (InfeasibleScheduleError, ValidationError):
        phases = (requested, PhaseChange(0.0, JobPhase.ABANDONED))
        return JobReport(status=ABANDONED, phases=phases, final_plan=None, recovery=None)
    # the recovery loop writes its phase log legal by construction
    rec = inject_and_recover(cluster, job, plan, registry, seed=seed, config=config)
    phases = (requested,) + rec.phases

    refined = None
    fit = None
    if accuracy_observations is not None and job.target_accuracy is not None:
        obs = _read_observations(accuracy_observations)
        if len(obs) >= 3:
            refined = refine_num_epoch(obs, job.target_accuracy, job.num_epoch)
            fit = fit_accuracy_curve([k for k, _ in obs], [a for _, a in obs])
    return JobReport(status=rec.status, phases=phases, final_plan=rec.plans[-1], recovery=rec,
                     refined_num_epoch=refined, accuracy_fit=fit)


# --- the bench ------------------------------------------------------------------


def draw_states(rng, cluster: ClusterSpec, registry: dict):
    """(worker_id -> NodeState, stormy worker ids) for one random background-load
    scenario: a few workers get hammered, the rest idle.

    Each draw picks a storm size (0, 1 or 2 stormy workers, with probabilities
    0.40, 0.35 and 0.25), then draws a stress level per worker and maps it to
    cpu/gpu/mem utilization. ``tx2`` workers never host a storm; on the
    reference testbed the big board has the thermal and memory headroom to
    shrug off co-located load, so storms concentrate on the small boards where
    they actually bite. Scenarios where a background task already misses its
    deadline before any training lands are redrawn, so every trial starts from
    a healthy cluster. Raises ValidationError, naming a background task the
    last draw made late, if none of 1000 draws passes.
    """
    candidates = [w.id for w in cluster.workers if w.device_class != "tx2"]
    missed = "nothing drawn"
    for _ in range(1000):
        size = min(int(rng.choice(3, p=(0.40, 0.35, 0.25))), len(candidates))
        stormy = set(rng.choice(candidates, size=size, replace=False)) if size else set()
        states = {}
        for w in cluster.workers:
            s = rng.uniform(0.75, 1.0) if w.id in stormy else rng.uniform(0.0, 0.3)
            states[w.id] = NodeState(
                cpu_util=float(np.clip(0.80 * s + rng.uniform(0, 0.05), 0, 1)),
                gpu_util=float(np.clip(0.90 * s + rng.uniform(0, 0.05), 0, 1)),
                mem_util=float(np.clip(0.20 + 0.40 * s + rng.uniform(0, 0.05), 0, 1)))
        missed = None
        for w in cluster.workers:
            idle_exec = bundle_for(registry, w.device_class).est_exec_time(states[w.id])
            late = late_apps(w, idle_exec)
            if late:
                missed = (f"worker '{w.id}' runs background task '{late[0].id}' in "
                          f"{idle_exec:.4f} s, over its {late[0].deadline:.4f} s deadline")
                break
        if missed is None:
            return states, tuple(sorted(str(w) for w in stormy))
    raise ValidationError(f"could not draw a healthy stress scenario in 1000 tries "
                          f"(last: {missed}); loosen the background deadlines")


@spec
class BenchTrial:
    """One scenario run under both plans; its index is its place in the report."""

    stormy_workers: tuple[str, ...]
    heuristic_makespan: float
    fairness_makespan: float
    heuristic_violations: int
    fairness_violations: int
    heuristic_workers: int
    fairness_workers: int

    def __post_init__(self):
        stormy = self.stormy_workers
        if not (isinstance(stormy, tuple) and all(isinstance(w, str) for w in stormy)):
            raise ValidationError(f"stormy_workers: expected a tuple of worker ids, got {stormy!r}")
        for name in ("heuristic_makespan", "fairness_makespan"):
            if not (is_number(value := getattr(self, name)) and value > 0.0):
                raise ValidationError(f"{name}: must be > 0 seconds, got {value}")
        for name in ("heuristic_violations", "fairness_violations",
                     "heuristic_workers", "fairness_workers"):
            if type(value := getattr(self, name)) is not int:
                raise ValidationError(f"{name}: must be an integer, got {value!r}")
            if value < 0:
                raise ValidationError(f"{name}: must be >= 0, got {value}")

    @property
    def speedup(self) -> float:
        """Equal sharding's makespan over the interference-aware plan's."""
        return self.fairness_makespan / self.heuristic_makespan


HISTOGRAM_EDGES = tuple(round(0.8 + 0.2 * i, 1) for i in range(13))  # 0.8 .. 3.2


@spec
class BenchReport:
    """A bench run's trials and settings; each summary figure derives from the trials."""

    DOCUMENT = "bench report"
    trials: tuple[BenchTrial, ...]
    seed: int
    jitter: float
    num_samples: int
    num_epoch: int

    def __post_init__(self):
        if not self.trials:
            raise ValidationError("bench report.trials: at least one trial is required")

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def _speedups(self) -> np.ndarray:
        return np.asarray([tr.speedup for tr in self.trials])

    @property
    def mean_speedup(self) -> float:
        return float(np.mean(self._speedups))

    @property
    def median_speedup(self) -> float:
        return float(np.median(self._speedups))

    @property
    def min_speedup(self) -> float:
        return float(np.min(self._speedups))

    @property
    def max_speedup(self) -> float:
        return float(np.max(self._speedups))

    @property
    def frac_speedup_ge_1_5(self) -> float:
        return float(np.mean(self._speedups >= 1.5))

    @property
    def violations_heuristic(self) -> int:
        return int(sum(tr.heuristic_violations for tr in self.trials))

    @property
    def violations_fairness(self) -> int:
        return int(sum(tr.fairness_violations for tr in self.trials))

    @property
    def histogram(self) -> tuple[int, ...]:
        """Trial counts between consecutive ``HISTOGRAM_EDGES``, the last bin closed."""
        counts, _ = np.histogram(self._speedups, bins=np.asarray(HISTOGRAM_EDGES))
        return tuple(int(c) for c in counts)


def bench(cluster: ClusterSpec | None = None, registry: dict | None = None,
          n_trials: int = 120, seed: int = 0, jitter: float = 0.03,
          num_samples: int = 1800, num_epoch: int = 2) -> BenchReport:
    """Compare the interference-aware plan against equal sharding over many trials.

    Both plans for a trial execute against the same cluster scenario, drawn by
    ``draw_states``, with the same simulation seed, so the speedup isolates
    scheduling quality. Speedup is the fairness makespan divided by the
    heuristic makespan.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    cluster = cluster if cluster is not None else default_testbed()
    registry = registry if registry is not None else default_registry()
    store = cluster.data_stores[0]
    job = JobSpec(num_samples=num_samples, num_epoch=num_epoch, source_store=store)
    rng = np.random.default_rng(seed)
    trials = []
    for t in range(n_trials):
        states, stormy = draw_states(rng, cluster, registry)
        trial_cluster = replace(cluster, workers=tuple(
            replace(w, initial_state=states[w.id]) for w in cluster.workers))
        plan_h = solve(trial_cluster, job, registry)
        plan_f = fairness_plan(trial_cluster, job, registry)
        sim_seed = int(np.random.SeedSequence([seed, t]).generate_state(1)[0])
        cfg = SimConfig(jitter=jitter, trace_level="none")
        res_h = simulate(trial_cluster, job, plan_h, registry, seed=sim_seed, config=cfg)
        res_f = simulate(trial_cluster, job, plan_f, registry, seed=sim_seed, config=cfg)
        trials.append(BenchTrial(
            stormy_workers=stormy,
            heuristic_makespan=res_h.makespan, fairness_makespan=res_f.makespan,
            heuristic_violations=len(res_h.violations),
            fairness_violations=len(res_f.violations),
            heuristic_workers=len(plan_h.assignments),
            fairness_workers=len(plan_f.assignments)))
    return BenchReport(trials=tuple(trials), seed=seed, jitter=jitter,
                       num_samples=num_samples, num_epoch=num_epoch)


def render_report(report: BenchReport) -> str:
    """Markdown summary of a bench run."""
    lines = [
        "# Scheduling bench",
        "",
        f"- trials: {report.n_trials} (seed {report.seed}, jitter {report.jitter})",
        f"- job: {report.num_samples} samples, {report.num_epoch} epochs",
        f"- mean speedup over equal sharding: **{report.mean_speedup:.3f}x**",
        f"- median {report.median_speedup:.3f}x, range "
        f"[{report.min_speedup:.3f}x, {report.max_speedup:.3f}x]",
        f"- trials at or above 1.5x: {100 * report.frac_speedup_ge_1_5:.1f}%",
        f"- background deadline violations: {report.violations_heuristic} "
        f"(interference-aware) vs {report.violations_fairness} (equal sharding)",
        "",
        "## Speedup histogram",
        "",
        "| bin | count |",
        "| --- | --- |",
    ]
    for low, high, count in zip(HISTOGRAM_EDGES, HISTOGRAM_EDGES[1:], report.histogram):
        lines.append(f"| {low:.1f} to {high:.1f} | {count} |")
    outside = report.n_trials - sum(report.histogram)
    if outside:
        lines.append(f"| outside | {outside} |")
    lines.append("")
    return "\n".join(lines)


def save_histogram_csv(report: BenchReport, path) -> None:
    rows = ["bin_low,bin_high,count"]
    for low, high, count in zip(HISTOGRAM_EDGES, HISTOGRAM_EDGES[1:], report.histogram):
        rows.append(f"{low:.2f},{high:.2f},{count}")
    Path(path).write_text("\n".join(rows) + "\n")
