"""Offline profiling: sweep a device bench, then fit estimator models.

``run_sweep`` walks a factorial grid over node state and batch size and
records one observation per grid point per target. Observations can carry
multiplicative measurement noise; each recorded value summarizes a number of
repeated draws (sample mean for duration targets, 95th percentile for state
targets, matching how the state estimators are defined).

``fit`` performs ordinary least squares on the fixed nonlinear basis shared
with the estimators (raw features, pairwise products, and the same divided
by batch size), with a ridge fallback if the normal equations are too sick
to solve directly.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cluster import NodeState
from .documents import ValidationError, csv_rows
from .estimators import (EstimatorBundle, FittedFunction, FEATURES_BY_TARGET,
                         TARGETS, design_matrix, basis_terms)

_STATE_TARGETS = ("state_cpu", "state_gpu", "state_mem")

CSV_COLUMNS = ("device_class", "target", "cpu_util", "gpu_util", "mem_util",
               "batch", "ps_cpu_util", "n_workers", "value")


@dataclass(frozen=True)
class SweepPlan:
    """Factorial grid over (cpu, gpu, mem, batch) plus cycled server-side levels.

    Parameter-server load and worker count only matter to the update-time
    target; instead of multiplying the grid they cycle deterministically
    across grid points, which keeps the row count at the grid size while
    still exposing variation to the fit.
    """

    cpu_levels: tuple
    gpu_levels: tuple
    mem_levels: tuple
    batch_levels: tuple
    ps_cpu_levels: tuple = (0.0, 0.25, 0.5)
    n_workers_levels: tuple = (1, 2, 4)
    repetitions: int = 5
    noise: float = 0.0
    targets: tuple = TARGETS

    def __post_init__(self):
        for name in ("cpu_levels", "gpu_levels", "mem_levels", "batch_levels",
                     "ps_cpu_levels", "n_workers_levels"):
            if not getattr(self, name):
                raise ValidationError(f"sweep.{name}: needs at least one level")
        for name in ("cpu_levels", "gpu_levels", "mem_levels", "ps_cpu_levels"):
            for v in getattr(self, name):
                if not 0.0 <= v <= 1.0:
                    raise ValidationError(f"sweep.{name}: level {v} outside [0, 1]")
        for b in self.batch_levels:
            if int(b) != b or b < 1:
                raise ValidationError(f"sweep.batch_levels: {b} is not a positive integer")
        for n in self.n_workers_levels:
            if int(n) != n or n < 1:
                raise ValidationError(f"sweep.n_workers_levels: {n} is not a positive integer")
        if self.repetitions < 1:
            raise ValidationError(f"sweep.repetitions: must be >= 1, got {self.repetitions}")
        if not 0.0 <= self.noise < 1.0:
            raise ValidationError(f"sweep.noise: must lie in [0, 1), got {self.noise}")
        unknown = [t for t in self.targets if t not in TARGETS]
        if unknown:
            raise ValidationError(f"sweep.targets: unknown {unknown}")

    @property
    def grid_size(self) -> int:
        return (len(self.cpu_levels) * len(self.gpu_levels)
                * len(self.mem_levels) * len(self.batch_levels))

    def points(self):
        return itertools.product(self.cpu_levels, self.gpu_levels,
                                 self.mem_levels, self.batch_levels)


def reference_grid(device_class: str = "tx2", repetitions: int = 5,
                   noise: float = 0.0) -> SweepPlan:
    """The reference bench grid: 5 cpu x 6 gpu x 5 mem x 11 batch = 1650 points.

    Levels are chosen so projected states stay clear of the saturation clamp
    for the given device class; batch levels respect its practical range.
    """
    batches = {
        "tx2": (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64),
        "nano": (1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16),
    }
    if device_class not in batches:
        raise ValidationError(f"no reference grid for device class '{device_class}'")
    return SweepPlan(
        cpu_levels=(0.0, 0.15, 0.30, 0.45, 0.60),
        gpu_levels=(0.0, 0.08, 0.16, 0.24, 0.32, 0.40),
        mem_levels=(0.0, 0.10, 0.20, 0.30, 0.40),
        batch_levels=batches[device_class],
        repetitions=repetitions,
        noise=noise,
    )


# --- datasets --------------------------------------------------------------


@dataclass(frozen=True)
class ProfileRow:
    device_class: str
    target: str
    cpu_util: float
    gpu_util: float
    mem_util: float
    batch: int
    ps_cpu_util: float
    n_workers: int
    value: float

    def feature(self, name: str) -> float:
        return float(getattr(self, name))


@dataclass(frozen=True)
class ProfileDataset:
    rows: tuple

    def __post_init__(self):
        for row in self.rows:
            if row.target not in TARGETS:
                raise ValidationError(f"dataset row has unknown target '{row.target}'")

    def __len__(self) -> int:
        return len(self.rows)

    def targets(self) -> tuple:
        seen = []
        for row in self.rows:
            if row.target not in seen:
                seen.append(row.target)
        return tuple(seen)

    def arrays(self, target: str):
        """(feature matrix, values) for one target, columns per its feature list."""
        names = FEATURES_BY_TARGET[target]
        rows = [r for r in self.rows if r.target == target]
        if not rows:
            raise ValidationError(f"dataset has no rows for target '{target}'")
        X = np.asarray([[r.feature(n) for n in names] for r in rows], dtype=float)
        y = np.asarray([r.value for r in rows], dtype=float)
        return X, y

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in self.rows:
                writer.writerow([r.device_class, r.target, r.cpu_util, r.gpu_util,
                                 r.mem_util, r.batch, r.ps_cpu_util, r.n_workers,
                                 r.value])


# utilizations are fractions; a batch and a worker count hold one at least
CSV_LIMITS = {"cpu_util": (0.0, 1.0), "gpu_util": (0.0, 1.0), "mem_util": (0.0, 1.0),
              "ps_cpu_util": (0.0, 1.0), "batch": (1, math.inf), "n_workers": (1, math.inf)}


def dataset_from_csv(path) -> ProfileDataset:
    return ProfileDataset(rows=tuple(ProfileRow(*rec) for rec in csv_rows(path, CSV_COLUMNS, {
        "cpu_util": float, "gpu_util": float, "mem_util": float, "batch": int,
        "ps_cpu_util": float, "n_workers": int, "value": float}, CSV_LIMITS)))


# --- the bench -------------------------------------------------------------


def _truth(bundle: EstimatorBundle, target: str, c, g, m, b, ps, n) -> float:
    state = NodeState(c, g, m)
    if target == "compute_time":
        return bundle.est_compute_time(state, b)
    if target == "update_time":
        return bundle.est_update_time(state, b, NodeState(ps, 0.0, 0.0), n)
    if target == "exec_time":
        return bundle.est_exec_time(state)
    projected = bundle.est_state(state, b)
    return {"state_cpu": projected.cpu_util, "state_gpu": projected.gpu_util,
            "state_mem": projected.mem_util}[target]


def run_sweep(bundle: EstimatorBundle, plan: SweepPlan, seed: int = 0) -> ProfileDataset:
    """Measure every target at every grid point.

    With nonzero noise, each grid point gets ``repetitions`` draws of
    ``truth * (1 + N(0, noise))``; duration targets record the sample mean,
    state targets the 95th percentile (state estimates are defined as
    worst-plausible, not typical). With zero noise values are exact.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for target in plan.targets:
        for i, (c, g, m, b) in enumerate(plan.points()):
            ps = plan.ps_cpu_levels[i % len(plan.ps_cpu_levels)]
            n = plan.n_workers_levels[(i // len(plan.ps_cpu_levels))
                                      % len(plan.n_workers_levels)]
            truth = _truth(bundle, target, c, g, m, int(b), ps, int(n))
            if plan.noise == 0.0:
                value = truth
            else:
                draws = truth * (1.0 + rng.normal(0.0, plan.noise, plan.repetitions))
                if target in _STATE_TARGETS:
                    value = float(np.percentile(draws, 95))
                else:
                    value = float(np.mean(draws))
            rows.append(ProfileRow(bundle.device_class, target, float(c), float(g),
                                   float(m), int(b), float(ps), int(n), value))
    return ProfileDataset(rows=tuple(rows))


# --- fitting ---------------------------------------------------------------


def mape(predictions, truths) -> float:
    """Mean absolute percentage error, in percent."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(truths, dtype=float)
    if p.shape != t.shape or p.size == 0:
        raise ValueError("predictions and truths must be equal-length and non-empty")
    if np.any(np.abs(t) < 1e-12):
        raise ValueError("percentage error undefined: a truth value is zero")
    return float(100.0 * np.mean(np.abs(p - t) / np.abs(t)))


@dataclass(frozen=True)
class FitReport:
    model: FittedFunction
    n_train: int
    n_test: int
    used_ridge: bool = False


def fit(dataset: ProfileDataset, target: str, train_fraction: float = 0.84,
        seed: int = 0, ridge: float = 1e-9) -> FitReport:
    """Least squares over the fixed basis with a held-out split.

    Rows are shuffled with the given seed; the first ``train_fraction`` go to
    training. Raises if the training side cannot determine the basis.
    """
    if target not in TARGETS:
        raise ValidationError(f"unknown fit target '{target}'")
    if not 0.0 < train_fraction <= 1.0:
        raise ValidationError(f"train_fraction must lie in (0, 1], got {train_fraction}")
    X, y = dataset.arrays(target)
    n = len(y)
    names = FEATURES_BY_TARGET[target]
    n_terms = len(basis_terms(names))
    idx = np.random.default_rng(seed).permutation(n)
    n_train = int(round(train_fraction * n))
    train, test = idx[:n_train], idx[n_train:]
    if len(train) < n_terms:
        raise ValidationError(
            f"target '{target}': {len(train)} training rows cannot determine "
            f"{n_terms} basis coefficients")
    A = design_matrix(names, X[train])
    coef, _, rank, _ = np.linalg.lstsq(A, y[train], rcond=None)
    used_ridge = False
    if not np.all(np.isfinite(coef)):
        gram = A.T @ A + ridge * np.eye(A.shape[1])
        coef = np.linalg.solve(gram, A.T @ y[train])
        used_ridge = True
    train_mape = mape(A @ coef, y[train])
    test_mape = None
    if len(test) > 0:
        test_mape = mape(design_matrix(names, X[test]) @ coef, y[test])
    model = FittedFunction(target=target, feature_names=tuple(names),
                           coefficients=tuple(float(c) for c in coef),
                           train_mape=train_mape, test_mape=test_mape)
    return FitReport(model=model, n_train=len(train), n_test=len(test),
                     used_ridge=used_ridge)


def fit_all(dataset: ProfileDataset, targets=None, train_fraction: float = 0.84,
            seed: int = 0) -> dict:
    """target -> FitReport for every requested (or present) target."""
    targets = tuple(targets) if targets is not None else dataset.targets()
    return {t: fit(dataset, t, train_fraction=train_fraction, seed=seed)
            for t in targets}


def fitted_bundle(device_class: str, dataset: ProfileDataset, base_profile=None,
                  train_fraction: float = 0.84, seed: int = 0):
    """(EstimatorBundle backed by fitted models, target -> FitReport)."""
    reports = fit_all(dataset, train_fraction=train_fraction, seed=seed)
    bundle = EstimatorBundle(device_class=device_class, profile=base_profile,
                             models={t: r.model for t, r in reports.items()})
    return bundle, reports
