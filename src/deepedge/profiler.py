"""Offline profiling: sweep a device bench, then fit estimator models.

``run_sweep`` walks a factorial grid over node state and batch size and
records one observation per grid point per target. Each target is one
estimator evaluation over the whole grid (update time one per worker-count
level), with the grid's node states as one ``StateTable``. Observations can
carry multiplicative measurement noise; each recorded value summarizes a
number of repeated draws (sample mean for duration targets, 95th percentile
for state targets, matching how the state estimators are defined).

``fit`` performs ordinary least squares on the fixed nonlinear basis shared
with the estimators (raw features, pairwise products, and the same divided
by batch size). Sweeps and CSV datasets hold finite values only, and on
finite inputs the least-squares solve gives finite coefficients.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .documents import ValidationError, csv_rows
from .estimators import (EstimatorBundle, FittedFunction, FEATURES_BY_TARGET,
                         TARGETS, StateTable, design_matrix, basis_terms)

# state target -> the component of the projected state it records
_STATE_FIELDS = {"state_cpu": "cpu_util", "state_gpu": "gpu_util", "state_mem": "mem_util"}

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
        for name in ("batch_levels", "n_workers_levels"):
            for v in getattr(self, name):
                if not (math.isfinite(v) and v >= 1 and int(v) == v):
                    raise ValidationError(f"sweep.{name}: {v} is not a positive integer")
        reps = self.repetitions
        if isinstance(reps, bool) or not isinstance(reps, (int, np.integer)) or reps < 1:
            raise ValidationError(f"sweep.repetitions: must be an integer >= 1, got {reps!r}")
        if not 0.0 <= self.noise < 1.0:
            raise ValidationError(f"sweep.noise: must lie in [0, 1), got {self.noise}")
        unknown = [t for t in self.targets if t not in TARGETS]
        if unknown:
            raise ValidationError(f"sweep.targets: unknown {unknown}")
        twice = sorted({t for t in self.targets if self.targets.count(t) > 1})
        if twice:
            raise ValidationError(f"sweep.targets: {twice} listed more than once")

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


class ProfileRow(NamedTuple):
    device_class: str
    target: str
    cpu_util: float
    gpu_util: float
    mem_util: float
    batch: int
    ps_cpu_util: float
    n_workers: int
    value: float


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
        columns = operator.attrgetter(*names, "value")
        table = np.array([columns(r) for r in rows], dtype=float)
        return table[:, :-1], table[:, -1]

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


def run_sweep(bundle: EstimatorBundle, plan: SweepPlan, seed: int = 0) -> ProfileDataset:
    """Measure every target at every grid point.

    Each target is one estimator evaluation over the whole grid, and update
    time one per worker-count level. With nonzero noise, each grid point gets
    ``repetitions`` draws of ``truth * (1 + N(0, noise))``, target by target
    and point by point in grid order; duration targets record the sample mean,
    state targets the 95th percentile (state estimates are defined as
    worst-plausible, not typical). With zero noise values are exact.
    """
    ps_levels = tuple(float(ps) for ps in plan.ps_cpu_levels)
    n_levels = tuple(int(n) for n in plan.n_workers_levels)
    # each point's row fields; the levels are shared, not copied per row
    points = [(float(c), float(g), float(m), int(b), ps_levels[i % len(ps_levels)],
               n_levels[i // len(ps_levels) % len(n_levels)])
              for i, (c, g, m, b) in enumerate(plan.points())]
    cpu, gpu, mem, batch, ps, _ = np.array(points, dtype=float).T
    batch = batch.astype(int)
    grid = StateTable(cpu, gpu, mem)
    level = np.arange(len(points)) // len(ps_levels) % len(n_levels)
    rng = np.random.default_rng(seed)
    projected = None
    rows = []
    for target in plan.targets:
        if target == "compute_time":
            truth = bundle.est_compute_time(grid, batch)
        elif target == "update_time":
            truth = np.empty(len(points))
            for k, n in enumerate(n_levels):
                at = level == k
                truth[at] = bundle.est_update_time(StateTable(cpu[at], gpu[at], mem[at]),
                                                   batch[at], StateTable(ps[at], 0.0, 0.0), n)
        elif target == "exec_time":
            truth = bundle.est_exec_time(grid)
        else:
            if projected is None:
                projected = bundle.est_state(grid, batch)
            truth = getattr(projected, _STATE_FIELDS[target])
        if plan.noise != 0.0:
            draws = truth[:, None] * (1.0 + rng.normal(0.0, plan.noise,
                                                       (len(points), plan.repetitions)))
            truth = (np.percentile(draws, 95, axis=1) if target in _STATE_FIELDS
                     else draws.mean(axis=1))
        rows += [ProfileRow(bundle.device_class, target, *point, value)
                 for point, value in zip(points, truth.tolist())]
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


def fit(dataset: ProfileDataset, target: str, train_fraction: float = 0.84,
        seed: int = 0) -> FitReport:
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
    coef = np.linalg.lstsq(A, y[train], rcond=None)[0]
    train_mape = mape(A @ coef, y[train])
    test_mape = None
    if len(test) > 0:
        test_mape = mape(design_matrix(names, X[test]) @ coef, y[test])
    model = FittedFunction(target=target, feature_names=tuple(names),
                           coefficients=tuple(float(c) for c in coef),
                           train_mape=train_mape, test_mape=test_mape)
    return FitReport(model=model, n_train=len(train), n_test=len(test))


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
