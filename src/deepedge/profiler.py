"""Offline profiling: sweep a device bench, then fit estimator models.

``run_sweep`` walks a factorial grid over node state and batch size and
records one observation per grid point per target. Each target is one
estimator evaluation over the whole grid (update time one per worker-count
level), with the grid's node states as one ``StateTable``. Observations can
carry multiplicative measurement noise; each recorded value summarizes a
number of repeated draws (sample mean for duration targets, 95th percentile
for state targets, matching how the state estimators are defined).

A ``ProfileDataset`` holds one device class's sweep as a float table per
target: one row per point in recording order, one column per
``CSV_COLUMNS[2:]`` (the features, then the value). A fit selects columns,
and the CSV file is the tables one after the other.

``fit`` performs ordinary least squares on the fixed nonlinear basis shared
with the estimators (raw features, pairwise products, and the same divided
by batch size). Sweeps and CSV datasets hold finite values only, and on
finite inputs the least-squares solve gives finite coefficients.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple

import numpy as np

from .documents import ParseError, ValidationError, csv_rows, is_number, spec
from .estimators import (EstimatorBundle, FittedFunction, FEATURES_BY_TARGET,
                         TARGETS, StateTable, design_matrix, basis_terms)

# state target -> the component of the projected state it records
_STATE_FIELDS = {"state_cpu": "cpu_util", "state_gpu": "gpu_util", "state_mem": "mem_util"}

CSV_COLUMNS = ("device_class", "target", "cpu_util", "gpu_util", "mem_util",
               "batch", "ps_cpu_util", "n_workers", "value")
_COLUMN = {name: i for i, name in enumerate(CSV_COLUMNS[2:])}


# parameter-server load and worker count only matter to the update-time
# target; instead of multiplying the grid they cycle deterministically across
# grid points, which keeps the row count at the grid size while still exposing
# variation to the fit
PS_CPU_LEVELS = (0.0, 0.25, 0.5)
N_WORKERS_LEVELS = (1, 2, 4)


@spec
class SweepPlan:
    """Factorial grid over (cpu, gpu, mem, batch), with ``PS_CPU_LEVELS`` and
    ``N_WORKERS_LEVELS`` cycled across its points."""

    cpu_levels: tuple
    gpu_levels: tuple
    mem_levels: tuple
    batch_levels: tuple
    repetitions: int = 5
    noise: float = 0.0

    def __post_init__(self):
        for name in ("cpu_levels", "gpu_levels", "mem_levels", "batch_levels"):
            if not getattr(self, name):
                raise ValidationError(f"sweep.{name}: needs at least one level")
            for v in getattr(self, name):
                if not (is_number(v) or isinstance(v, (np.integer, np.floating))):
                    raise ValidationError(f"sweep.{name}: level {v!r} is not a number")
        for name in ("cpu_levels", "gpu_levels", "mem_levels"):
            for v in getattr(self, name):
                if not 0.0 <= v <= 1.0:
                    raise ValidationError(f"sweep.{name}: level {v} outside [0, 1]")
        for v in self.batch_levels:
            if not (math.isfinite(v) and v >= 1 and int(v) == v):
                raise ValidationError(f"sweep.batch_levels: {v} is not a positive integer")
        reps = self.repetitions
        if isinstance(reps, bool) or not isinstance(reps, (int, np.integer)) or reps < 1:
            raise ValidationError(f"sweep.repetitions: must be an integer >= 1, got {reps!r}")
        if not (is_number(self.noise) and 0.0 <= self.noise < 1.0):
            raise ValidationError(f"sweep.noise: must lie in [0, 1), got {self.noise!r}")

    @property
    def grid_size(self) -> int:
        return (len(self.cpu_levels) * len(self.gpu_levels)
                * len(self.mem_levels) * len(self.batch_levels))


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


@spec
class ProfileDataset:
    """One device class's sweep: target -> float table, one row per point."""

    device_class: str
    tables: dict

    # compared and hashed by identity: its tables are arrays
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __len__(self) -> int:
        return sum(len(table) for table in self.tables.values())

    def arrays(self, target: str):
        """(feature matrix, values) for one target, columns per its feature list."""
        if target not in self.tables:
            raise ValidationError(f"dataset has no rows for target '{target}'")
        table = self.tables[target]
        return table[:, [_COLUMN[name] for name in FEATURES_BY_TARGET[target]]], table[:, -1]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for target, table in self.tables.items():
                writer.writerows([self.device_class, target, c, g, m, int(b), ps, int(n), v]
                                 for c, g, m, b, ps, n, v in table.tolist())


# utilizations are fractions; a batch and a worker count hold one at least
CSV_LIMITS = {"cpu_util": (0.0, 1.0), "gpu_util": (0.0, 1.0), "mem_util": (0.0, 1.0),
              "ps_cpu_util": (0.0, 1.0), "batch": (1, math.inf), "n_workers": (1, math.inf)}


def dataset_from_csv(path) -> ProfileDataset:
    """The sweep in a CSV file, its rows grouped into one table per target.

    A row with an unknown target or another device class than the first row's
    raises ParseError naming ``path:line`` and the column; a file without rows
    one naming ``path``."""
    device_class, rows = None, {}
    for where, (dc, target, *values) in csv_rows(path, CSV_COLUMNS, {
            "cpu_util": float, "gpu_util": float, "mem_util": float, "batch": int,
            "ps_cpu_util": float, "n_workers": int, "value": float}, CSV_LIMITS):
        if target not in TARGETS:
            raise ParseError(f"{where}: target: unknown target {target!r}")
        if device_class is None:
            device_class = dc
        elif dc != device_class:
            raise ParseError(f"{where}: device_class: {dc!r} differs from the first "
                             f"row's {device_class!r}")
        rows.setdefault(target, []).append(values)
    if device_class is None:
        raise ParseError(f"{path}: no data rows")
    return ProfileDataset(device_class, {target: np.array(values, dtype=float)
                                         for target, values in rows.items()})


# --- the bench -------------------------------------------------------------


def run_sweep(bundle: EstimatorBundle, plan: SweepPlan, seed: int = 0) -> ProfileDataset:
    """Measure every target at every grid point, batch levels varying fastest.

    Each target is one estimator evaluation over the whole grid. With
    nonzero noise, each grid point gets ``repetitions`` draws of
    ``truth * (1 + N(0, noise))``, target by target and point by point in
    grid order; duration targets record the sample mean, state targets the
    95th percentile (state estimates are defined as worst-plausible, not
    typical). With zero noise values are exact.
    """
    cpu, gpu, mem, batch = (axis.ravel().astype(float) for axis in np.meshgrid(
        plan.cpu_levels, plan.gpu_levels, plan.mem_levels, plan.batch_levels, indexing="ij"))
    point = np.arange(cpu.size)
    ps = np.array(PS_CPU_LEVELS, dtype=float)[point % len(PS_CPU_LEVELS)]
    n_workers = np.array(N_WORKERS_LEVELS, dtype=float)[
        point // len(PS_CPU_LEVELS) % len(N_WORKERS_LEVELS)]
    features = np.column_stack((cpu, gpu, mem, batch, ps, n_workers))
    batch = batch.astype(int)
    grid = StateTable(cpu, gpu, mem)
    rng = np.random.default_rng(seed)
    projected = None
    tables = {}
    for target in TARGETS:
        if target == "compute_time":
            truth = bundle.est_compute_time(grid, batch)
        elif target == "update_time":
            truth = bundle.est_update_time(grid, batch, StateTable(ps, 0.0, 0.0), n_workers)
        elif target == "exec_time":
            truth = bundle.est_exec_time(grid)
        else:
            if projected is None:
                projected = bundle.est_state(grid, batch)
            truth = getattr(projected, _STATE_FIELDS[target])
        if plan.noise != 0.0:
            draws = truth[:, None] * (1.0 + rng.normal(0.0, plan.noise,
                                                       (cpu.size, plan.repetitions)))
            truth = (np.percentile(draws, 95, axis=1) if target in _STATE_FIELDS
                     else draws.mean(axis=1))
        tables[target] = np.column_stack((features, truth))
    return ProfileDataset(bundle.device_class, tables)


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


class FitReport(NamedTuple):
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


def fit_all(dataset: ProfileDataset, train_fraction: float = 0.84, seed: int = 0) -> dict:
    """target -> FitReport for every target in the dataset."""
    return {t: fit(dataset, t, train_fraction=train_fraction, seed=seed)
            for t in dataset.tables}


def fitted_bundle(device_class: str, dataset: ProfileDataset, base_profile=None,
                  train_fraction: float = 0.84, seed: int = 0):
    """(EstimatorBundle backed by fitted models, target -> FitReport)."""
    reports = fit_all(dataset, train_fraction=train_fraction, seed=seed)
    bundle = EstimatorBundle(device_class=device_class, profile=base_profile,
                             models={t: r.model for t, r in reports.items()})
    return bundle, reports
