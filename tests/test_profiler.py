import csv
import dataclasses
import itertools
import re

import numpy as np
import pytest

from deepedge import (EstimatorBundle, NodeState, ParametricProfile, ParseError,
                      ValidationError, bundle_for, dataset_from_csv,
                      default_registry, fit, fit_all, fitted_bundle, mape,
                      run_sweep, reference_grid)
from deepedge.estimators import DEVICE_PROFILES, FEATURES_BY_TARGET, TARGETS
from deepedge.profiler import (CSV_COLUMNS, N_WORKERS_LEVELS, PS_CPU_LEVELS, ProfileDataset,
                               SweepPlan)


def small_plan(noise=0.0):
    return SweepPlan(cpu_levels=(0.0, 0.2, 0.4), gpu_levels=(0.0, 0.2),
                     mem_levels=(0.0, 0.2), batch_levels=(1, 4, 8, 16), noise=noise)


def _rows(data):
    """The dataset as CSV-like rows: (device_class, target, *features, value)."""
    return [(data.device_class, target, c, g, m, int(b), ps, int(n), value)
            for target, table in data.tables.items()
            for c, g, m, b, ps, n, value in table.tolist()]


def _same_tables(a, b):
    return (a.device_class == b.device_class and list(a.tables) == list(b.tables)
            and all(np.array_equal(a.tables[t], b.tables[t]) for t in a.tables))


def test_reference_grid_size():
    plan = reference_grid("tx2")
    assert plan.grid_size == 1650


def test_sweep_noiseless_matches_oracle_exactly():
    bundle = bundle_for(default_registry(), "tx2")
    data = run_sweep(bundle, small_plan(), seed=0)
    for _, target, c, g, m, b, _, _, value in _rows(data):
        state = NodeState(c, g, m)
        if target == "compute_time":
            assert value == bundle.est_compute_time(state, b)
        elif target == "exec_time":
            assert value == bundle.est_exec_time(state)
        elif target == "state_mem":
            assert value == bundle.est_state(state, b).mem_util


def test_sweep_deterministic_per_seed():
    bundle = bundle_for(default_registry(), "nano")
    plan = small_plan(noise=0.05)
    assert _same_tables(run_sweep(bundle, plan, seed=3), run_sweep(bundle, plan, seed=3))
    assert not _same_tables(run_sweep(bundle, plan, seed=3), run_sweep(bundle, plan, seed=4))


def test_sweep_plan_validation():
    with pytest.raises(ValidationError):
        SweepPlan(cpu_levels=(), gpu_levels=(0,), mem_levels=(0,), batch_levels=(1,))
    with pytest.raises(ValidationError):
        SweepPlan(cpu_levels=(1.2,), gpu_levels=(0,), mem_levels=(0,), batch_levels=(1,))
    with pytest.raises(ValidationError):
        SweepPlan(cpu_levels=(0,), gpu_levels=(0,), mem_levels=(0,), batch_levels=(0,))
    with pytest.raises(ValidationError):
        small_plan(noise=-0.1)


@pytest.mark.parametrize("field, value", [
    ("repetitions", 2.5),
    ("repetitions", True),
    ("batch_levels", (1, float("nan"))),
    ("batch_levels", (float("inf"),)),
    ("cpu_levels", ("0.1",)),
    ("cpu_levels", (True,)),
    ("batch_levels", ("2",)),
    ("batch_levels", (True,)),
    ("noise", "0.1"),
])
def test_sweep_plan_names_a_bad_field(field, value):
    with pytest.raises(ValidationError, match=rf"^sweep\.{field}: "):
        dataclasses.replace(small_plan(), **{field: value})


def _reference_sweep(bundle, plan, seed):
    """The sweep point by point: one scalar estimator call per grid point and
    target, and one noise draw of ``repetitions`` per point."""
    def truth(target, state, b, ps, n):
        if target == "compute_time":
            return bundle.est_compute_time(state, b)
        if target == "update_time":
            return bundle.est_update_time(state, b, NodeState(ps, 0.0, 0.0), n)
        if target == "exec_time":
            return bundle.est_exec_time(state)
        projected = bundle.est_state(state, b)
        return {"state_cpu": projected.cpu_util, "state_gpu": projected.gpu_util,
                "state_mem": projected.mem_util}[target]

    rng = np.random.default_rng(seed)
    rows = []
    for target in TARGETS:
        for i, (c, g, m, b) in enumerate(itertools.product(
                plan.cpu_levels, plan.gpu_levels, plan.mem_levels, plan.batch_levels)):
            ps = PS_CPU_LEVELS[i % len(PS_CPU_LEVELS)]
            n = N_WORKERS_LEVELS[(i // len(PS_CPU_LEVELS)) % len(N_WORKERS_LEVELS)]
            value = truth(target, NodeState(c, g, m), int(b), ps, int(n))
            if plan.noise != 0.0:
                draws = value * (1.0 + rng.normal(0.0, plan.noise, plan.repetitions))
                value = float(np.percentile(draws, 95) if target.startswith("state_")
                              else np.mean(draws))
            rows.append((bundle.device_class, target, float(c), float(g), float(m), int(b),
                         float(ps), int(n), value))
    return rows


def _reprs(rows):
    return [tuple(repr(field) for field in row) for row in rows]


@pytest.mark.parametrize("fitted", [False, True], ids=["parametric", "fitted"])
@pytest.mark.parametrize("noise", [0.0, 0.04])
@pytest.mark.parametrize("repetitions", [1, 5])
@pytest.mark.parametrize("targets", [TARGETS, ("state_mem", "update_time", "exec_time",
                                               "state_cpu")], ids=["all", "subset"])
def test_sweep_matches_the_point_by_point_reference(fitted, noise, repetitions, targets,
                                                    random_fitted_registry):
    """``targets`` are estimated the ``fitted`` way, by random fitted models or
    by the built-in profile, and the other targets the other way, so the
    subset cases sweep bundles that mix the two."""
    models = random_fitted_registry(np.random.default_rng(11))
    fitted_targets = set(targets) if fitted else set(TARGETS) - set(targets)
    registry = {dc: EstimatorBundle(dc, DEVICE_PROFILES[dc], {
        t: fn for t, fn in models[dc].models.items() if t in fitted_targets}) for dc in models}
    # 80 grid points: neither the 3 PS levels nor the 3 x 3 level pairs divide them
    plan = SweepPlan(cpu_levels=(0.0, 0.3, 0.55, 0.7), gpu_levels=(0.05, 0.4),
                     mem_levels=(0.0, 0.45), batch_levels=(1, 3, 8, 16, 64),
                     repetitions=repetitions, noise=noise)
    for device_class in ("tx2", "nano"):
        bundle = registry[device_class]
        got = _rows(run_sweep(bundle, plan, seed=7))
        assert _reprs(got) == _reprs(_reference_sweep(bundle, plan, seed=7))


def test_reference_grid_sweep_matches_the_point_by_point_reference():
    bundle = bundle_for(default_registry(), "nano")
    plan = reference_grid("nano", noise=0.02)
    assert _reprs(_rows(run_sweep(bundle, plan, seed=1))) == _reprs(
        _reference_sweep(bundle, plan, seed=1))


def test_dataset_arrays_match_the_per_cell_construction(tmp_path):
    bundle = bundle_for(default_registry(), "tx2")
    rows = _rows(run_sweep(bundle, small_plan(noise=0.02), seed=3))
    np.random.default_rng(4).shuffle(rows)  # targets interleaved, as a CSV may hold them
    path = tmp_path / "sweep.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([CSV_COLUMNS] + rows)
    data = dataset_from_csv(path)
    for target, names in FEATURES_BY_TARGET.items():
        X, y = data.arrays(target)
        mine = [r for r in rows if r[1] == target]
        want_X = np.asarray([[float(r[CSV_COLUMNS.index(n)]) for n in names] for r in mine])
        want_y = np.asarray([r[-1] for r in mine])
        assert X.shape == want_X.shape and y.shape == want_y.shape
        assert np.array_equal(X, want_X) and np.array_equal(y, want_y)


def test_sweep_makes_as_many_estimator_calls_on_one_point_as_on_the_reference_grid(
        monkeypatch):
    calls = []

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)
        return wrapper

    for name, method in list(vars(EstimatorBundle).items()):
        if callable(method) and not name.startswith("_"):
            monkeypatch.setattr(EstimatorBundle, name, counted(name, method))
    bundle = bundle_for(default_registry(), "tx2")

    def count(plan):
        calls.clear()
        run_sweep(bundle, plan, seed=0)
        return len(calls)

    one_point = SweepPlan(cpu_levels=(0.1,), gpu_levels=(0.2,), mem_levels=(0.1,),
                          batch_levels=(4,), noise=0.02)
    assert count(one_point) > 0
    assert count(one_point) == count(reference_grid("tx2", noise=0.02))


def test_mape_basics():
    assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mape([1.1, 2.2], [1.0, 2.0]) == pytest.approx(10.0)
    assert mape([2.0, 3.0], [1.0, 2.0]) == pytest.approx(75.0)


def test_mape_rejects_zero_truth():
    with pytest.raises(ValueError):
        mape([1.0], [0.0])
    with pytest.raises(ValueError):
        mape([], [])


def test_fit_recovers_noiseless_model():
    bundle = bundle_for(default_registry(), "tx2")
    data = run_sweep(bundle, reference_grid("tx2"), seed=0)
    reports = fit_all(data, seed=0)
    for target, report in reports.items():
        assert report.model.test_mape < 0.5, target


def test_fit_split_matches_reference_counts():
    bundle = bundle_for(default_registry(), "nano")
    data = run_sweep(bundle, reference_grid("nano"), seed=1)
    report = fit(data, "compute_time", train_fraction=0.84, seed=1)
    assert report.n_train == 1386
    assert report.n_test == 264


def test_fit_noisy_sweeps_stay_accurate():
    bundle = bundle_for(default_registry(), "nano")
    data = run_sweep(bundle, reference_grid("nano", noise=0.05), seed=2)
    reports = fit_all(data, seed=2)
    for target, report in reports.items():
        assert report.model.test_mape <= 10.0, (target, report.model.test_mape)


def test_fit_shuffled_labels_does_not_crash():
    bundle = bundle_for(default_registry(), "tx2")
    data = run_sweep(bundle, small_plan(), seed=0)
    rng = np.random.default_rng(9)
    tables = {target: table.copy() for target, table in data.tables.items()}
    for table in tables.values():
        table[:, -1] = rng.permutation(table[:, -1])
    shuffled = ProfileDataset(data.device_class, tables)
    reports = fit_all(shuffled, seed=0)
    for report in reports.values():
        assert np.isfinite(report.model.train_mape)


def test_fit_rejects_tiny_training_side():
    bundle = bundle_for(default_registry(), "tx2")
    plan = SweepPlan(cpu_levels=(0.0, 0.3), gpu_levels=(0.0,), mem_levels=(0.0,),
                     batch_levels=(1, 2))
    data = run_sweep(bundle, plan, seed=0)
    with pytest.raises(ValidationError):
        fit(data, "compute_time", train_fraction=0.9, seed=0)


def test_fitted_bundle_predicts_like_the_oracle():
    reg = default_registry()
    oracle = bundle_for(reg, "tx2")
    data = run_sweep(oracle, reference_grid("tx2"), seed=0)
    fitted, reports = fitted_bundle("tx2", data, seed=0)
    assert set(reports) == {"compute_time", "update_time", "state_cpu",
                            "state_gpu", "state_mem", "exec_time"}
    rng = np.random.default_rng(13)
    for trial in range(100):
        state = NodeState(float(rng.uniform(0, 0.6)), float(rng.uniform(0, 0.4)),
                          float(rng.uniform(0, 0.4)))
        b = int(rng.integers(1, 64))
        want = oracle.est_compute_time(state, b)
        got = fitted.est_compute_time(state, b)
        assert got == pytest.approx(want, rel=0.02)


def test_dataset_csv_round_trip(tmp_path):
    bundle = bundle_for(default_registry(), "nano")
    data = run_sweep(bundle, small_plan(noise=0.02), seed=5)
    path = tmp_path / "sweep.csv"
    data.to_csv(path)
    again = dataset_from_csv(path)
    assert len(again) == len(data)
    assert _same_tables(again, data)


@pytest.mark.parametrize("column, value, named", [
    ("cpu_util", "nan", "cpu_util: expected a finite number, got 'nan'"),
    ("value", "inf", "value: expected a finite number, got 'inf'"),
    ("batch", "16.5", "batch: expected a whole number, got '16.5'"),
    ("n_workers", "inf", "n_workers: expected a whole number, got 'inf'"),
    ("target", "bogus", "target: unknown target 'bogus'"),
    ("device_class", "tx2", "device_class: 'tx2' differs from the first row's 'nano'"),
    (None, None, "no data rows"),  # the header alone
])
def test_dataset_csv_names_a_bad_number(column, value, named, tmp_path):
    good = dict(zip(CSV_COLUMNS, ["nano", "compute_time", "0.1", "0.1", "0.1", "16",
                                  "0.2", "2", "0.5"]))
    path = tmp_path / "sweep.csv"
    text = ",".join(CSV_COLUMNS) + "\n\n"
    where = f"{path}"
    if column is not None:
        # a good row, then the bad one at line 4
        text += ",".join(good.values()) + "\n" + ",".join({**good, column: value}.values()) + "\n"
        where += ":4"
    path.write_text(text)
    with pytest.raises(ParseError, match="^" + re.escape(f"{where}: {named}") + "$"):
        dataset_from_csv(path)


def test_dataset_csv_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_bytes(",".join(CSV_COLUMNS).encode() + b"\n\x7fELF\x02\x01\xd0\xff\n")
    with pytest.raises(ParseError, match="^" + re.escape(f"{path}: not UTF-8 text") + "$"):
        dataset_from_csv(path)


def test_dataset_csv_reads_past_a_byte_order_mark(tmp_path):
    # spreadsheet exports start UTF-8 text with EF BB BF
    bundle = bundle_for(default_registry(), "nano")
    plain, bom = tmp_path / "sweep.csv", tmp_path / "bom.csv"
    run_sweep(bundle, small_plan(noise=0.02), seed=5).to_csv(plain)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert _same_tables(dataset_from_csv(bom), dataset_from_csv(plain))
    # the mark excuses no bad bytes after it
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes() + b"\xd0\xff\n")
    with pytest.raises(ParseError, match="^" + re.escape(f"{bom}: not UTF-8 text") + "$"):
        dataset_from_csv(bom)
