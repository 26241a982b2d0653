import re
from dataclasses import replace

import numpy as np
import pytest

from deepedge import (ClusterSpec, EstimatorBundle, FittedFunction, JobSpec, NodeState,
                      ParametricProfile, ValidationError, WorkerSpec, basis_terms, bundle_for,
                      default_registry, fitted_bundle, load_registry, reference_grid, run_sweep,
                      save_registry)
from deepedge import estimators, scheduler
from deepedge.estimators import DEVICE_PROFILES, FEATURES_BY_TARGET

IDLE = NodeState(0.0, 0.0, 0.0)


def random_profile(rng):
    return ParametricProfile(
        base_forward=float(rng.uniform(0.01, 0.5)),
        base_backward=float(rng.uniform(0.0, 1.0)),
        cpu_slope=float(rng.uniform(0.0, 1.0)),
        gpu_slope=float(rng.uniform(0.0, 1.0)),
        base_push=float(rng.uniform(0.0, 0.3)),
        base_pull=float(rng.uniform(0.0, 0.3)),
        ps_update=float(rng.uniform(0.0, 0.5)),
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


def test_step_time_calibration():
    reg = default_registry()
    tx2 = bundle_for(reg, "tx2")
    nano = bundle_for(reg, "nano")
    assert 16 * tx2.est_compute_time(IDLE, 16) == pytest.approx(1.89, rel=1e-12)
    assert 16 * nano.est_compute_time(IDLE, 16) == pytest.approx(2.69, rel=1e-12)


def test_compute_time_amortizes_backward():
    tx2 = bundle_for(default_registry(), "tx2")
    assert tx2.est_compute_time(IDLE, 64) < tx2.est_compute_time(IDLE, 1)


def test_compute_time_rejects_zero_batch():
    tx2 = bundle_for(default_registry(), "tx2")
    with pytest.raises(ValueError):
        tx2.est_compute_time(IDLE, 0)


def test_update_time_grows_with_worker_count():
    nano = bundle_for(default_registry(), "nano")
    ps = NodeState(0.2, 0.0, 0.1)
    t1 = nano.est_update_time(IDLE, 8, ps, 1)
    t4 = nano.est_update_time(IDLE, 8, ps, 4)
    assert t4 > t1


def test_update_time_grows_with_ps_load():
    nano = bundle_for(default_registry(), "nano")
    lo = nano.est_update_time(IDLE, 8, NodeState(0.0, 0.0, 0.0), 2)
    hi = nano.est_update_time(IDLE, 8, NodeState(0.8, 0.0, 0.0), 2)
    assert hi > lo


def test_update_time_idle_decomposition():
    prof = ParametricProfile(base_forward=0.1, base_push=0.2, base_pull=0.3,
                             ps_update=0.4)
    bundle = EstimatorBundle(device_class="x", profile=prof)
    # no slopes, no contention, and a huge batch leaves only the base sum
    t = bundle.est_update_time(IDLE, 10 ** 9, IDLE, 1)
    assert t == pytest.approx(0.2 + 0.3 + 0.4, rel=1e-6)


def test_update_time_rejects_zero_workers():
    nano = bundle_for(default_registry(), "nano")
    with pytest.raises(ValueError):
        nano.est_update_time(IDLE, 8, IDLE, 0)


@pytest.mark.parametrize("kind", ["parametric", "fitted"])
@pytest.mark.parametrize("batch", [0, -3, np.array([4, 0, 8])], ids=["zero", "negative", "array"])
def test_update_components_rejects_batches_below_one(kind, batch, random_fitted_registry):
    """Like the other estimates, the round's parts refuse a batch below 1,
    where the closed form would divide by zero or return plausible times."""
    registry = (default_registry() if kind == "parametric"
                else random_fitted_registry(np.random.default_rng(2)))
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        registry["nano"].update_components(IDLE, batch, IDLE)


def test_state_projection_never_frees_resources():
    rng = np.random.default_rng(3)
    for trial in range(300):
        bundle = EstimatorBundle(device_class="r", profile=random_profile(rng))
        state = NodeState(*(float(v) for v in rng.uniform(0, 1, 3)))
        b = int(rng.integers(1, 128))
        new = bundle.est_state(state, b)
        assert new.cpu_util >= state.cpu_util
        assert new.gpu_util >= state.gpu_util
        assert new.mem_util >= state.mem_util
        assert max(new.cpu_util, new.gpu_util, new.mem_util) <= 1.0


def test_state_projection_saturated_fixed_point():
    for dc in ("tx2", "nano"):
        bundle = bundle_for(default_registry(), dc)
        sat = NodeState(1.0, 1.0, 1.0)
        assert tuple(bundle.est_state(sat, 16)) == (sat.cpu_util, sat.gpu_util, sat.mem_util)


def test_state_projection_strictly_above_idle():
    tx2 = bundle_for(default_registry(), "tx2")
    new = tx2.est_state(IDLE, 8)
    assert new.cpu_util > 0 and new.gpu_util > 0 and new.mem_util > 0


@pytest.mark.parametrize("kind", ["fitted", "mixed", "parametric"])
def test_state_projection_is_each_targets_estimate_clamped(kind):
    """``est_state`` is each state target's own estimate, clamped to
    [current, 1], bit for bit, for one node state and for a table of them: a
    fitted bundle evaluates the three targets on one shared design, a mixed
    one (GPU state parametric) and a parametric one target by target."""
    nano = default_registry()["nano"]
    fitted, _ = fitted_bundle("nano", run_sweep(nano, reference_grid("nano", noise=0.02), seed=1))
    bundle = {"fitted": fitted, "parametric": nano,
              "mixed": EstimatorBundle("nano", profile=DEVICE_PROFILES["nano"], models={
                  t: m for t, m in fitted.models.items() if t != "state_gpu"})}[kind]

    def one_by_one(state, b):
        features = {"cpu_util": state.cpu_util, "gpu_util": state.gpu_util,
                    "mem_util": state.mem_util, "batch": b}
        return [bundle.models[t].predict(features) if t in bundle.models
                else getattr(bundle.profile, t)(state, b, None, 1)
                for t in ("state_cpu", "state_gpu", "state_mem")]

    rng = np.random.default_rng(23)
    for _ in range(200):
        state = NodeState(*(float(v) for v in rng.uniform(0.0, 0.7, 3)))
        b = int(rng.integers(1, 64))
        now = (state.cpu_util, state.gpu_util, state.mem_util)
        want = [min(1.0, max(low, value)) for low, value in zip(now, one_by_one(state, b))]
        got = bundle.est_state(state, b)
        assert type(got) is estimators.StateTable
        assert [got.cpu_util, got.gpu_util, got.mem_util] == want
    table = estimators.StateTable(*rng.uniform(0.0, 0.7, (3, 500)))
    batches = rng.integers(1, 64, 500)
    got = bundle.est_state(table, batches)
    assert type(got) is estimators.StateTable
    for now, value, column in zip(table, one_by_one(table, batches), got):
        assert np.array_equal(column, np.minimum(1.0, np.maximum(now, value)))
        # most projections land strictly inside (current, 1), so the clamp hides nothing
        assert ((column > now) & (column < 1.0)).mean() > 0.5


def test_exec_time_baseline_and_growth():
    nano = bundle_for(default_registry(), "nano")
    base = DEVICE_PROFILES["nano"].bg_base_exec
    assert nano.est_exec_time(IDLE) == pytest.approx(base)
    assert nano.est_exec_time(NodeState(0.9, 0.9, 0.9)) > base


def test_pressure_example_violates_tight_deadline():
    # a heavily loaded small board projects past a 200 ms deadline
    nano = bundle_for(default_registry(), "nano")
    projected = nano.est_state(NodeState(0.55, 0.65, 0.45), 1)
    exec_time = nano.est_exec_time(projected)
    assert exec_time > 0.2
    assert exec_time == pytest.approx(0.20936, rel=1e-6)


def test_max_batch_boundaries():
    tx2 = bundle_for(default_registry(), "tx2")
    assert tx2.max_batch_size(NodeState(0.0, 0.0, 0.95), 1, 64) == 0
    generous = ParametricProfile(base_forward=0.1, base_mem_footprint=0.0,
                                 mem_per_batch_unit=0.0)
    bundle = EstimatorBundle(device_class="g", profile=generous)
    assert bundle.max_batch_size(NodeState(0.0, 0.0, 0.0), 1, 64) == 64


def test_max_batch_linear_scan_value():
    prof = ParametricProfile(base_forward=0.1, base_mem_footprint=0.2,
                             mem_per_batch_unit=0.01)
    bundle = EstimatorBundle(device_class="c", profile=prof)
    # 0.3 + 0.2 + 0.01 b <= 0.95 gives b = 45, however far above it the scan starts
    state = NodeState(0.0, 0.0, 0.3)
    for b_max in (64, 10 ** 6):
        assert bundle.max_batch_size(state, 1, b_max) == 45
    assert type(bundle.max_batch_size(state, 1, 64)) is int


def test_max_batch_matches_linear_scan_on_fitted_models(random_fitted_registry, monkeypatch):
    rng = np.random.default_rng(8)
    registry = random_fitted_registry(rng)
    found = []
    for bundle in registry.values():
        for b_max in (64, 2500):
            # memory is projected under the node's CPU and GPU load as well
            probe = NodeState(*(float(v) for v in rng.uniform(0.0, 0.6, 3)))
            # a ceiling some batch sizes in range meet and others miss
            ceiling = bundle.est_state(probe, int(rng.integers(1, b_max + 1))).mem_util
            scan = next((b for b in range(b_max, 0, -1)
                         if bundle.est_state(probe, b).mem_util <= ceiling), 0)
            monkeypatch.setattr(estimators, "MEM_CEILING", ceiling)
            assert bundle.max_batch_size(probe, 1, b_max) == scan
        # ranges from b_min above 1, within one block and across several, with
        # some nodes out of memory
        for width in (0, 15, 1023, 1024, 3000):
            b_min = int(rng.integers(2, 40))
            probe = NodeState(*(float(v) for v in rng.uniform(0.0, 0.7, 2)),
                              float(rng.uniform(0.0, 1.0)))
            ceiling = float(rng.uniform(0.5, 0.95))
            scan = next((b for b in range(b_min + width, b_min - 1, -1)
                         if bundle.est_state(probe, b).mem_util <= ceiling), 0)
            monkeypatch.setattr(estimators, "MEM_CEILING", ceiling)
            found.append(bundle.max_batch_size(probe, b_min, b_min + width))
            assert found[-1] == scan
    assert 0 < np.count_nonzero(found) < len(found)


@pytest.mark.parametrize("kind", ["parametric", "fitted"])
def test_max_batch_over_arrays_matches_one_call_per_worker(kind, random_fitted_registry,
                                                           monkeypatch):
    """solve's tables read every worker's memory cap off one projection over
    arrays of rows; each cap is what max_batch_size gives for that worker."""
    rng = np.random.default_rng(9)
    registry = default_registry() if kind == "parametric" else random_fitted_registry(rng)
    for device in registry:
        # ranges within one block and across several, with some workers out of memory
        cpu, gpu = rng.uniform(0.0, 0.7, (2, 40))
        mem = rng.uniform(0.0, 1.0, 40)
        b_min = rng.integers(1, 40, 40)
        b_max = b_min + rng.choice([0, 15, 1023, 1024, 3000], 40)
        ceiling = float(rng.uniform(0.5, 0.95))
        monkeypatch.setattr(estimators, "MEM_CEILING", ceiling)
        monkeypatch.setattr(scheduler, "MEM_CEILING", ceiling)
        workers = tuple(WorkerSpec(f"{device}-{i}", device, NodeState(*map(float, s)),
                                   b_min=int(lo), b_max=int(hi),
                                   per_sample_transfer_cost={"store-0": 0.001})
                        for i, (s, lo, hi) in enumerate(zip(zip(cpu, gpu, mem), b_min, b_max)))
        cluster = ClusterSpec(workers, NodeState(0.1, 0.0, 0.3), ("store-0",))
        # a job no smaller than any b_max, so that no range is cut at the job
        job = JobSpec(int(b_max.max()), 1, "store-0")
        caps = scheduler._Tables(cluster, registry, job).cap
        bundle = registry[device]
        one_per_worker = [bundle.max_batch_size(w.initial_state, w.b_min, w.b_max)
                          for w in workers]
        assert caps.tolist() == one_per_worker
        assert 0 < np.count_nonzero(caps) < 40


def test_max_batch_refuses_bounds_out_of_order():
    nano = bundle_for(default_registry(), "nano")
    for b_min, b_max in ((0, 16), (8, 4)):
        with pytest.raises(ValueError, match=re.escape(
                f"need 1 <= b_min <= b_max, got [{b_min}, {b_max}]")):
            nano.max_batch_size(IDLE, b_min, b_max)


def test_estimators_deterministic():
    rng = np.random.default_rng(5)
    bundle = bundle_for(default_registry(), "nano")
    for trial in range(100):
        state = NodeState(*(float(v) for v in rng.uniform(0, 1, 3)))
        b = int(rng.integers(1, 64))
        assert bundle.est_compute_time(state, b) == bundle.est_compute_time(state, b)
        assert bundle.est_state(state, b) == bundle.est_state(state, b)


def test_profile_validation():
    with pytest.raises(ValidationError):
        EstimatorBundle(device_class="x",
                        profile=ParametricProfile(base_forward=0.0))
    with pytest.raises(ValidationError):
        EstimatorBundle(device_class="x",
                        profile=ParametricProfile(base_forward=0.1, cpu_slope=-1.0))
    # a bundle needs either a profile or a full set of fitted models
    with pytest.raises(ValidationError):
        EstimatorBundle(device_class="x")


def _constant_exec_model(seconds):
    """A fitted exec-time model that predicts ``seconds`` under every state."""
    names = FEATURES_BY_TARGET["exec_time"]
    return FittedFunction("exec_time", names,
                          (seconds,) + (0.0,) * (len(basis_terms(names)) - 1))


def test_bundle_models_cannot_change_after_a_first_estimate():
    bundle = EstimatorBundle("nano", DEVICE_PROFILES["nano"])
    before = bundle.est_exec_time(IDLE)
    with pytest.raises(TypeError):
        bundle.models["exec_time"] = _constant_exec_model(5.0)
    assert "exec_time" not in bundle.models
    assert bundle.est_exec_time(IDLE) == before


def test_bundle_models_cannot_take_a_target_the_check_refuses():
    bundle = EstimatorBundle("nano", DEVICE_PROFILES["nano"])
    with pytest.raises(TypeError):
        bundle.models["bogus"] = _constant_exec_model(5.0)
    assert dict(bundle.models) == {}


def test_bundle_models_are_not_the_dict_they_were_built_from():
    models = {}
    bundle = EstimatorBundle("nano", DEVICE_PROFILES["nano"], models)
    models["exec_time"] = _constant_exec_model(5.0)
    assert dict(bundle.models) == {}
    assert bundle.est_exec_time(IDLE) == DEVICE_PROFILES["nano"].exec_time(IDLE, None, None, 1)


@pytest.mark.parametrize("name", ["base_forward", "contention_slope", "base_mem_footprint"])
def test_a_profile_refuses_a_bool_for_a_number(name):
    with pytest.raises(ValidationError, match=f"^{name}: must"):
        replace(DEVICE_PROFILES["nano"], **{name: True})


def test_registry_round_trip(tmp_path):
    reg = default_registry()
    path = tmp_path / "registry.json"
    save_registry(reg, path)
    again = load_registry(path)
    assert set(again) == set(reg)
    for dc in reg:
        assert again[dc].profile == reg[dc].profile
    # the built-in registry loads when no path is given
    builtin = load_registry(None)
    assert set(builtin) == set(DEVICE_PROFILES)


_ENTRY = "registry.devices['nano']"


@pytest.mark.parametrize("entry, message", [
    ({"type": "parametric", "profile": {"base_forward": 0.1}, "base": "nano"},
     f"{_ENTRY}: expected a 'parametric' entry with only a profile, or a 'fitted' one"),
    ({"type": "magic", "profile": {"base_forward": 0.1}},
     f"{_ENTRY}: expected a 'parametric' entry with only a profile, or a 'fitted' one"),
    ({"type": "fitted", "base": "xavier"},
     f"{_ENTRY}.base: unknown built-in device class 'xavier'"),
    ({"type": "fitted"},
     f"{_ENTRY}: bundle 'nano': no profile and no fitted model for ['compute_time', "
     f"'update_time', 'state_cpu', 'state_gpu', 'state_mem', 'exec_time']"),
    ({"type": "parametric", "profile": {"base_forward": 0.0}},
     f"{_ENTRY}.profile: base_forward: must be > 0 seconds/sample, got 0.0"),
    ({"type": "parametric", "profile": {"base_forward": 0.1, "speed": 1.0}},
     f"{_ENTRY}.profile: unknown field 'speed'"),
    ({"type": "parametric", "profile": {"base_forward": "fast"}},
     f"{_ENTRY}.profile.base_forward: expected a number, got 'fast'"),
    ({"type": "parametric", "profile": [0.1]},
     f"{_ENTRY}.profile: expected an object, got [0.1]"),
])
def test_registry_refuses_a_bad_entry_naming_it(entry, message):
    with pytest.raises(ValidationError) as err:
        estimators.registry_from_doc({"schema": 1, "devices": {"nano": entry}})
    assert str(err.value) == message


def test_bundle_for_an_unknown_class_names_it():
    with pytest.raises(ValidationError, match="device class 'xavier'"):
        bundle_for(default_registry(), "xavier")


@pytest.mark.parametrize("target", estimators.TARGETS)
def test_fitted_predictions_match_the_basis_term_by_term(target):
    """The design matrix equals each basis term computed on its own, and a
    prediction equals its row of terms times the coefficients summed over a
    row-major matrix, bit for bit, for one point and for many."""
    rng = np.random.default_rng(5)
    names = estimators.FEATURES_BY_TARGET[target]
    terms = estimators.basis_terms(names)
    model = estimators.FittedFunction(target, names, tuple(rng.uniform(-1, 1, len(terms))))
    for n_points in (1, 3, 40):
        X = rng.uniform(0.0, 1.0, (n_points, len(names)))
        if "batch" in names:
            X[:, names.index("batch")] = rng.integers(1, 500, n_points)
        reference = np.array([[(x[idx[0]] if idx else 1.0) * (x[idx[1]] if len(idx) > 1 else 1.0)
                               / (x[names.index("batch")] if divided else 1.0)
                               for _, idx, divided in terms] for x in X])
        D = estimators.design_matrix(names, X)
        assert D.flags.c_contiguous and np.array_equal(D, reference)
        predicted = model.predict(dict(zip(names, X.T)))
        assert np.array_equal(predicted, (reference * model._coefficients).sum(axis=1))
        assert model.predict(dict(zip(names, X[0]))) == predicted[0]
        assert model.predict(tuple(X[0])) == predicted[0]
        assert np.array_equal(model.predict(tuple(X.T)), predicted)
    # estimate passes its features by position: the same model as by name,
    # with coefficients that keep times above their floor
    model = replace(model, coefficients=tuple(rng.uniform(0.1, 1, len(terms))))
    point = {"cpu_util": 0.3, "gpu_util": 0.5, "mem_util": 0.2, "batch": 16,
             "ps_cpu_util": 0.4, "n_workers": 3}
    assert (model.estimate(NodeState(0.3, 0.5, 0.2), 16, NodeState(0.4, 0.0, 0.0), 3)
            == model.predict({name: point[name] for name in names}))
