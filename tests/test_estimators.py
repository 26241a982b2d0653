import numpy as np
import pytest

from deepedge import (EstimatorBundle, NodeState, ParametricProfile,
                      ValidationError, bundle_for, default_registry,
                      load_registry, save_registry)
from deepedge.estimators import DEVICE_PROFILES

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
        assert bundle.est_state(sat, 16) == sat


def test_state_projection_strictly_above_idle():
    tx2 = bundle_for(default_registry(), "tx2")
    new = tx2.est_state(IDLE, 8)
    assert new.cpu_util > 0 and new.gpu_util > 0 and new.mem_util > 0


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
    assert tx2.max_batch_size(0.95, 1, 64) == 0
    generous = ParametricProfile(base_forward=0.1, base_mem_footprint=0.0,
                                 mem_per_batch_unit=0.0)
    bundle = EstimatorBundle(device_class="g", profile=generous)
    assert bundle.max_batch_size(0.0, 1, 64) == 64


def test_max_batch_linear_scan_value():
    prof = ParametricProfile(base_forward=0.1, base_mem_footprint=0.2,
                             mem_per_batch_unit=0.01)
    bundle = EstimatorBundle(device_class="c", profile=prof)
    # 0.3 + 0.2 + 0.01 b <= 0.95 gives b = 45, however far above it the scan starts
    for b_max in (64, 10 ** 6):
        assert bundle.max_batch_size(0.3, 1, b_max) == 45


def test_max_batch_matches_linear_scan_on_fitted_models(random_fitted_registry):
    rng = np.random.default_rng(8)
    registry = random_fitted_registry(rng)
    for bundle in registry.values():
        for b_max in (64, 2500):
            mem = float(rng.uniform(0.0, 0.6))
            probe = NodeState(0.0, 0.0, mem)
            # a ceiling some batch sizes in range meet and others miss
            ceiling = bundle.est_state(probe, int(rng.integers(1, b_max + 1))).mem_util
            scan = next((b for b in range(b_max, 0, -1)
                         if bundle.est_state(probe, b).mem_util <= ceiling), 0)
            assert bundle.max_batch_size(mem, 1, b_max, ceiling) == scan


@pytest.mark.parametrize("kind", ["parametric", "fitted"])
def test_max_batch_over_arrays_matches_one_call_per_worker(kind, random_fitted_registry):
    rng = np.random.default_rng(9)
    registry = default_registry() if kind == "parametric" else random_fitted_registry(rng)
    for bundle in registry.values():
        # ranges within one block and across several, with some workers out of memory
        mem = rng.uniform(0.0, 1.0, 40)
        b_min = rng.integers(1, 40, 40)
        b_max = b_min + rng.choice([0, 15, 1023, 1024, 3000], 40)
        ceiling = float(rng.uniform(0.5, 0.95))
        batched = bundle.max_batch_size(mem, b_min, b_max, ceiling)
        assert batched.tolist() == [bundle.max_batch_size(float(m), int(lo), int(hi), ceiling)
                                    for m, lo, hi in zip(mem, b_min, b_max)]
        assert 0 < np.count_nonzero(batched) < 40


def test_max_batch_rejects_bad_array_entries():
    nano = bundle_for(default_registry(), "nano")
    with pytest.raises(ValueError, match="mem_util"):
        nano.max_batch_size(np.array([0.2, 1.2]), np.array([1, 1]), np.array([16, 16]))
    with pytest.raises(ValueError, match="b_min"):
        nano.max_batch_size(np.array([0.2, 0.2]), np.array([1, 8]), np.array([16, 4]))


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
