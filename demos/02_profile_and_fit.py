# Sweep a device across load levels, then fit per-target regression
# models and check how well they predict held-out grid points.

from deepedge import (NodeState, bundle_for, default_registry, fit_all,
                      fitted_bundle, run_sweep, reference_grid)

truth = bundle_for(default_registry(), "nano")

# The reference grid: 5 cpu x 6 gpu x 5 mem x 11 batch levels = 1650
# points, each measured for compute time, update time, projected cpu,
# gpu and memory state, and background exec time.

plan = reference_grid("nano")
print(f"grid points: {plan.grid_size}")

dataset = run_sweep(truth, plan, seed=0)
reports = fit_all(dataset, seed=0)
print(f"{'target':<12} {'train':>5} {'test':>5} {'test MAPE':>10}")
for target, rep in sorted(reports.items()):
    print(f"{target:<12} {rep.n_train:>5} {rep.n_test:>5} "
          f"{rep.model.test_mape:>9.4f}%")

# The measurements above were noiseless, so the fits recover the
# generating model essentially exactly. Redo the sweep with 5%
# multiplicative noise and 5 repetitions per point.

noisy = run_sweep(truth, reference_grid("nano", noise=0.05), seed=1)
noisy_reports = fit_all(noisy, seed=1)
worst = max(rep.model.test_mape for rep in noisy_reports.values())
print(f"\nwith 5% noise, worst held-out MAPE: {worst:.2f}%")

# fitted_bundle wraps the fits in the same interface the scheduler
# consumes, so a calibrated device can stand in for the built-in profile.

fitted, _ = fitted_bundle("nano-measured", noisy, seed=1)
idle = NodeState(0.0, 0.0, 0.0)
print("fitted vs truth per-step compute time (idle state):")
for b in (2, 8, 16):
    t_true = b * truth.est_compute_time(idle, b)
    t_fit = b * fitted.est_compute_time(idle, b)
    print(f"  b={b:<3} truth {t_true:.4f}s  fitted {t_fit:.4f}s")
