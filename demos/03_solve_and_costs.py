# Plan a 2000-sample, 2-epoch update job on the heterogeneous testbed
# and compare the interference-aware shards against equal splitting.

from deepedge import JobSpec, default_testbed, fairness_plan, solve

cluster = default_testbed()
job = JobSpec(num_samples=2000, num_epoch=2, source_store="store-0")

plan = solve(cluster, job)
print(f"method={plan.method}  epoch time {plan.epoch_time:.2f}s  "
      f"total cost {plan.total_cost:.2f}s")
print(f"{'worker':<8} {'samples':>7} {'batch':>5} {'t/sample':>9} {'epoch':>8}")
for a in plan.assignments:
    print(f"{a.worker_id:<8} {a.num_samples:>7} {a.batch_size:>5} "
          f"{a.t_total:>8.4f}s {a.epoch_time:>7.2f}s")

# The TX2 is roughly 1.4x faster per sample, so it absorbs a larger
# shard; every worker still finishes its epoch at nearly the same time.
# Equal sharding ignores that and leaves the Nanos straggling:

fair = fairness_plan(cluster, job)
print(f"\nfairness baseline: epoch time {fair.epoch_time:.2f}s  "
      f"total cost {fair.total_cost:.2f}s")
print(f"speedup from load-aware sharding: "
      f"{fair.total_cost / plan.total_cost:.2f}x")

# With one Nano under heavy external load the solver reshapes the plan.
# If a worker's projected pressure breaks the resident app's deadline or
# its memory is exhausted, the solver removes it and records why.

stressed = default_testbed(stressed=True)
splan = solve(stressed, job)
print(f"\nstressed testbed: {len(splan.assignments)} workers used, "
      f"epoch time {splan.epoch_time:.2f}s")
for r in splan.removed:
    print(f"removed {r.worker_id}: {r.reason}")
for a in splan.assignments:
    print(f"{a.worker_id:<8} {a.num_samples:>7} samples @ batch {a.batch_size}")

# Cost accounting is per worker: data transfer, framework init, then
# num_epoch full epochs. The job cost is the slowest worker's total.

print(f"\naudit: {plan.audit.iterations} whole-round splits priced, "
      f"{plan.audit.candidates_considered} candidate plans considered")
