# Describe a small edge cluster and ask the estimators what training
# would do to it.
#
# The testbed is one TX2 plus three Nanos, each running a vision stream
# with a 0.2 s deadline next to the training task.

from deepedge import (JobSpec, NodeState, ValidationError, bundle_for, default_registry,
                      default_testbed, validate)

cluster = default_testbed()
job = JobSpec(num_samples=2000, num_epoch=2, source_store="store-0")
print(f"workers: {[w.id for w in cluster.workers]}")

# validate returns nothing for a job the cluster can serve, and raises
# ValidationError naming the fault for one it cannot.
validate(cluster, job)
try:
    validate(cluster, JobSpec(num_samples=2000, num_epoch=2, source_store="store-9"))
except ValidationError as exc:
    print(f"a job on another store: {exc}")

# Per-sample compute time falls with batch size because the backward pass
# amortizes; the update time falls with batch size because fewer rounds
# mean fewer push/pull exchanges per sample.

registry = default_registry()
for dc in ("tx2", "nano"):
    bundle = bundle_for(registry, dc)
    idle = cluster.workers[0].initial_state
    line = ", ".join(
        f"b={b}: {b * bundle.est_compute_time(idle, b):.3f}s/step"
        for b in (1, 4, 16))
    print(f"{dc} step time  {line}")

# Background pressure. Training inflates the resident vision stream's
# execution time; a worker is only eligible if the inflated time still
# meets the app deadline.

nano = bundle_for(registry, "nano")
w = cluster.workers[1]
projected = nano.est_state(w.initial_state, 16)
exec_after = nano.est_exec_time(projected)
print(f"\n{w.id} state before training: cpu={w.initial_state.cpu_util:.2f} "
      f"mem={w.initial_state.mem_util:.2f}")
print(f"{w.id} state with batch 16:   cpu={projected.cpu_util:.2f} "
      f"mem={projected.mem_util:.2f}")
print(f"vision stream exec time under that load: {exec_after:.3f}s "
      f"(deadline {w.background_apps[0].deadline:.1f}s)")

# Memory caps the usable batch range. Scan downward from the hardware
# limit until the footprint projected under the node's load stays under
# the ceiling.

for mem in (0.2, 0.6, 0.85):
    top = nano.max_batch_size(NodeState(0.3, 0.3, mem), b_min=1, b_max=64)
    print(f"mem_util {mem:.2f} -> max batch {top}")

# A worker whose memory is already near the ceiling gets batch 0, which
# the scheduler reads as "leave this one out".
print("saturated:", nano.max_batch_size(NodeState(0.3, 0.3, 0.95), 1, 64))
