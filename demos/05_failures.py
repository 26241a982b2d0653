# Crash workers mid-job and watch detection, re-planning, and the
# three-strike exclusion rule play out.

from deepedge import (CrashEvent, JobSpec, SimConfig, default_testbed,
                      inject_and_recover, run_job, solve)

cluster = default_testbed()
job = JobSpec(num_samples=2000, num_epoch=2, source_store="store-0")
plan = solve(cluster, job)

# One crash: the heartbeat monitor detects it within a period, training
# restarts from a fresh plan on the full worker set. The recovery loop logs
# the phases it drove the job through, and the crash itself.

one = SimConfig(crashes=(CrashEvent("nano-0", 20.0),))
rec = inject_and_recover(cluster, job, plan, seed=0, config=one)
print(f"single crash: status={rec.status}  total {rec.total_time:.1f}s  "
      f"attempts={len(rec.attempts)}  strikes={dict(rec.strikes)}")
for change in rec.phases:
    print(f"  {change.time:8.2f}  {change.phase.value}")
for ev in rec.events:
    print(f"  {ev.time:8.2f}  {ev.kind:<12} {ev.worker}")

# Same worker failing three times gets excluded and the job is re-solved
# on the survivors. The re-solve shifts nano-0's shard onto the others.

three = SimConfig(crashes=(CrashEvent("nano-0", 8.0),
                           CrashEvent("nano-0", 30.0),
                           CrashEvent("nano-0", 60.0)))
rec3 = inject_and_recover(cluster, job, plan, seed=0, config=three)
print(f"\nthree strikes: status={rec3.status}  excluded={rec3.excluded}")
for ev in rec3.events:
    print(f"  {ev.time:8.2f}  {ev.kind:<12} {ev.worker}")
print(f"final plan workers: "
      f"{[a.worker_id for a in rec3.plans[-1].assignments]}")

# run_job puts the request in front of the same phase log: every attempt
# contributes Solved/Transferring/Registered/Running phase stamps, and
# crashes add Interrupted -> Retriggered arcs.

report = run_job(cluster, job, seed=0, config=three)
print(f"\nrun_job status={report.status}  total {report.total_time:.1f}s")
for change in report.phases:
    print(f"  {change.time:8.2f}  {change.phase.value}")

# When every worker has struck out there is nothing left to re-plan on,
# and the job is abandoned rather than silently stalled.

wipeout = SimConfig(max_strikes=1,
                    crashes=(CrashEvent("nano-0", 10.0),
                             CrashEvent("nano-1", 60.0),
                             CrashEvent("nano-2", 140.0),
                             CrashEvent("tx2-0", 260.0)))
dead = run_job(cluster, job, seed=0, config=wipeout)
print(f"\nwipeout script: status={dead.status}  "
      f"excluded={dead.recovery.excluded}")
