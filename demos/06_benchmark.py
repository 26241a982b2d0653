# Run the paired benchmark: many randomized stress scenarios, each
# scheduled twice (load-aware vs equal sharding) and replayed through
# the simulator with identical seeds.

import pathlib
import tempfile

from deepedge import bench, render_report, save_histogram_csv
from deepedge.orchestrator import HISTOGRAM_EDGES

report = bench(n_trials=120, seed=0)

print(f"trials: {len(report.trials)}")
print(f"mean speedup:   {report.mean_speedup:.3f}x")
print(f"median speedup: {report.median_speedup:.3f}x")
print(f"share of trials at 1.5x or better: "
      f"{100 * report.frac_speedup_ge_1_5:.1f}%")
print(f"deadline violations  heuristic={report.violations_heuristic}  "
      f"fairness={report.violations_fairness}")

# Speedups bucket into a fixed histogram (0.8x to 3.2x in 0.2x steps)
# so runs with different trial counts stay comparable. The report stores
# only its trials; the histogram and every figure above derive from them.

print("\nspeedup histogram:")
for lo, hi, count in zip(HISTOGRAM_EDGES, HISTOGRAM_EDGES[1:], report.histogram):
    bar = "#" * count
    print(f"  {lo:.1f}-{hi:.1f}x {bar}")

# render_report produces a self-contained markdown summary, and the
# histogram dumps to CSV for plotting elsewhere.

md = render_report(report)
with tempfile.TemporaryDirectory() as tmp:
    out = pathlib.Path(tmp)
    (out / "bench.md").write_text(md)
    save_histogram_csv(report, out / "speedups.csv")
    print(f"\nwrote {out / 'bench.md'} and {out / 'speedups.csv'}")
print("\nreport head:")
print("\n".join(md.splitlines()[:12]))
