"""Compare two result sets, such as a parent commit and a change.

    python3 perfbench/run.py compare BASE_DIR NEW_DIR [--regressions-only]

Each directory holds the result files that ``run.py --out DIR`` writes, one
per workload and seed. For every workload and end-to-end metric this prints
each side's median and quartiles over its runs and a verdict:

* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
* ``better``: it is better by more than the parent's own run-to-run spread
  (the distance between its quartiles);
* ``unresolved``: the parent's spread is wider than the bound, so a change
  within it cannot be told from noise, unless every run of the change reads
  better than every run of the parent;
* ``unchanged``: otherwise.

``--regressions-only`` prints the ``worse`` rows alone. The exit code is 0
whatever the verdicts: this is a report, not a gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(directory) -> dict:
    """workload -> metric -> list of values, from the untraced result files."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*/seed*.json")):
        if path.stem.endswith("-trace"):
            continue
        result = json.loads(path.read_text())
        workload = result["environment"]["workload"]
        for name, m in result["end_to_end"].items():
            out.setdefault(workload, {}).setdefault(name, []).append(m["value"])
    return out


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list, new: list, bound: float, lower_is_better: bool) -> str:
    b1, bm, b3 = quartiles(base)
    _, nm, _ = quartiles(new)
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (nm - bm) / abs(bm) if bm else 0.0
    spread = (b3 - b1) / abs(bm) if bm else 0.0
    all_better = (max(new) < min(base)) if lower_is_better else (min(new) > max(base))
    if spread > bound:
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread:
        return "better"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__.split("\n")[0])
    parser.add_argument("base", help="result directory of the parent")
    parser.add_argument("new", help="result directory of the change")
    parser.add_argument("--regressions-only", action="store_true")
    args = parser.parse_args(argv)

    spec = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    base, new = load_set(args.base), load_set(args.new)
    header = (f"{'workload':16s} {'metric':16s} {'unit':5s} {'base q1/median/q3':>32s} "
              f"{'new q1/median/q3':>32s}  verdict")
    print(header)
    for workload in sorted(set(base) & set(new)):
        for name, m in spec.items():
            if name not in base[workload] or name not in new[workload]:
                continue
            b, n = base[workload][name], new[workload][name]
            v = verdict(b, n, m["bound"], m["better"] == "lower")
            if args.regressions_only and v != "worse":
                continue
            fb = "/".join(f"{x:.4g}" for x in quartiles(b))
            fn = "/".join(f"{x:.4g}" for x in quartiles(n))
            print(f"{workload:16s} {name:16s} {m['unit']:5s} {fb:>26s} ({len(b):2d}) "
                  f"{fn:>26s} ({len(n):2d})  {v}")
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload}: only in {'base' if workload in base else 'new'}")
    return 0
