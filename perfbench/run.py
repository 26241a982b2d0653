"""deepedge benchmark: closed-loop request workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload testbed-paired --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one table
    python3 perfbench/run.py compare BASE_DIR NEW_DIR [--regressions-only]
    python3 perfbench/run.py ladder                            # one-shot solve scaling ladder

The last line of a workload run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The full result,
with the environment record, is written under ``perfbench/out/results``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

BENCHMARK = ROOT / "BENCHMARK.json"

# Written and printed with the end-to-end metrics but not gated by a bound. The
# first two are 0 on a correct program, and a load-aware deadline violation
# already fails its request, so both show in the result's ``failed`` count; the
# raw figures are the measured times before host-speed calibration.
REPORTED_UNITS = {"failed_frac": "ratio", "deadline_violations": "count",
                  "raw_setup_s": "s", "raw_requests_per_s": "1/s",
                  "raw_request_ms_p50": "ms"}

# Set-up runs once before the loop, for the run to use, and then this many
# times more at even intervals through the untraced loop, timed like a request
# (the parametric set-up takes ~50 ms, the fitted one ~1 s); setup_s is the
# median of those.
SETUP_REPS = {"fitted-testbed": 3}
DEFAULT_SETUP_REPS = 15
WARMUP_REQUESTS = 3
# Each request runs at least this many times in the untraced loop; its latency
# is the median over its executions.
PASSES = 2

# Host-speed calibration. Other tenants of a shared host slow a run down by up
# to 2x, for stretches of a second to minutes. A fixed kernel of the
# benchmark's own runs before every request and every set-up, and each of
# their times is rescaled by REFERENCE_KERNEL_S ÷ the median kernel time
# within CAL_WINDOW_S of it: the time the work would take with the host at the
# speed at which the kernel takes REFERENCE_KERNEL_S. Both are timed in the
# same place, so what slows one slows the other.
CAL_ITERS = 40
CAL_LOOP = 3000
CAL_BUFFER = 1 << 20   # float64s: 8 MB, four times the host's per-core L2 cache
CAL_READS = 2000
CAL_STRIDE = 648_391   # odd, so successive reads walk the whole buffer
# about the kernel's time between requests on the 2-vCPU Xeon host the
# benchmark was set up on
REFERENCE_KERNEL_S = 0.0003
CAL_WINDOW_S = 0.5


def pin_threads() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def environment(args, threads: dict) -> dict:
    import numpy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "threads": threads,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_sha() -> str | None:
    """HEAD of the checkout; None outside a git repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# --- host-speed calibration ------------------------------------------------------

_CAL_DATA: dict = {"next": 0}


def kernel_seconds() -> float:
    """Seconds one run of the calibration kernel takes.

    It does Python arithmetic and dict updates, small numpy calls, reads
    scattered over a buffer four times the size of the L2 cache and a plain
    interpreter loop, the mix a deepedge request is made of. (Without the
    loop, the kernel sped up more than compute-bound requests did when the
    host was quiet; without the reads, less than memory-bound ones.) Each run
    reads other places of the buffer, so that what the request before it left
    in the caches hardly matters. The collector is off, so the size of the
    program's heap does not either.
    """
    import numpy
    if "buffer" not in _CAL_DATA:
        _CAL_DATA["buffer"] = numpy.random.default_rng(0).random(CAL_BUFFER)
        _CAL_DATA["vector"] = numpy.linspace(0.0, 1.0, 64)
    buf, vec = _CAL_DATA["buffer"], _CAL_DATA["vector"]
    first = _CAL_DATA["next"]
    _CAL_DATA["next"] = (first + CAL_READS) % CAL_BUFFER
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, buckets = 0.0, {}
        for i in range(CAL_ITERS):
            x = i * 0.001
            buckets[i % 17] = buckets.get(i % 17, 0.0) + 1.5 * x
            acc += float(vec.dot(vec) * x) + max(x, 0.5)
        where = (numpy.arange(first, first + CAL_READS) * CAL_STRIDE) % CAL_BUFFER
        acc += float(buf[where].sum())
        acc += sum(i * 0.5 for i in range(CAL_LOOP))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def rescale(records: list) -> None:
    """Set each record's ``scaled`` time: its ``seconds`` at the reference host speed.

    Records carry ``start``, ``seconds`` and ``cal``, the kernel time taken just
    before them, and are in start order.
    """
    lo = hi = 0
    for r in records:
        while records[lo]["start"] < r["start"] - CAL_WINDOW_S:
            lo += 1
        while hi < len(records) and records[hi]["start"] <= r["start"] + CAL_WINDOW_S:
            hi += 1
        local = statistics.median(x["cal"] for x in records[lo:hi])
        r["scaled"] = r["seconds"] * REFERENCE_KERNEL_S / local


# --- set-up -------------------------------------------------------------------


def fresh_import():
    """Import deepedge from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "deepedge" or m.startswith("deepedge.")]:
        del sys.modules[name]
    deepedge = importlib.import_module("deepedge")
    if Path(deepedge.__file__).resolve().parent != SRC / "deepedge":
        raise ImportError(f"deepedge imported from {deepedge.__file__}, not from {SRC}")
    return {name: mod for name, mod in sys.modules.items()
            if name == "deepedge" or name.startswith("deepedge.")}


def build_registry(modules: dict, workload: str, seed: int) -> tuple:
    """(registry, profiler figures) for the workload."""
    est, prof = modules["deepedge.estimators"], modules["deepedge.profiler"]
    registry = est.default_registry()
    figures = {"profiler.sweep_s": 0.0, "profiler.fit_s": 0.0,
               "profiler.rows": 0, "profiler.test_mape_max": 0.0}
    if workload != "fitted-testbed":
        return registry, figures
    t0 = time.perf_counter()
    datasets = {dev: prof.run_sweep(registry[dev], prof.reference_grid(dev, noise=0.02), seed=seed)
                for dev in ("tx2", "nano")}
    t1 = time.perf_counter()
    reports = {dev: prof.fit_all(ds) for dev, ds in datasets.items()}
    t2 = time.perf_counter()
    fitted = {dev: est.EstimatorBundle(device_class=dev, models={t: r.model for t, r in reps.items()})
              for dev, reps in reports.items()}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"registry-{os.getpid()}.json"
    try:
        est.save_registry(fitted, path)
        registry = est.load_registry(path)
    finally:
        path.unlink(missing_ok=True)
    figures.update({
        "profiler.sweep_s": t1 - t0,
        "profiler.fit_s": t2 - t1,
        "profiler.rows": sum(len(ds) for ds in datasets.values()),
        "profiler.test_mape_max": max(r.model.test_mape for reps in reports.values()
                                      for r in reps.values()),
    })
    return registry, figures


def setup(workload: str, seed: int) -> tuple:
    """(modules, registry, profiler figures): import deepedge and build the registry."""
    modules = fresh_import()
    return (modules,) + build_registry(modules, workload, seed)


# --- the closed loop ------------------------------------------------------------


def closed_loop(workloads, layers, api, workload, pool, registry, seconds, passes,
                tracer=None, setup_again=None, setup_reps=0):
    """One caller, next request after the last, cycling through the pool until
    ``seconds`` have passed and every request has run ``passes`` times.

    ``setup_again`` is called ``setup_reps`` times, the k-th when k/setup_reps of
    ``seconds`` have passed, and timed like a request.

    Returns (loop seconds, one record per execution, one record per set-up). A
    request that raises or fails a check is counted as failed and the loop goes on.
    """
    runner = workloads.RUNNERS[workload]
    records, setups = [], []
    start = time.perf_counter()
    i = 0
    while i < passes * len(pool) or time.perf_counter() - start < seconds:
        if len(setups) < setup_reps and (time.perf_counter() - start
                                         >= len(setups) * seconds / setup_reps):
            gc.collect()  # each set-up starts from a collected heap, as in a fresh process
            cal = kernel_seconds()
            t0 = time.perf_counter()
            setup_again()
            setups.append({"start": t0, "seconds": time.perf_counter() - t0, "cal": cal})
        req = pool[i % len(pool)]
        scope = tracer.span("request", request=i) if tracer is not None else nullcontext()
        cal = kernel_seconds()
        t0 = time.perf_counter()
        with scope:
            try:
                out = runner(api, req, registry)
                problems = workloads.check(api, workload, out)
                digest = workloads.output_digest(out)
            except Exception as exc:  # the loop must keep running; the failure is recorded
                out, digest = None, None
                problems = [f"raised {type(exc).__name__}: {exc}",
                            traceback.format_exc(limit=4)]
        latency = time.perf_counter() - t0
        records.append({
            "request": i, "index": req.index, "start": t0, "seconds": latency, "cal": cal,
            "problems": problems,
            "digest": digest,
            "summary": layers.summarize(workload, out) if out is not None and not problems else None,
        })
        i += 1
    rescale(sorted(records + setups, key=lambda r: r["start"]))
    return time.perf_counter() - start, records, setups


def judge(records: list, seen: dict) -> tuple:
    """(failed count, problems); a repeated request must give the output it gave
    the first time, traced or not. ``seen`` maps pool index to that output's digest."""
    failed, problems = 0, []
    for r in records:
        earlier = seen.setdefault(r["index"], r["digest"])
        if not r["problems"] and r["digest"] != earlier:
            r["problems"] = ["output differs from the same request's first run"]
        if r["problems"]:
            failed += 1
            if len(problems) < 20:
                problems.append(f"request {r['request']} (pool {r['index']}): {r['problems'][0]}")
    return failed, problems


def request_latencies(records: list, key: str = "scaled") -> list:
    """Each pool request's median latency over its executions, in seconds."""
    by_request: dict = {}
    for r in records:
        by_request.setdefault(r["index"], []).append(r[key])
    return [statistics.median(v) for v in by_request.values()]


def run_workload(args, pool: list) -> dict:
    """Set up, run the pool in a closed loop (and again traced, with
    ``args.trace``), check every output and measure."""
    threads = pin_threads()
    import workloads
    import layers
    import tracing

    modules, registry, figures = setup(args.workload, args.seed)
    setup_figures = [figures]

    def setup_again():
        """Set up afresh; the run goes on with its own modules and registry."""
        setup_figures.append(setup(args.workload, args.seed)[2])
        sys.modules.update(modules)

    api = workloads.Api(modules)
    for req in pool[:WARMUP_REQUESTS]:
        workloads.RUNNERS[args.workload](api, req, registry)

    loop_s, records, setups = closed_loop(
        workloads, layers, api, args.workload, pool, registry, args.seconds, PASSES,
        setup_again=setup_again, setup_reps=SETUP_REPS.get(args.workload, DEFAULT_SETUP_REPS))
    setup_times = [r["scaled"] for r in setups]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    seen: dict = {}
    failed, problems = judge(records, seen)
    first_pass = records[:len(pool)]
    ok = [r for r in first_pass if not r["problems"]]
    latencies = request_latencies(records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "requests": len(pool),
        "executions": len(records),
        "loop_s": loop_s,
        "input_digest": workloads.pool_digest(pool),
        "output_digest": _digest([r["digest"] or "failed" for r in first_pass]),
        "setup_s_each": setup_times,
        "problems": problems,
        "environment": environment(args, threads),
    }
    e2e = {
        "setup_s": statistics.median(setup_times),
        "requests_per_s": len(latencies) / sum(latencies),
        "request_ms_p50": 1e3 * statistics.median(latencies),
        "request_ms_p90": 1e3 * layers.p90(latencies),
        "makespan_s_mean": (statistics.mean(r["summary"]["makespan"] for r in ok)
                            if ok else float("nan")),
        "peak_rss_mb": peak_rss_mb,
    }
    reported = {
        "failed_frac": failed / len(records),
        "deadline_violations": sum(r["summary"]["violations"] for r in ok),
        "raw_setup_s": statistics.median(r["seconds"] for r in setups),
        "raw_requests_per_s": len(records) / sum(r["seconds"] for r in records),
        "raw_request_ms_p50": 1e3 * statistics.median(r["seconds"] for r in records),
    }
    result["end_to_end"] = with_units(e2e, "end_to_end")
    result["reported"] = {k: {"value": v, "unit": REPORTED_UNITS[k]} for k, v in reported.items()}

    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed(modules):
            _, t_records, _ = closed_loop(workloads, layers, api, args.workload, pool, registry,
                                       args.seconds, 1, tracer)
        t_failed, t_problems = judge(t_records, seen)
        summaries = {r["request"]: r["summary"] for r in t_records if r["summary"] is not None}
        span_issues = layers.span_problems(tracer, summaries,
                                           fitted=args.workload == "fitted-testbed")
        result["correct"] = result["correct"] and t_failed == 0 and not span_issues
        result["attempted"] += len(t_records)
        result["failed"] += t_failed
        result["problems"] += t_problems + span_issues[:20]
        overhead = (statistics.median(request_latencies(t_records))
                    / statistics.median(latencies) - 1.0)
        per_layer = layers.layer_metrics(tracer, list(summaries.values()),
                                         [r["seconds"] for r in t_records], overhead,
                                         {k: min(f[k] for f in setup_figures) for k in figures})
        result["per_layer"] = with_units(per_layer, "per_layer")
        result["traced_executions"] = len(t_records)
        spans = Path(args.out) / args.workload / f"seed{args.seed}-spans.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans)
    return result


def with_units(values: dict, section: str) -> dict:
    """The section's metrics from BENCHMARK.json, in its order, with their units."""
    spec = json.loads(BENCHMARK.read_text())[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def _digest(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# --- output ---------------------------------------------------------------------------


def print_table(result: dict) -> None:
    env = result["environment"]
    print(f"# {env['workload']}  seed {env['seed']}  {result['requests']} requests, "
          f"{result['executions']} executions, {result['failed']} failed")
    print(f"# inputs  {result['input_digest']}")
    print(f"# outputs {result['output_digest']}")
    for section in ("end_to_end", "reported", "per_layer"):
        for name, m in result.get(section, {}).items():
            print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"! {problem}")


def save(result: dict, out_dir: Path) -> Path:
    env = result["environment"]
    path = out_dir / env["workload"] / f"seed{env['seed']}{'-trace' if env['trace'] else ''}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def last_line(result: dict, trace: bool) -> str:
    metrics = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def run_all(args, workloads_names) -> int:
    """Every workload in its own process, one after another, then one table."""
    results = {}
    for name in workloads_names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    section = "per_layer" if args.trace else "end_to_end"
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':34s} {'unit':6s} " + " ".join(f"{n:>15s}" for n in workloads_names))
    for metric in names:
        unit = results[workloads_names[0]]["metrics"][metric]["unit"]
        print(f"{metric:34s} {unit:6s} " + " ".join(
            f"{results[n]['metrics'][metric]['value']:15.6g}" for n in workloads_names))
    if not args.trace:
        for name in workloads_names:
            full = json.loads((Path(args.out) / name / f"seed{args.seed}.json").read_text())
            rep = ", ".join(f"{k} {v['value']:g} {v['unit']}" for k, v in full["reported"].items())
            print(f"{name}: {full['requests']} requests, {full['executions']} executions, {rep}, "
                  f"outputs {full['output_digest'][:16]}")
    print(json.dumps({"section": section, "results": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, str(HERE))
    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:])
    if not (SRC / "deepedge" / "__init__.py").is_file():
        print(f"error: no deepedge package under {SRC}; run from a deepedge checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if argv[:1] == ["ladder"]:
        pin_threads()
        import ladder
        modules = fresh_import()
        registries = {name: build_registry(modules, workload, 0)[0]
                      for name, workload in (("parametric", "wide-cluster"),
                                             ("fitted", "fitted-testbed"))}
        return ladder.main(modules, registries)

    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(OUT / "results"),
                        help="directory the full results are written to")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    import workloads
    result = run_workload(args, workloads.generate(args.workload, args.seed))
    save(result, Path(args.out))
    print_table(result)
    print(last_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
