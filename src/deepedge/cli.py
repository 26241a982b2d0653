"""Command line front end.

Subcommands cover the whole loop: plan a job (solve, fairness), execute it
virtually (simulate, run), build estimators (profile, fit), and compare
scheduling policies (bench, report). Every command that draws random numbers
takes --seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .cluster import load_cluster, load_job
from .documents import ParseError, ValidationError, from_doc, load_doc, save, to_doc
from .estimators import load_registry, save_registry
from .orchestrator import BenchReport, bench, render_report, run_job, save_histogram_csv
from .profiler import dataset_from_csv, fitted_bundle, run_sweep, reference_grid
from .scheduler import InfeasibleScheduleError, Plan, fairness_plan, solve
from .simulator import CrashEvent, SimConfig, save_trace, simulate


def _add_cluster_job(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cluster", required=True, help="cluster spec JSON")
    p.add_argument("--job", required=True, help="job spec JSON")
    p.add_argument("--registry", default=None,
                   help="estimator registry JSON (default: built-in profiles)")


def _print_plan(plan) -> None:
    print(f"method: {plan.method}")
    print(f"total cost: {plan.total_cost:.3f} s "
          f"(epoch {plan.epoch_time:.3f} s x {plan.num_epoch})")
    for a in plan.assignments:
        print(f"  {a.worker_id}: {a.num_samples} samples, batch {a.batch_size}, "
              f"epoch {a.epoch_time:.3f} s")
    for r in plan.removed:
        print(f"  removed {r.worker_id} ({r.reason}): {r.detail}")


def _inputs(args) -> tuple:
    return load_cluster(args.cluster), load_job(args.job), load_registry(args.registry)


def _cmd_solve(args) -> int:
    cluster, job, registry = _inputs(args)
    plan = solve(cluster, job, registry)
    _print_plan(plan)
    if args.out:
        save(plan, args.out)
        print(f"plan written to {args.out}")
    else:
        print(json.dumps(to_doc(plan), indent=2))
    return 0


def _cmd_fairness(args) -> int:
    cluster, job, registry = _inputs(args)
    plan = fairness_plan(cluster, job, registry)
    _print_plan(plan)
    if args.out:
        save(plan, args.out)
        print(f"plan written to {args.out}")
    return 0


def _parse_crashes(specs) -> tuple:
    out = []
    for spec in specs or ():
        worker, sep, when = spec.partition(":")
        if not sep or not worker:
            raise ValidationError(f"--crash expects worker:time, got '{spec}'")
        try:
            out.append(CrashEvent(worker, float(when)))
        except ValueError:
            raise ValidationError(f"--crash time must be a number, got '{when}'") from None
    return tuple(out)


def _cmd_simulate(args) -> int:
    cluster, job, registry = _inputs(args)
    plan = from_doc(Plan, load_doc(args.plan)) if args.plan else solve(cluster, job, registry)
    config = SimConfig(jitter=args.jitter, crashes=_parse_crashes(args.crash),
                       trace_level=args.trace_level)
    result = simulate(cluster, job, plan, registry, seed=args.seed, config=config)
    print(f"status: {result.status}")
    print(f"makespan: {result.makespan:.3f} s")
    for wid, finish in sorted(result.worker_finish.items()):
        shown = f"{finish:.3f} s" if finish is not None else "did not finish"
        print(f"  {wid}: {shown}")
    if result.violations:
        for v in result.violations:
            print(f"  violation: {v.worker_id}/{v.app_id} "
                  f"{v.exec_time:.4f} s > {v.deadline:.4f} s")
    else:
        print("  no background deadline violations")
    if args.trace:
        save_trace(result.trace, args.trace)
        print(f"trace written to {args.trace}")
    return 0


def _cmd_run(args) -> int:
    cluster, job, registry = _inputs(args)
    config = SimConfig(jitter=args.jitter, crashes=_parse_crashes(args.crash))
    report = run_job(cluster, job, registry, seed=args.seed, config=config)
    for change in report.phases:
        print(f"{change.time:10.3f}  {change.phase.value}")
    print(f"status: {report.status}")
    if report.recovery is not None:
        rec = report.recovery
        for ev in rec.events:
            print(f"  {ev.kind}: {ev.worker} at {ev.time:.3f} s")
        print(f"attempts: {len(rec.attempts)}, excluded: {list(rec.excluded) or 'none'}")
        if rec.violations:
            for v in rec.violations:
                print(f"  violation: {v.worker_id}/{v.app_id}")
    if args.trace:  # a job abandoned at request ran nothing: its trace is empty
        save_trace(report.recovery.trace if report.recovery is not None else (), args.trace)
        print(f"trace written to {args.trace}")
    return 0


def _cmd_profile(args) -> int:
    registry = load_registry(args.registry)
    if args.device not in registry:
        raise ValidationError(f"registry has no device class '{args.device}'")
    plan = reference_grid(args.device, repetitions=args.repetitions, noise=args.noise)
    dataset = run_sweep(registry[args.device], plan, seed=args.seed)
    dataset.to_csv(args.out)
    print(f"{len(dataset)} rows ({plan.grid_size} grid points x "
          f"{len(dataset.tables)} targets) written to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    dataset = dataset_from_csv(args.data)
    registry = load_registry(args.registry)
    if args.device in registry and args.device != dataset.device_class:
        raise ValidationError(f"--device: '{args.device}' is already a registry class, but "
                              f"{args.data} profiles '{dataset.device_class}'; fit it under "
                              f"'{dataset.device_class}' or a new name")
    base = registry.get(args.device).profile if args.device in registry else None
    registry[args.device], reports = fitted_bundle(args.device, dataset, base,
                                                   args.train_fraction, args.seed)
    for target, rep in sorted(reports.items()):
        test = f"{rep.model.test_mape:.3f}%" if rep.model.test_mape is not None else "n/a"
        print(f"{target:14s} train mape {rep.model.train_mape:.3f}%  "
              f"test mape {test}  ({rep.n_train}/{rep.n_test} rows)")
    save_registry(registry, args.out)
    print(f"registry with fitted '{args.device}' written to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    registry = load_registry(args.registry)
    cluster = load_cluster(args.cluster) if args.cluster else None
    report = bench(cluster=cluster, registry=registry, n_trials=args.trials,
                   seed=args.seed, jitter=args.jitter,
                   num_samples=args.samples, num_epoch=args.epochs)
    print(f"mean speedup: {report.mean_speedup:.3f}x over {report.n_trials} trials")
    print(f"median {report.median_speedup:.3f}x, "
          f"range [{report.min_speedup:.3f}x, {report.max_speedup:.3f}x]")
    print(f"trials at or above 1.5x: {100 * report.frac_speedup_ge_1_5:.1f}%")
    print(f"violations: {report.violations_heuristic} heuristic, "
          f"{report.violations_fairness} fairness")
    if args.out:
        save(report, args.out)
        print(f"report written to {args.out}")
    return 0


def _cmd_report(args) -> int:
    report = from_doc(BenchReport, load_doc(args.bench))
    text = render_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"markdown written to {args.out}")
    else:
        print(text)
    if args.histogram:
        save_histogram_csv(report, args.histogram)
        print(f"histogram written to {args.histogram}")
    return 0


def _check_flags(args) -> None:
    """Reject integer flags below the least value any command can use (the
    commands check their other values, floats included, themselves)."""
    smallest = {"seed": 0, "trials": 1, "samples": 1, "epochs": 1, "repetitions": 1}
    for name, low in smallest.items():
        if getattr(args, name, low) < low:
            raise ValidationError(f"--{name}: must be >= {low}, got {getattr(args, name)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepedge",
        description="plan, simulate, and benchmark distributed model updates "
                    "on busy edge clusters")
    parser.add_argument("--version", action="version", version=f"deepedge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute an interference-aware plan")
    _add_cluster_job(p)
    p.add_argument("--out", default=None, help="write the plan JSON here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("fairness", help="compute the equal-sharding baseline plan")
    _add_cluster_job(p)
    p.add_argument("--out", default=None, help="write the plan JSON here")
    p.set_defaults(func=_cmd_fairness)

    p = sub.add_parser("simulate", help="execute a plan on the virtual cluster")
    _add_cluster_job(p)
    p.add_argument("--plan", default=None, help="plan JSON (default: solve first)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", type=float, default=0.0,
                   help="multiplicative duration noise (std dev)")
    p.add_argument("--crash", action="append", metavar="WORKER:TIME",
                   help="inject a crash (repeatable)")
    p.add_argument("--trace", default=None, help="write the event trace CSV here")
    p.add_argument("--trace-level", default="phases",
                   choices=("none", "phases", "rounds"))
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("run", help="run a job through its whole lifecycle")
    _add_cluster_job(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--crash", action="append", metavar="WORKER:TIME",
                   help="inject a crash on the global clock (repeatable)")
    p.add_argument("--trace", default=None, help="write the merged trace CSV here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("profile", help="sweep a device bench grid into a CSV")
    p.add_argument("--device", required=True, help="device class to profile")
    p.add_argument("--registry", default=None)
    p.add_argument("--noise", type=float, default=0.0,
                   help="measurement noise (std dev, fraction of truth)")
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="write sweep rows here (CSV)")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("fit", help="fit estimator models from sweep data")
    p.add_argument("--data", required=True, help="sweep CSV from the profile command")
    p.add_argument("--device", required=True, help="device class to store the fit under")
    p.add_argument("--registry", default=None,
                   help="registry to extend (default: built-in profiles)")
    p.add_argument("--train-fraction", type=float, default=0.84)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="write the updated registry here")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("bench", help="compare scheduling against equal sharding")
    p.add_argument("--cluster", default=None,
                   help="cluster spec JSON (default: reference testbed)")
    p.add_argument("--registry", default=None)
    p.add_argument("--trials", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", type=float, default=0.03)
    p.add_argument("--samples", type=int, default=1800)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("report", help="render a bench report")
    p.add_argument("--bench", required=True, help="report JSON from the bench command")
    p.add_argument("--out", default=None, help="write markdown here (default: stdout)")
    p.add_argument("--histogram", default=None, help="write the histogram CSV here")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (ParseError, ValidationError, InfeasibleScheduleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
