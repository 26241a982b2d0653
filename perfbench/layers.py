"""Per-request summaries, per-layer metrics and the traced-run consistency check."""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

import tracing

# the est_* and update_components spans: every traced EstimatorBundle method
# but max_batch_size, which has metrics of its own
ESTIMATOR_CALLS = tuple(name for _, cls, _, name, _ in tracing.METHODS
                        if cls == "EstimatorBundle" and name != "estimators.max_batch_size")


def summarize(workload: str, out: dict) -> dict:
    """What one request's results report, for the per-layer metrics and span checks."""
    plan = out["plan"]
    if workload == "crash-recovery":
        rec = out["recovery"]
        sims = list(rec.attempts)
        useful = sum(sims[-1].rounds_completed.values())
        attempts, excluded, trace_events = len(rec.attempts), len(rec.excluded), len(rec.trace)
    else:
        sims = [out["sim"]] + ([out["fair_sim"]] if "fair_sim" in out else [])
        useful = sum(sum(s.rounds_completed.values()) for s in sims)
        attempts = excluded = trace_events = 0
    residuals = [abs(out["sim"].worker_finish[a.worker_id] - a.cost.total) / a.cost.total
                 for a in plan.assignments]
    return {
        "makespan": out["makespan"],
        "violations": out["violations"],
        "iterations": plan.audit.iterations,
        "candidates": plan.audit.candidates_considered,
        "removed_pressure": sum(r.reason == "pressure" for r in plan.removed),
        "removed_slowest": sum(r.reason == "slowest" for r in plan.removed),
        "assigned": len(plan.assignments),
        "rounds": sum(sum(s.rounds_completed.values()) for s in sims),
        "useful_rounds": useful,
        "residual": sum(residuals) / len(residuals),
        "speedup": out["fair_sim"].makespan / out["makespan"] if "fair_sim" in out else None,
        "attempts": attempts,
        "excluded": excluded,
        "trace_events": trace_events,
        # spans the traced run must show for this request
        "expect": {
            "cluster.load_cluster": 1,
            "cluster.load_job": 1,
            "scheduler.solve": 1 + excluded,
            "scheduler.fairness_plan": 1 if "fair" in out else 0,
            "simulator.simulate": len(sims),
            "simulator.inject_and_recover": 1 if workload == "crash-recovery" else 0,
            "orchestrator.run_job": 1 if workload == "crash-recovery" else 0,
            # run_job fits the accuracy curve inside refine_num_epoch and once more itself
            "orchestrator.refine_num_epoch": 1 if workload == "crash-recovery" else 0,
            "orchestrator.fit_accuracy_curve": 2 if workload == "crash-recovery" else 0,
        },
    }


def span_problems(tracer, summaries: dict, fitted: bool) -> list:
    """Where span counts disagree with what the results report.

    A function bound under a name the tracer missed would run without a span
    and under-report its layer; this makes that fail loudly instead.
    """
    counts = defaultdict(Counter)
    for s in tracer.spans:
        counts[s.request][s.name] += 1
    folded = defaultdict(Counter)
    for (request, _, _, name), (count, _, _) in tracer.folded.items():
        folded[request][name] += count
    problems = []
    for request, summary in summaries.items():
        for name, want in summary["expect"].items():
            got = counts[request][name]
            if got != want:
                problems.append(f"request {request}: {got} '{name}' spans, results imply {want}")
        if not folded[request]["scheduler.check_pressure"]:
            problems.append(f"request {request}: no check_pressure calls traced")
        if not sum(folded[request][n] for n in ESTIMATOR_CALLS):
            problems.append(f"request {request}: no estimator calls traced")
        if bool(folded[request]["estimators.predict"]) != fitted:
            problems.append(f"request {request}: fitted predict calls "
                            f"{'missing' if fitted else 'present'} with "
                            f"{'a fitted' if fitted else 'a parametric'} registry")
    return problems


def p90(values) -> float:
    """90th percentile; a single value is its own."""
    values = list(values)
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def layer_metrics(tracer, summaries: list, request_s: list, overhead_frac: float,
                  profile: dict) -> dict:
    """Per-request means of every per-layer metric, from the traced run.

    ``request_s`` holds the traced executions' latencies; shares of request time
    are taken against their mean, so host slowdowns largely cancel out of them.
    """
    n = len(summaries)
    spans = defaultdict(list)
    for s in tracer.spans:
        spans[s.name].append(s)
    by_id = {s.id: s for s in tracer.spans}

    def total(name, attr="duration"):
        return sum(getattr(s, attr) for s in spans[name])

    fold_count, fold_total, fold_self = Counter(), Counter(), Counter()
    outer_estimator = 0.0  # time in estimator calls not made by another estimator call
    for (_, _, caller, name), (count, tot, self_t) in tracer.folded.items():
        fold_count[name] += count
        fold_total[name] += tot
        fold_self[name] += self_t
        if name.startswith("estimators.") and not caller.startswith("estimators."):
            outer_estimator += tot

    request_ms = 1e3 * statistics.mean(request_s)
    solve_ms = [1e3 * s.duration for s in spans["scheduler.solve"]]
    sim_self = total("simulator.simulate", "self_time") + total("simulator.inject_and_recover",
                                                               "self_time")
    refine = list(spans["orchestrator.refine_num_epoch"])
    refine += [s for s in spans["orchestrator.fit_accuracy_curve"]
               if by_id.get(s.parent) is None
               or by_id[s.parent].name != "orchestrator.refine_num_epoch"]
    replans = [s for s in spans["scheduler.solve"] if s.parent in by_id
               and by_id[s.parent].name == "simulator.inject_and_recover"]
    rounds = sum(s["rounds"] for s in summaries)
    speedups = [s["speedup"] for s in summaries if s["speedup"] is not None]

    def mean(key):
        return sum(s[key] for s in summaries) / n

    per_request_ms = {
        "cluster.decode_ms": total("cluster.load_cluster") + total("cluster.load_job"),
        "scheduler.self_ms": (total("scheduler.solve", "self_time")
                              + total("scheduler.fairness_plan", "self_time")
                              + fold_self["scheduler.check_pressure"]),
        "scheduler.plan_codec_ms": total("scheduler.plan_to_doc") + total("scheduler.plan_from_doc"),
        "estimators.self_ms": outer_estimator,
        "estimators.max_batch_ms": fold_total["estimators.max_batch_size"],
        "simulator.self_ms": sim_self,
        "orchestrator.self_ms": total("orchestrator.run_job", "self_time"),
        "orchestrator.refine_ms": sum(s.duration for s in refine),
    }
    out = {name: 1e3 * secs / n for name, secs in per_request_ms.items()}
    out.update({
        "scheduler.solve_ms_p50": statistics.median(solve_ms),
        "scheduler.solve_ms_p90": p90(solve_ms),
        "scheduler.check_pressure_calls": fold_count["scheduler.check_pressure"] / n,
        "scheduler.iterations": mean("iterations"),
        "scheduler.candidates": mean("candidates"),
        "scheduler.useful_candidate_frac": sum(1 / s["candidates"] for s in summaries) / n,
        "scheduler.removed_pressure": mean("removed_pressure"),
        "scheduler.removed_slowest": mean("removed_slowest"),
        "scheduler.assigned_workers": mean("assigned"),
        "scheduler.speedup_vs_fairness": statistics.mean(speedups) if speedups else 0.0,
        "estimators.calls": sum(fold_count[c] for c in ESTIMATOR_CALLS) / n,
        "estimators.share": out["estimators.self_ms"] / request_ms,
        "estimators.pressure_share": (out["estimators.self_ms"]
                                      + 1e3 * fold_self["scheduler.check_pressure"] / n) / request_ms,
        "estimators.max_batch_calls": fold_count["estimators.max_batch_size"] / n,
        "estimators.fitted_predict_calls": fold_count["estimators.predict"] / n,
        "simulator.calls": len(spans["simulator.simulate"]) / n,
        "simulator.share": out["simulator.self_ms"] / request_ms,
        "simulator.rounds": rounds / n,
        "simulator.rounds_per_s": rounds / sim_self if sim_self else 0.0,
        "simulator.useful_rounds_frac": sum(s["useful_rounds"] for s in summaries) / rounds,
        "simulator.finish_residual": mean("residual"),
        "simulator.trace_events": mean("trace_events"),
        "orchestrator.attempts": mean("attempts"),
        "orchestrator.excluded": mean("excluded"),
        "orchestrator.replans": len(replans) / n,
        "trace.overhead_frac": overhead_frac,
    })
    out.update(profile)
    return out
