"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def modules():
    return run.fresh_import()


@pytest.fixture(scope="module")
def api(modules):
    return workloads.Api(modules)


@pytest.fixture(scope="module")
def registry(modules):
    return modules["deepedge.estimators"].default_registry()


def _run_with(api, registry, workload, pool, runner):
    """The closed loop over ``pool`` with ``runner`` in place of the workload's own."""
    honest = workloads.RUNNERS[workload]
    workloads.RUNNERS[workload] = runner
    try:
        _, records, _ = run.closed_loop(workloads, layers, api, workload, pool, registry, 0.0, 1)
    finally:
        workloads.RUNNERS[workload] = honest
    return run.judge(records, {})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_byte_identical_per_seed(workload):
    a = workloads.generate(workload, 7, 24)
    b = workloads.generate(workload, 7, 24)
    assert a == b
    assert workloads.pool_digest(a) == workloads.pool_digest(b)
    assert workloads.pool_digest(a) != workloads.pool_digest(workloads.generate(workload, 8, 24))


def test_stratified_mix_is_the_same_for_every_seed():
    for seed in range(3):
        kinds = workloads._stratified_counts(workloads._rng("test", seed), 101,
                                             workloads.CRASH_WEIGHTS)
        assert [kinds.count(k) for k in range(3)] == [51, 30, 20]


def test_corrupted_plan_is_caught_and_counted_as_failed(api, registry):
    honest = workloads.RUNNERS["wide-cluster"]

    def corrupt(api_, req, reg):
        out = honest(api_, req, reg)
        if req.index == 2:
            plan = out["plan"]
            first = plan.assignments[0]
            bad = replace(first, num_samples=first.num_samples + 1)
            out["plan"] = replace(plan, assignments=(bad,) + plan.assignments[1:])
        return out

    failed, problems = _run_with(api, registry, "wide-cluster",
                                 workloads.generate("wide-cluster", 3, 4), corrupt)
    assert failed == 1
    assert "shares sum to" in problems[0]


def test_dropped_crashes_are_caught_and_counted_as_failed(api, registry):
    pool = workloads.generate("crash-recovery", 3, 10)
    crashed = sum(1 for req in pool if req.crashes)
    assert crashed and any(len(req.crashes) == workloads.STRIKES for req in pool)

    honest = workloads.RUNNERS["crash-recovery"]

    def no_crashes(api_, req, reg):
        out = honest(api_, replace(req, crashes=()), reg)
        out["crashes"] = req.crashes
        return out

    failed, problems = _run_with(api, registry, "crash-recovery", pool, no_crashes)
    assert failed == crashed
    assert all("crashes fired []" in p for p in problems)


def test_check_plan_names_each_defect(api, registry):
    req = workloads.generate("testbed-paired", 1, 1)[0]
    out = workloads.RUNNERS["testbed-paired"](api, req, registry)
    assert workloads.check(api, "testbed-paired", out) == []
    plan, cluster, job = out["plan"], out["cluster"], out["job"]
    a = plan.assignments[0]
    twice = replace(plan, assignments=(a, a))
    assert any("appears twice" in p for p in workloads.check_plan(twice, cluster, job, "p"))
    stranger = replace(a, worker_id="ghost")
    bad = replace(plan, assignments=(stranger,) + plan.assignments[1:])
    assert any("not in the cluster" in p for p in workloads.check_plan(bad, cluster, job, "p"))
    big = replace(a, batch_size=a.num_samples + 1)
    bad = replace(plan, assignments=(big,) + plan.assignments[1:])
    assert any("batch" in p for p in workloads.check_plan(bad, cluster, job, "p"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():                      # folded, 2 s
        clock.advance(2.0)

    def child():                     # 1 s own work around a 2 s leaf
        clock.advance(0.5)
        folded_leaf()
        clock.advance(0.5)

    folded_leaf = tracer.wrap(leaf, "estimators.leaf", folded=True)
    traced_child = tracer.wrap(child, "child", folded=False)

    with tracer.span("request", request=0):
        clock.advance(1.0)
        traced_child()
        folded_leaf()
        clock.advance(3.0)

    spans = {s.name: s for s in tracer.spans}
    assert spans["child"].duration == pytest.approx(3.0)
    assert spans["child"].self_time == pytest.approx(1.0)
    assert spans["child"].parent == spans["request"].id
    assert spans["request"].duration == pytest.approx(9.0)
    # 9 s minus the child's 3 s and the directly called leaf's 2 s
    assert spans["request"].self_time == pytest.approx(4.0)
    by_anchor = {key[1]: value for key, value in tracer.folded.items()}
    assert by_anchor[spans["child"].id] == [1, pytest.approx(2.0), pytest.approx(2.0)]
    assert by_anchor[spans["request"].id] == [1, pytest.approx(2.0), pytest.approx(2.0)]


def test_tracer_wraps_every_binding_and_restores_them(modules):
    solve = modules["deepedge.scheduler"].solve
    tracer = tracing.Tracer()
    with tracer.installed(modules):
        for name in ("deepedge", "deepedge.scheduler", "deepedge.simulator",
                     "deepedge.orchestrator"):
            assert modules[name].solve is not solve
            assert modules[name].solve.__wrapped__ is solve
    for name in ("deepedge", "deepedge.scheduler", "deepedge.simulator", "deepedge.orchestrator"):
        assert modules[name].solve is solve


def test_rescale_divides_out_the_host_speed():
    # the host runs at full speed for the first two records and at half speed
    # for the last two, seconds later; each request's own work is 10 ms
    ref = run.REFERENCE_KERNEL_S
    records = [{"start": start, "seconds": 0.01 * slow, "cal": ref * slow}
               for start, slow in ((0.0, 1), (0.1, 1), (5.0, 2), (5.1, 2))]
    run.rescale(records)
    assert [r["scaled"] for r in records] == pytest.approx([0.01] * 4)


def test_compare_verdicts():
    assert compare.verdict([10, 10.1, 9.9, 10], [13, 13.1, 12.9, 13], 0.1, True) == "worse"
    assert compare.verdict([10, 10.1, 9.9, 10], [8, 8.1, 7.9, 8], 0.1, True) == "better"
    assert compare.verdict([10, 10.1, 9.9, 10], [10.05, 10, 10.1, 9.95], 0.1, True) == "unchanged"
    assert compare.verdict([10, 14, 7, 12], [11, 10, 12, 13], 0.1, True) == "unresolved"
    assert compare.verdict([10, 10.1, 9.9, 10], [8, 8.1, 7.9, 8], 0.1, False) == "worse"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_each_workload_passes(workload, tmp_path, modules):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = Namespace(workload=workload, seed=2, seconds=0.0, trace=1, out=str(tmp_path))
    try:
        result = run.run_workload(args, workloads.generate(workload, 2, 12))
    finally:
        sys.modules.update(modules)  # run_workload imports deepedge afresh
    assert result["problems"] == []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        last = json.loads(run.last_line(result, trace))
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert list(last["metrics"]) == [m["name"] for m in spec[section]]
        for m in spec[section]:
            assert last["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["environment"]["threads"]["OMP_NUM_THREADS"] == "1"
    assert result["reported"]["deadline_violations"]["value"] == 0
    assert (tmp_path / workload / "seed2-spans.jsonl").is_file()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "testbed-paired", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
