import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import deepedge
from deepedge import JobSpec, Plan, default_testbed, load_registry, load_trace
from deepedge.cli import main
from deepedge.documents import from_doc, load_doc, save


@pytest.fixture
def specs(tmp_path):
    cluster_path = tmp_path / "cluster.json"
    job_path = tmp_path / "job.json"
    save(default_testbed(), cluster_path)
    save(JobSpec(num_samples=800, num_epoch=1, source_store="store-0"), job_path)
    return str(cluster_path), str(job_path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "deepedge" in capsys.readouterr().out


def test_solve_writes_plan(specs, tmp_path, capsys):
    cluster, job = specs
    out = tmp_path / "plan.json"
    code = main(["solve", "--cluster", cluster, "--job", job, "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "total cost" in text
    assert "tx2-0" in text
    plan = from_doc(Plan, load_doc(out))
    assert plan.num_samples == 800
    assert plan.method == "heuristic"


def test_fairness_command(specs, tmp_path, capsys):
    cluster, job = specs
    out = tmp_path / "fair.json"
    code = main(["fairness", "--cluster", cluster, "--job", job, "--out", str(out)])
    assert code == 0
    plan = from_doc(Plan, load_doc(out))
    assert plan.method == "fairness"
    assert sorted(a.num_samples for a in plan.assignments) == [200, 200, 200, 200]


def test_simulate_with_saved_plan(specs, tmp_path, capsys):
    cluster, job = specs
    plan_path = tmp_path / "plan.json"
    main(["solve", "--cluster", cluster, "--job", job, "--out", str(plan_path)])
    capsys.readouterr()
    trace = tmp_path / "trace.csv"
    code = main(["simulate", "--cluster", cluster, "--job", job,
                 "--plan", str(plan_path), "--trace", str(trace), "--seed", "1"])
    assert code == 0
    text = capsys.readouterr().out
    assert "status: completed" in text
    assert "makespan" in text
    assert trace.exists()
    header = trace.read_text().splitlines()[0]
    assert header == "time,worker,event,detail"


def test_run_with_crash(specs, capsys):
    cluster, job = specs
    code = main(["run", "--cluster", cluster, "--job", job,
                 "--crash", "nano-0:8.0"])
    assert code == 0
    text = capsys.readouterr().out
    assert "retriggered" in text
    assert "status: completed" in text


def test_run_prints_crash_and_exclusion_events(specs, capsys):
    cluster, job = specs
    code = main(["run", "--cluster", cluster, "--job", job, "--crash", "nano-0:8",
                 "--crash", "nano-0:20", "--crash", "nano-0:35"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.count("crash: nano-0 at") == 3
    assert "excluded: nano-0 at" in text
    assert "excluded: ['nano-0']" in text


def test_run_with_a_crash_before_the_last_worker_trains(tmp_path, capsys):
    testbed = default_testbed()
    slow = replace(testbed, workers=tuple(
        replace(w, per_sample_transfer_cost={"store-0": 0.02}) if w.id == "nano-2" else w
        for w in testbed.workers))
    cluster, job = tmp_path / "cluster.json", tmp_path / "job.json"
    save(slow, cluster)
    save(JobSpec(num_samples=2000, num_epoch=1, source_store="store-0"), job)
    code = main(["run", "--cluster", str(cluster), "--job", str(job), "--crash", "tx2-0:6"])
    assert code == 0
    text = capsys.readouterr().out
    assert "status: completed" in text
    assert "crash: tx2-0 at 6.000 s" in text


def test_profile_then_fit_then_solve(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    code = main(["profile", "--device", "nano", "--out", str(sweep),
                 "--noise", "0.02", "--seed", "5"])
    assert code == 0
    assert "1650 grid points" in capsys.readouterr().out

    registry_path = tmp_path / "registry.json"
    code = main(["fit", "--data", str(sweep), "--device", "nano",
                 "--out", str(registry_path), "--seed", "5"])
    assert code == 0
    text = capsys.readouterr().out
    assert "test mape" in text
    registry = load_registry(registry_path)
    assert registry["nano"].models

    cluster_path = tmp_path / "cluster.json"
    job_path = tmp_path / "job.json"
    save(default_testbed(), cluster_path)
    save(JobSpec(num_samples=500, num_epoch=1, source_store="store-0"), job_path)
    code = main(["solve", "--cluster", str(cluster_path), "--job", str(job_path),
                 "--registry", str(registry_path)])
    assert code == 0


def test_profile_and_fit_write_the_pinned_bytes(tmp_path):
    sweep, registry = tmp_path / "sweep.csv", tmp_path / "registry.json"
    assert main(["profile", "--device", "nano", "--noise", "0.02", "--seed", "1",
                 "--out", str(sweep)]) == 0
    assert main(["fit", "--data", str(sweep), "--device", "nano", "--out", str(registry)]) == 0
    assert hashlib.sha256(sweep.read_bytes()).hexdigest() == (
        "c0d9bdf86e804ab6e0289228381b06f05aa3ff6216f8e1078008c7318b8061c6")
    assert hashlib.sha256(registry.read_bytes()).hexdigest() == (
        "db209372453aca8399cc146403617c0ec6058e061eb0dd24df8b185cb92a3805")


def test_fit_of_a_sweep_with_a_byte_order_mark_writes_the_same_registry(tmp_path):
    sweep, bom = tmp_path / "sweep.csv", tmp_path / "bom.csv"
    assert main(["profile", "--device", "nano", "--noise", "0.02", "--out", str(sweep)]) == 0
    bom.write_bytes(b"\xef\xbb\xbf" + sweep.read_bytes())
    for data in (sweep, bom):
        assert main(["fit", "--data", str(data), "--device", "nano",
                     "--out", str(tmp_path / f"{data.stem}.json")]) == 0
    assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "sweep.json").read_bytes()


def test_fit_refuses_to_replace_another_registry_class(tmp_path, capsys):
    sweep, registry = tmp_path / "nano.csv", tmp_path / "registry.json"
    assert main(["profile", "--device", "nano", "--repetitions", "1", "--out", str(sweep)]) == 0
    capsys.readouterr()
    code = main(["fit", "--data", str(sweep), "--device", "tx2", "--out", str(registry)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: --device: 'tx2' is already a registry class, but {sweep} profiles 'nano'")
    assert not registry.exists()


def test_fit_stores_a_sweep_under_a_new_class(tmp_path):
    sweep, registry = tmp_path / "nano.csv", tmp_path / "registry.json"
    assert main(["profile", "--device", "nano", "--repetitions", "1", "--out", str(sweep)]) == 0
    assert main(["fit", "--data", str(sweep), "--device", "nano-measured",
                 "--out", str(registry)]) == 0
    fitted = load_registry(registry)
    assert fitted["nano-measured"].models
    assert not fitted["tx2"].models and not fitted["nano"].models


def test_bench_and_report(tmp_path, capsys):
    bench_path = tmp_path / "bench.json"
    code = main(["bench", "--trials", "4", "--seed", "2", "--samples", "500",
                 "--epochs", "1", "--out", str(bench_path)])
    assert code == 0
    assert "mean speedup" in capsys.readouterr().out

    md = tmp_path / "report.md"
    hist = tmp_path / "hist.csv"
    code = main(["report", "--bench", str(bench_path), "--out", str(md),
                 "--histogram", str(hist)])
    assert code == 0
    assert md.exists() and hist.exists()
    assert "|" in md.read_text()


def test_bench_with_no_healthy_scenario_is_a_clean_error(tmp_path, capsys):
    testbed = default_testbed()
    tight = tuple(replace(w, background_apps=tuple(replace(app, deadline=0.01)
                                                   for app in w.background_apps))
                  for w in testbed.workers)
    cluster = tmp_path / "cluster.json"
    save(replace(testbed, workers=tight), cluster)
    code = main(["bench", "--cluster", str(cluster), "--trials", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: could not draw a healthy stress scenario")
    assert "background task 'vision-stream'" in err and "worker '" in err
    assert "Traceback" not in err


def test_simulate_with_no_rate_for_the_job_store_is_a_clean_error(specs, tmp_path, capsys):
    cluster, job = specs
    plan = tmp_path / "plan.json"
    assert main(["solve", "--cluster", cluster, "--job", job, "--out", str(plan)]) == 0
    testbed = default_testbed()
    tx2 = replace(testbed.workers[0], per_sample_transfer_cost={"other": 0.5})
    save(replace(testbed, workers=(tx2,) + testbed.workers[1:],
                         data_stores=("store-0", "other")), cluster)
    capsys.readouterr()
    code = main(["simulate", "--cluster", cluster, "--job", job, "--plan", str(plan)])
    assert code == 1
    captured = capsys.readouterr()
    assert "makespan" not in captured.out
    assert captured.err == ("error: worker 'tx2-0'.per_sample_transfer_cost: no entry for "
                            "source store 'store-0'\n")


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    job = tmp_path / "job.json"
    save(JobSpec(num_samples=10, num_epoch=1, source_store="store-0"), job)
    code = main(["solve", "--cluster", str(tmp_path / "nope.json"), "--job", str(job)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert f"{tmp_path / 'nope.json'}: file does not exist" in err


def test_non_numeric_field_is_a_clean_error(specs, capsys):
    cluster, job = specs
    with open(cluster) as fh:
        doc = json.load(fh)
    doc["workers"][0]["per_sample_transfer_cost"]["store-0"] = "abc"
    with open(cluster, "w") as fh:
        json.dump(doc, fh)
    code = main(["solve", "--cluster", cluster, "--job", job])
    assert code == 1
    err = capsys.readouterr().err
    assert "per_sample_transfer_cost['store-0']" in err
    assert "Traceback" not in err


def test_bad_crash_spec_is_a_clean_error(specs, capsys):
    cluster, job = specs
    code = main(["simulate", "--cluster", cluster, "--job", job,
                 "--crash", "nano-0@8"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_infeasible_solve_is_a_clean_error(tmp_path, capsys):
    from dataclasses import replace
    cluster = default_testbed(stressed=True)
    solo = replace(cluster, workers=tuple(w for w in cluster.workers
                                          if w.id == "nano-0"))
    cluster_path = tmp_path / "solo.json"
    job_path = tmp_path / "job.json"
    save(solo, cluster_path)
    save(JobSpec(num_samples=100, num_epoch=1, source_store="store-0"), job_path)
    code = main(["solve", "--cluster", str(cluster_path), "--job", str(job_path)])
    assert code == 1
    assert "no eligible workers" in capsys.readouterr().err


def _sweep_with(tmp_path, cells: dict):
    """A profiled sweep whose third line has the given cells replaced."""
    sweep = tmp_path / "sweep.csv"
    main(["profile", "--device", "nano", "--out", str(sweep), "--seed", "5"])
    lines = sweep.read_text().splitlines()
    row = lines[2].split(",")
    for column, value in cells.items():
        row[lines[0].split(",").index(column)] = value
    lines[2] = ",".join(row)
    sweep.write_text("\n".join(lines) + "\n")
    return sweep


@pytest.mark.parametrize("column, value", [("cpu_util", "nan"), ("value", "inf")])
def test_fit_names_a_non_finite_cell(column, value, tmp_path, capsys):
    sweep = _sweep_with(tmp_path, {column: value})
    registry = tmp_path / "registry.json"
    code = main(["fit", "--data", str(sweep), "--device", "nano", "--out", str(registry)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{sweep}:3: {column}: expected a finite number, got '{value}'" in err
    assert not registry.exists()


@pytest.mark.parametrize("column, value, message", [
    ("cpu_util", "5.0", "must be within [0.0, 1.0], got 5.0"),
    ("gpu_util", "-0.1", "must be within [0.0, 1.0], got -0.1"),
    ("mem_util", "1.5", "must be within [0.0, 1.0], got 1.5"),
    ("ps_cpu_util", "2", "must be within [0.0, 1.0], got 2.0"),
    ("batch", "0", "must be >= 1, got 0"),
    ("n_workers", "-2", "must be >= 1, got -2")])
def test_fit_names_a_cell_out_of_range(column, value, message, tmp_path, capsys):
    sweep = _sweep_with(tmp_path, {column: value})
    registry = tmp_path / "registry.json"
    code = main(["fit", "--data", str(sweep), "--device", "nano", "--out", str(registry)])
    assert code == 1
    assert f"{sweep}:3: {column}: {message}" in capsys.readouterr().err
    assert not registry.exists()


def test_fit_of_a_row_out_of_range_exits_with_one_error_line(tmp_path):
    sweep = _sweep_with(tmp_path, {"cpu_util": "5.0", "batch": "0", "n_workers": "-2"})
    src = Path(deepedge.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "deepedge.cli", "fit", "--data", str(sweep), "--device", "nano",
         "--out", str(tmp_path / "registry.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: {sweep}:3: cpu_util: must be within [0.0, 1.0]")
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr


def test_fit_of_a_file_that_is_not_utf8_exits_with_one_error_line(tmp_path):
    sweep = tmp_path / "binary.csv"
    sweep.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    src = Path(deepedge.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "deepedge.cli", "fit", "--data", str(sweep), "--device", "nano",
         "--out", str(tmp_path / "registry.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert done.returncode == 1
    assert done.stderr == f"error: {sweep}: not UTF-8 text\n"
    assert not (tmp_path / "registry.json").exists()


def test_crash_time_that_is_not_a_number_is_a_clean_error(specs, capsys):
    cluster, job = specs
    code = main(["simulate", "--cluster", cluster, "--job", job, "--crash", "nano-0:abc"])
    assert code == 1
    assert capsys.readouterr().err == "error: --crash time must be a number, got 'abc'\n"


def test_run_writes_the_merged_trace(specs, tmp_path, capsys):
    cluster, job = specs
    trace = tmp_path / "trace.csv"
    code = main(["run", "--cluster", cluster, "--job", job, "--crash", "nano-0:8.0",
                 "--trace", str(trace)])
    assert code == 0
    assert f"trace written to {trace}" in capsys.readouterr().out
    events = [ev.event for ev in load_trace(trace)]
    # both attempts are in the file: each of the four workers trains twice
    assert events.count("crash") == 1 and events.count("train_start") == 8
    assert events[-1] == "finish"


DATA = Path(__file__).parent / "data"
DELETE = object()


def _bad_document(kind, path, value):
    """A golden document with the value at ``path`` replaced, or deleted."""
    doc = json.loads((DATA / f"{kind}.json").read_text())
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


# (golden document, path, bad value, what the error must name)
BAD_DOCUMENTS = [
    ("plan", ("method",), 7, "plan.method"),
    ("plan", ("assignments", 0, "worker"), 7, "plan.assignments[0].worker"),
    ("plan", ("removed", 0, "worker"), 3, "plan.removed[0].worker"),
    ("plan", ("audit", "iterations"), "no", "plan.audit.iterations"),
    ("plan", ("audit", "shares"), {"tx2-0": 987.3}, "plan.audit: unknown field 'shares'"),
    ("plan", ("assignments", 0, "cost", "train"), DELETE, "plan.assignments[0].cost.train: missing"),
    ("plan", ("assignments", 2, "worker"), "nano-1", "plan.assignments[2]: worker 'nano-1'"),
    ("plan", ("assignments", 0, "num_samples"), 5, "plan.assignments: shards sum to 1013"),
    ("plan", ("assignments", 0, "num_samples"), 0, "plan.assignments[0]"),
    ("plan", ("assignments", 1, "batch_size"), 0, "plan.assignments[1]"),
    ("plan", ("assignments", 0, "batch_size"), 100000,
     "plan.assignments[0].batch_size: 100000 is above min(b_max, num_samples) = min(64, 992)"),
    ("plan", ("num_epoch",), 7, "plan.num_epoch: 7, the job has 2"),
    ("cluster", ("workers", 0, "background_apps", 0, "id"), 5,
     "cluster.workers[0].background_apps[0].id"),
    ("cluster", ("workers", 1, "background_apps", 0, "description"), 5,
     "cluster.workers[1].background_apps[0].description"),
    ("cluster", ("workers", 0, "per_sample_transfer_cost"), 0.001,
     "cluster.workers[0].per_sample_transfer_cost"),
    ("cluster", ("workers", 0, "b_max"), 0,
     "cluster.workers[0]: worker 'tx2-0'.b_max: must be >= b_min, got b_min=1 b_max=0"),
    ("cluster", ("workers", 1, "id"), "tx2-0", "cluster: workers: duplicate worker id 'tx2-0'"),
    ("cluster", ("workers", 2, "init_cost"), -5.0,
     "cluster.workers[2]: worker 'nano-1'.init_cost: must be >= 0 seconds"),
    ("job", ("source_store",), 5, "job.source_store"),
    ("job", ("num_samples",), 0, "error: job.num_samples: must be a positive integer, got 0"),
    ("job", ("epsilon",), 0.5, "job: unknown field 'epsilon'"),
    ("job", ("tau",), 40, "job: unknown field 'tau'"),
    ("registry", ("devices", "nano", "models", "exec_time", "schema"), 1,
     "registry.devices['nano'].models['exec_time']: unknown field 'schema'"),
    ("registry", ("devices", "nano", "models", "exec_time", "terms"), ["1"],
     "registry.devices['nano'].models['exec_time']: expected target 'exec_time' with terms"),
    ("registry", ("devices", "tx2", "profile", "base_forward"), 0,
     "registry.devices['tx2'].profile: base_forward: must be > 0 seconds/sample, got 0.0"),
    ("registry", ("devices", "nano", "models", "exec_time", "target"), "bogus",
     "registry.devices['nano'].models['exec_time']: target: unknown target 'bogus'"),
    ("bench", ("trials", 0, "surprise"), 1, "bench report.trials[0]: unknown field 'surprise'"),
    ("bench", ("mean_speedup",), 1.0, "bench report: unknown field 'mean_speedup'"),
    ("bench", ("trials", 0, "speedup"), 1.5, "bench report.trials[0]: unknown field 'speedup'"),
    ("bench", ("histogram",), [0, 1, 2], "bench report: unknown field 'histogram'"),
    ("bench", ("trials", 0, "heuristic_makespan"), 0,
     "bench report.trials[0]: heuristic_makespan: must be > 0 seconds, got 0.0"),
    ("bench", ("seed",), "x", "bench report.seed: expected an integer"),
    ("bench", ("n_trials",), 3, "bench report: unknown field 'n_trials'"),
    ("bench", ("trials", 0, "fairness_violations"), -1,
     "bench report.trials[0]: fairness_violations: must be >= 0, got -1"),
    ("bench", ("trials",), [], "bench report.trials: at least one trial is required"),
]

# (subcommand flags after the cluster and job, what the error must name)
BAD_FLAGS = [
    (["simulate", "--jitter", "nan"], "sim.jitter"),
    (["simulate", "--seed", "-1"], "--seed"),
    (["simulate", "--crash", "nano-0:nan"], "sim.crashes[0].time"),
    (["simulate", "--crash", "nano-0:-5"], "sim.crashes[0].time"),
    (["run", "--jitter", "-0.5"], "sim.jitter"),
    (["bench", "--trials", "0"], "--trials"),
]


def _golden_inputs(tmp_path):
    """The golden cluster and a job its golden plan was solved for."""
    job = tmp_path / "job.json"
    save(JobSpec(num_samples=2000, num_epoch=2, source_store="store-0"), job)
    return str(DATA / "cluster.json"), str(job)


@pytest.mark.parametrize(
    "argv, named",
    [(("doc",) + case[:3], case[3]) for case in BAD_DOCUMENTS]
    + [(("flags", flags), named) for flags, named in BAD_FLAGS],
    ids=[f"{kind}-{'.'.join(map(str, path))}" for kind, path, _, _ in BAD_DOCUMENTS]
    + ["-".join(flags) for flags, _ in BAD_FLAGS])
def test_bad_input_is_a_clean_error(argv, named, tmp_path, capsys):
    cluster, job = _golden_inputs(tmp_path)
    if argv[0] == "flags":
        command, *flags = argv[1]
        args = [command] + (["--cluster", cluster, "--job", job] if command != "bench" else [])
        args += flags
    else:
        _, kind, path, value = argv
        bad = tmp_path / f"bad-{kind}.json"
        bad.write_text(json.dumps(_bad_document(kind, path, value)))
        args = {
            "cluster": ["solve", "--cluster", str(bad), "--job", job],
            "job": ["solve", "--cluster", cluster, "--job", str(bad)],
            "plan": ["simulate", "--cluster", cluster, "--job", job, "--plan", str(bad)],
            "registry": ["solve", "--cluster", cluster, "--job", job, "--registry", str(bad)],
            "bench": ["report", "--bench", str(bad)],
        }[kind]
    code = main(args)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert named in err
    # the message names its path once
    where = err.removeprefix("error: ").split(": ")[0]
    assert err.count(where) == 1
    assert "Traceback" not in err


def test_run_writes_an_empty_trace_for_a_job_abandoned_at_request(tmp_path, capsys):
    cluster = json.loads((DATA / "cluster.json").read_text())
    for worker in cluster["workers"]:  # no worker can hold a batch this large
        worker["b_min"] = worker["b_max"] = 10 ** 6
    path, trace = tmp_path / "cluster.json", tmp_path / "trace.csv"
    path.write_text(json.dumps(cluster))
    code = main(["run", "--cluster", str(path), "--job", str(DATA / "job.json"),
                 "--trace", str(trace)])
    assert code == 0
    text = capsys.readouterr().out
    assert "status: abandoned" in text and f"trace written to {trace}" in text
    assert trace.read_text().splitlines() == ["time,worker,event,detail"]
    assert load_trace(trace) == ()
