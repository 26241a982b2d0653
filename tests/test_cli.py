import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deepedge
from deepedge import JobSpec, default_testbed, load_plan, load_registry, save_cluster, save_job
from deepedge.cli import main


@pytest.fixture
def specs(tmp_path):
    cluster_path = tmp_path / "cluster.json"
    job_path = tmp_path / "job.json"
    save_cluster(default_testbed(), cluster_path)
    save_job(JobSpec(num_samples=800, num_epoch=1, source_store="store-0"), job_path)
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
    plan = load_plan(out)
    assert plan.num_samples == 800
    assert plan.method == "heuristic"


def test_fairness_command(specs, tmp_path, capsys):
    cluster, job = specs
    out = tmp_path / "fair.json"
    code = main(["fairness", "--cluster", cluster, "--job", job, "--out", str(out)])
    assert code == 0
    plan = load_plan(out)
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
    save_cluster(default_testbed(), cluster_path)
    save_job(JobSpec(num_samples=500, num_epoch=1, source_store="store-0"), job_path)
    code = main(["solve", "--cluster", str(cluster_path), "--job", str(job_path),
                 "--registry", str(registry_path)])
    assert code == 0


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


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    job = tmp_path / "job.json"
    save_job(JobSpec(num_samples=10, num_epoch=1, source_store="store-0"), job)
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
    save_cluster(solo, cluster_path)
    save_job(JobSpec(num_samples=100, num_epoch=1, source_store="store-0"), job_path)
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
    ("plan", ("assignments", 0, "cost", "train"), DELETE, "plan.assignments[0].cost.train: missing"),
    ("plan", ("assignments", 2, "worker"), "nano-1", "plan.assignments[2]: worker 'nano-1'"),
    ("plan", ("assignments", 0, "num_samples"), 5, "plan.assignments: shards sum to 1013"),
    ("plan", ("assignments", 0, "num_samples"), 0, "plan.assignments[0]"),
    ("plan", ("assignments", 1, "batch_size"), 0, "plan.assignments[1]"),
    ("cluster", ("workers", 0, "background_apps", 0, "id"), 5,
     "cluster.workers[0].background_apps[0].id"),
    ("cluster", ("workers", 1, "background_apps", 0, "description"), 5,
     "cluster.workers[1].background_apps[0].description"),
    ("cluster", ("workers", 0, "per_sample_transfer_cost"), 0.001,
     "cluster.workers[0].per_sample_transfer_cost"),
    ("job", ("source_store",), 5, "job.source_store"),
    ("job", ("epsilon",), 0.5, "job: unknown field 'epsilon'"),
    ("job", ("tau",), 40, "job: unknown field 'tau'"),
    ("registry", ("devices", "nano", "models", "exec_time", "schema"), 1,
     "registry.devices['nano'].models['exec_time']: unknown field 'schema'"),
    ("registry", ("devices", "nano", "models", "exec_time", "terms"), ["1"],
     "registry.devices['nano'].models['exec_time']: expected target 'exec_time' with terms"),
    ("bench", ("trials", 0, "surprise"), 1, "bench report.trials[0]: unknown field 'surprise'"),
    ("bench", ("mean_speedup",), float("nan"), "bench report.mean_speedup: must be finite"),
    ("bench", ("trials", 0, "speedup"), DELETE, "bench report.trials[0].speedup: missing"),
    ("bench", ("histogram",), [], "bench report.histogram: expected an object"),
    ("bench", ("histogram", "edges"), [0.8], "bench report.histogram: expected 13 edges"),
    ("bench", ("seed",), "x", "bench report.seed: expected an integer"),
    ("bench", ("n_trials",), 5, "bench report.n_trials: 5, but the trials count 3"),
    ("bench", ("frac_speedup_ge_1_5",), 7.0, "bench report.frac_speedup_ge_1_5: must lie in [0, 1]"),
    ("bench", ("histogram", "counts", 3), -4, "bench report.histogram.counts: must be >= 0"),
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
    save_job(JobSpec(num_samples=2000, num_epoch=2, source_store="store-0"), job)
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
    assert "Traceback" not in err
