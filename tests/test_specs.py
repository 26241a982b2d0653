"""The behaviour every spec class shares, pinned class by class: the repr of a
sample, equality and hashing by field values, frozen fields, the field names
in order, and ``dataclasses.replace`` running the class's own check again;
and its constructor: its signature, positional and keyword arguments, the
errors for a missing or unknown one, and one ``__post_init__`` call per instance.
``ProfileDataset`` is the one exception to equality: it compares and hashes
by identity."""

import dataclasses
import inspect
import json
import re
import typing
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from deepedge import (Assignment, BackgroundApp, BenchReport, BenchTrial, ClusterSpec,
                      CostBreakdown, CrashEvent, EstimatorBundle, FittedFunction, JobSpec,
                      NodeState, ParametricProfile, Plan, ProfileDataset, Removal, SimConfig,
                      SolveAudit, SweepPlan, ValidationError, WorkerSpec)
from deepedge import (cluster, documents, estimators, orchestrator, profiler, scheduler,
                      simulator)
from deepedge.estimators import _Device, _Registry

STATE = NodeState(0.1, 0.0, 0.3)
STATE_REPR = "NodeState(cpu_util=0.1, gpu_util=0.0, mem_util=0.3)"
APP = BackgroundApp("vision-stream", 0.2)
APP_REPR = "BackgroundApp(id='vision-stream', deadline=0.2, description='')"
WORKER = WorkerSpec("nano-0", "nano", STATE, (APP,), 1, 16, 5.0, {"store-0": 0.001})
WORKER_REPR = (f"WorkerSpec(id='nano-0', device_class='nano', initial_state={STATE_REPR}, "
               f"background_apps=({APP_REPR},), b_min=1, b_max=16, init_cost=5.0, "
               "per_sample_transfer_cost=mappingproxy({'store-0': 0.001}))")
PROFILE = ParametricProfile(0.01, base_push=0.05)
PROFILE_REPR = ("ParametricProfile(base_forward=0.01, base_backward=0.0, cpu_slope=0.0, "
                "gpu_slope=0.0, base_push=0.05, base_pull=0.0, ps_update=0.0, "
                "ps_cpu_slope=0.0, contention_slope=0.0, batch_update_coef=0.0, "
                "base_mem_footprint=0.0, mem_per_batch_unit=0.0, cpu_pressure=0.0, "
                "gpu_pressure=0.0, bg_base_exec=0.0, bg_cpu_slope=0.0, bg_gpu_slope=0.0, "
                "bg_mem_slope=0.0)")
DEVICE = _Device("parametric", PROFILE)
DEVICE_REPR = f"_Device(type='parametric', profile={PROFILE_REPR}, base=None, models=None)"
COST = CostBreakdown(0.5, 5.0, 20.0, 25.5)
COST_REPR = "CostBreakdown(transfer=0.5, init=5.0, train=20.0, total=25.5)"
ASSIGNMENT = Assignment("nano-0", 500, 8, 0.01, 0.05, 0.13, 10.0, COST)
ASSIGNMENT_REPR = ("Assignment(worker_id='nano-0', num_samples=500, batch_size=8, "
                   f"t_compute=0.01, t_update=0.05, t_total=0.13, epoch_time=10.0, cost={COST_REPR})")
REMOVAL = Removal("nano-1", "pressure", "too busy")
REMOVAL_REPR = "Removal(worker_id='nano-1', reason='pressure', detail='too busy')"
TRIAL = BenchTrial(("nano-1",), 40.0, 60.0, 0, 2, 3, 4)
TRIAL_REPR = ("BenchTrial(stormy_workers=('nano-1',), heuristic_makespan=40.0, "
              "fairness_makespan=60.0, heuristic_violations=0, fairness_violations=2, "
              "heuristic_workers=3, fairness_workers=4)")

# class, sample, its repr, field names, a change to one field, and a change
# the class's own check refuses with the text its message holds (None where
# the class has no check of its own)
SPECS = [
    (NodeState, STATE, STATE_REPR, ("cpu_util", "gpu_util", "mem_util"),
     {"cpu_util": 0.2}, ({"mem_util": 1.5}, "NodeState.mem_util: must be within [0, 1]")),
    (BackgroundApp, APP, APP_REPR, ("id", "deadline", "description"),
     {"deadline": 0.3}, ({"deadline": 0.0}, "'vision-stream'.deadline: must be a positive")),
    (WorkerSpec, WORKER, WORKER_REPR,
     ("id", "device_class", "initial_state", "background_apps", "b_min", "b_max", "init_cost",
      "per_sample_transfer_cost"),
     {"b_max": 8}, ({"b_min": 0}, "worker 'nano-0'.b_min: must be >= 1, got 0")),
    (ClusterSpec, ClusterSpec((WORKER,), STATE, ("store-0",)),
     f"ClusterSpec(workers=({WORKER_REPR},), ps_state={STATE_REPR}, data_stores=('store-0',))",
     ("workers", "ps_state", "data_stores"),
     {"data_stores": ("store-1",)}, ({"data_stores": ()}, "data_stores: at least one")),
    (JobSpec, JobSpec(2000, 2, "store-0"),
     "JobSpec(num_samples=2000, num_epoch=2, source_store='store-0', target_accuracy=None)",
     ("num_samples", "num_epoch", "source_store", "target_accuracy"),
     {"target_accuracy": 0.9}, ({"num_epoch": 0}, "job.num_epoch: must be a positive integer")),
    (ParametricProfile, PROFILE, PROFILE_REPR,
     ("base_forward", "base_backward", "cpu_slope", "gpu_slope", "base_push", "base_pull",
      "ps_update", "ps_cpu_slope", "contention_slope", "batch_update_coef",
      "base_mem_footprint", "mem_per_batch_unit", "cpu_pressure", "gpu_pressure",
      "bg_base_exec", "bg_cpu_slope", "bg_gpu_slope", "bg_mem_slope"),
     {"bg_mem_slope": 0.1}, ({"base_forward": 0.0}, "base_forward: must be > 0")),
    (FittedFunction,
     FittedFunction("exec_time", ("cpu_util", "gpu_util", "mem_util"),
                    (0.2, 0.1, 0.0, 0.05, 0.0, 0.0, 0.5)),
     "FittedFunction(target='exec_time', feature_names=('cpu_util', 'gpu_util', 'mem_util'), "
     "coefficients=(0.2, 0.1, 0.0, 0.05, 0.0, 0.0, 0.5), train_mape=None, test_mape=None)",
     ("target", "feature_names", "coefficients", "train_mape", "test_mape"),
     {"test_mape": 0.02}, ({"coefficients": (1.0,)}, "expected 7 coefficients")),
    (EstimatorBundle, EstimatorBundle("nano", PROFILE),
     f"EstimatorBundle(device_class='nano', profile={PROFILE_REPR}, models=mappingproxy({{}}))",
     ("device_class", "profile", "models"),
     {"device_class": "tx2"}, ({"profile": None}, "no profile and no fitted model")),
    (_Device, DEVICE, DEVICE_REPR, ("type", "profile", "base", "models"),
     {"base": "nano"}, None),
    (_Registry, _Registry({"nano": DEVICE}), f"_Registry(devices={{'nano': {DEVICE_REPR}}})",
     ("devices",), {"devices": {}}, None),
    (CostBreakdown, COST, COST_REPR, ("transfer", "init", "train", "total"),
     {"total": 26.0}, None),
    (Assignment, ASSIGNMENT, ASSIGNMENT_REPR,
     ("worker_id", "num_samples", "batch_size", "t_compute", "t_update", "t_total",
      "epoch_time", "cost"),
     {"batch_size": 16}, None),
    (Removal, REMOVAL, REMOVAL_REPR, ("worker_id", "reason", "detail"),
     {"reason": "slowest"}, None),
    (SolveAudit, SolveAudit(3, 4), "SolveAudit(iterations=3, candidates_considered=4)",
     ("iterations", "candidates_considered"), {"iterations": 5}, None),
    (Plan, Plan("heuristic", 2, 25.5, (ASSIGNMENT,), (REMOVAL,), SolveAudit(3, 4)),
     f"Plan(method='heuristic', num_epoch=2, total_cost=25.5, assignments=({ASSIGNMENT_REPR},), "
     f"removed=({REMOVAL_REPR},), audit=SolveAudit(iterations=3, candidates_considered=4))",
     ("method", "num_epoch", "total_cost", "assignments", "removed", "audit"),
     {"audit": None}, None),
    (SimConfig, SimConfig(0.03, crashes=(CrashEvent("nano-1", 30.0),)),
     "SimConfig(jitter=0.03, max_strikes=3, "
     "crashes=(CrashEvent(worker_id='nano-1', time=30.0),), trace_level='phases')",
     ("jitter", "max_strikes", "crashes", "trace_level"),
     {"trace_level": "rounds"}, ({"max_strikes": 0}, "sim.max_strikes: must be")),
    (SweepPlan, SweepPlan((0.0,), (0.0, 0.5), (0.1,), (1, 2)),
     "SweepPlan(cpu_levels=(0.0,), gpu_levels=(0.0, 0.5), mem_levels=(0.1,), "
     "batch_levels=(1, 2), repetitions=5, noise=0.0)",
     ("cpu_levels", "gpu_levels", "mem_levels", "batch_levels", "repetitions", "noise"),
     {"noise": 0.02}, ({"repetitions": 0}, "sweep.repetitions: must be an integer >= 1")),
    (ProfileDataset, ProfileDataset("nano", {"exec_time": np.zeros((1, 2))}),
     "ProfileDataset(device_class='nano', tables={'exec_time': array([[0., 0.]])})",
     ("device_class", "tables"), {"device_class": "tx2"}, None),
    (BenchTrial, TRIAL, TRIAL_REPR,
     ("stormy_workers", "heuristic_makespan", "fairness_makespan", "heuristic_violations",
      "fairness_violations", "heuristic_workers", "fairness_workers"),
     {"fairness_workers": 2}, ({"heuristic_makespan": 0.0}, "heuristic_makespan: must be > 0")),
    (BenchReport, BenchReport((TRIAL,), 1, 0.03, 2000, 2),
     f"BenchReport(trials=({TRIAL_REPR},), seed=1, jitter=0.03, num_samples=2000, num_epoch=2)",
     ("trials", "seed", "jitter", "num_samples", "num_epoch"),
     {"seed": 2}, ({"trials": ()}, "bench report.trials: at least one trial")),
]
IDS = [cls.__name__ for cls, *_ in SPECS]
CHECKED = [(cls, sample, check) for cls, sample, _, _, _, check in SPECS if check]


def _values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in fields(obj))


def test_every_spec_class_is_pinned():
    modules = (cluster, documents, estimators, orchestrator, profiler, scheduler, simulator)
    found = {obj for module in modules for obj in vars(module).values()
             if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert found == {cls for cls, *_ in SPECS}


@pytest.mark.parametrize("cls, sample, text, names, change, check", SPECS, ids=IDS)
def test_repr_and_field_names(cls, sample, text, names, change, check):
    assert type(sample) is cls and dataclasses.is_dataclass(sample)
    assert repr(sample) == text
    assert tuple(f.name for f in fields(cls)) == names


@pytest.mark.parametrize("cls, sample, text, names, change, check", SPECS, ids=IDS)
def test_equality_and_hash_follow_the_field_values(cls, sample, text, names, change, check):
    same, changed = replace(sample), replace(sample, **change)
    other = SPECS[(IDS.index(cls.__name__) + 1) % len(SPECS)][1]
    assert same is not sample and _values(same) == _values(sample)
    assert sample == sample and not sample != sample
    assert sample != changed and not sample == changed
    assert sample != _values(sample) and not sample == _values(sample)
    assert sample != other and not sample == other
    if cls is ProfileDataset:  # compared and hashed by identity
        assert sample != same and not sample == same
        assert hash(sample) == object.__hash__(sample)
        return
    assert sample == same and not sample != same
    try:
        expected = hash(_values(sample))
    except TypeError:
        assert cls in (WorkerSpec, ClusterSpec, EstimatorBundle, _Registry)
        with pytest.raises(TypeError):
            hash(sample)
    else:
        assert hash(sample) == expected == hash(same)


@pytest.mark.parametrize("cls, sample, text, names, change, check", SPECS, ids=IDS)
def test_fields_are_frozen(cls, sample, text, names, change, check):
    (name, value), = change.items()
    with pytest.raises(FrozenInstanceError):
        setattr(sample, name, value)
    with pytest.raises(FrozenInstanceError):
        delattr(sample, name)
    assert repr(sample) == text


@pytest.mark.parametrize("cls, sample, check", CHECKED, ids=[c.__name__ for c, *_ in CHECKED])
def test_replace_runs_the_class_check_again(cls, sample, check):
    bad, message = check
    with pytest.raises(ValidationError, match=re.escape(message)):
        replace(sample, **bad)


def test_a_spec_inside_itself_reprs_as_an_ellipsis():
    devices = {}
    registry = _Registry(devices)
    devices["self"] = registry
    assert repr(registry) == "_Registry(devices={'self': ...})"


# ``str(inspect.signature(cls))`` of every spec class, as ``dataclass`` writes it
SIGNATURES = json.loads((Path(__file__).parent / "data" / "spec_signatures.json").read_text())
SAMPLES = [(cls, sample) for cls, sample, *_ in SPECS]
POST_INIT = [(cls, sample) for cls, sample in SAMPLES if "__post_init__" in cls.__dict__]


@pytest.mark.parametrize("cls", [cls for cls, *_ in SPECS], ids=IDS)
def test_signature(cls):
    assert str(inspect.signature(cls)) == SIGNATURES[cls.__name__]


@pytest.mark.parametrize("cls, sample", SAMPLES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, sample):
    by_position = cls(*_values(sample))
    by_keyword = cls(**{f.name: getattr(sample, f.name) for f in fields(cls)})
    assert repr(by_position) == repr(by_keyword) == repr(sample)
    if cls is not ProfileDataset:  # compared by identity
        assert by_position == by_keyword == sample


@pytest.mark.parametrize("cls, sample", SAMPLES, ids=IDS)
def test_a_missing_or_unknown_argument_is_named(cls, sample):
    kwargs = {f.name: getattr(sample, f.name) for f in fields(cls)}
    with pytest.raises(TypeError, match=re.escape(
            f"{cls.__qualname__}.__init__() got an unexpected keyword argument 'bogus'")):
        cls(**kwargs, bogus=1)
    required = [f.name for f in fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if required:  # every field of a SimConfig has a default
        del kwargs[required[-1]]
        with pytest.raises(TypeError, match=re.escape(
                f"{cls.__qualname__}.__init__() missing 1 required positional argument: "
                f"'{required[-1]}'")):
            cls(**kwargs)


def test_a_default_factory_makes_a_fresh_value_per_instance():
    @documents.spec
    class Bag:
        name: str
        items: list = dataclasses.field(default_factory=list)

    first, second = Bag("a"), Bag("b")
    assert first.items == second.items == [] and first.items is not second.items
    assert Bag("c", [1]).items == [1]
    assert str(inspect.signature(Bag)) == "(name: str, items: list = <factory>) -> None"
    assert (WorkerSpec("w", "nano", STATE).per_sample_transfer_cost
            == EstimatorBundle("nano", PROFILE).models == {})


@pytest.mark.parametrize("cls, sample", POST_INIT, ids=[cls.__name__ for cls, _ in POST_INIT])
def test_post_init_runs_once_per_construction_and_per_replace(cls, sample, monkeypatch):
    calls = []
    check = cls.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    built = cls(*_values(sample))
    assert calls == [built]
    replaced = replace(sample)
    assert len(calls) == 2 and calls[1] is replaced


@pytest.mark.parametrize("cls, sample", SAMPLES, ids=IDS)
def test_frozen_fields_name_the_attribute(cls, sample):
    name = fields(cls)[0].name
    with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
        setattr(sample, name, None)
    with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'other'$"):
        sample.other = None
    with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
        delattr(sample, name)


def test_spec_classes_share_their_frozen_guards_and_compile_only_an_init():
    classes = [cls for cls, _ in SAMPLES]
    assert {cls.__setattr__ for cls in classes} == {documents._setattr}
    assert {cls.__delattr__ for cls in classes} == {documents._delattr}
    for cls in classes:
        generated = [name for name, value in vars(cls).items()
                     if getattr(getattr(value, "__code__", None), "co_filename", "") == "<string>"]
        assert generated == ["__init__"], cls


@pytest.mark.parametrize("annotation, default", [
    (int, dataclasses.field(init=False, default=0)),
    (int, dataclasses.field(kw_only=True, default=0)),
    (dataclasses.InitVar[int], None),
    (typing.ClassVar[int], 0),
], ids=["init-false", "kw-only", "initvar", "classvar"])
def test_spec_refuses_a_field_its_init_does_not_take(annotation, default):
    body = {"__annotations__": {"a": int, "b": annotation}}
    if default is not None:
        body["b"] = default
    with pytest.raises(TypeError, match="every field must be a positional __init__ field"):
        documents.spec(type("Odd", (), body))
