"""The public shape of the run records that ``simulate``, ``inject_and_recover``,
``run_job``, ``fit_accuracy_curve`` and ``fit`` return: each constructor's
parameters, in order, with their defaults, and the repr of one instance.
Callers build these records by position (``CrashEvent(worker, time)``), so
a change to either shows here."""

import inspect

import pytest

from deepedge import (ArcEvent, CrashEvent, CrashRecord, FitReport, FittedFunction, JobPhase,
                      JobReport, LogisticFit, PhaseChange, RecoveryResult, SimResult,
                      TraceEvent, Violation)

REQUIRED = inspect.Parameter.empty

CRASH = CrashRecord("nano-1", 30.0, 31.0)
FINISH = TraceEvent(12.5, "nano-1", "finish")
SIM = SimResult("interrupted", 31.0, {"nano-1": None}, {"nano-1": 2.0}, {"nano-1": 0},
                {"nano-1": 3}, CRASH, (), (FINISH,))
SIM_REPR = ("SimResult(status='interrupted', makespan=31.0, worker_finish={'nano-1': None}, "
            "train_starts={'nano-1': 2.0}, epochs_completed={'nano-1': 0}, "
            "rounds_completed={'nano-1': 3}, crash=CrashRecord(worker_id='nano-1', "
            "fire_time=30.0, detect_time=31.0), violations=(), "
            "trace=(TraceEvent(time=12.5, worker='nano-1', event='finish', detail=''),))")
SOLVED = PhaseChange(0.0, JobPhase.SOLVED)
SOLVED_REPR = "PhaseChange(time=0.0, phase=<JobPhase.SOLVED: 'solved'>)"

RECORDS = [
    (CrashEvent, [("worker_id", REQUIRED), ("time", REQUIRED)],
     CrashEvent("nano-1", 30.0), "CrashEvent(worker_id='nano-1', time=30.0)"),
    (TraceEvent, [("time", REQUIRED), ("worker", REQUIRED), ("event", REQUIRED), ("detail", "")],
     FINISH, "TraceEvent(time=12.5, worker='nano-1', event='finish', detail='')"),
    (Violation, [("worker_id", REQUIRED), ("app_id", REQUIRED), ("exec_time", REQUIRED),
                 ("deadline", REQUIRED)],
     Violation("nano-0", "vision-stream", 0.25, 0.2),
     "Violation(worker_id='nano-0', app_id='vision-stream', exec_time=0.25, deadline=0.2)"),
    (CrashRecord, [("worker_id", REQUIRED), ("fire_time", REQUIRED), ("detect_time", REQUIRED)],
     CRASH, "CrashRecord(worker_id='nano-1', fire_time=30.0, detect_time=31.0)"),
    (SimResult, [(name, REQUIRED) for name in (
        "status", "makespan", "worker_finish", "train_starts", "epochs_completed",
        "rounds_completed", "crash", "violations", "trace")],
     SIM, SIM_REPR),
    (PhaseChange, [("time", REQUIRED), ("phase", REQUIRED)], SOLVED, SOLVED_REPR),
    (ArcEvent, [("time", REQUIRED), ("kind", REQUIRED), ("worker", REQUIRED)],
     ArcEvent(30.0, "crash", "nano-1"), "ArcEvent(time=30.0, kind='crash', worker='nano-1')"),
    (RecoveryResult, [(name, REQUIRED) for name in (
        "status", "phases", "attempts", "plans", "excluded", "strikes", "events",
        "violations", "trace")],
     RecoveryResult("interrupted", (SOLVED,), (SIM,), (), ("nano-1",), {"nano-1": 3},
                    (ArcEvent(31.0, "excluded", "nano-1"),), (), (FINISH,)),
     f"RecoveryResult(status='interrupted', phases=({SOLVED_REPR},), attempts=({SIM_REPR},), "
     "plans=(), excluded=('nano-1',), strikes={'nano-1': 3}, "
     "events=(ArcEvent(time=31.0, kind='excluded', worker='nano-1'),), violations=(), "
     "trace=(TraceEvent(time=12.5, worker='nano-1', event='finish', detail=''),))"),
    (JobReport, [("status", REQUIRED), ("phases", REQUIRED), ("final_plan", REQUIRED),
                 ("recovery", REQUIRED), ("refined_num_epoch", None), ("accuracy_fit", None)],
     JobReport("abandoned", (PhaseChange(0.0, JobPhase.REQUESTED),
                             PhaseChange(0.0, JobPhase.ABANDONED)), None, None),
     "JobReport(status='abandoned', phases=(PhaseChange(time=0.0, "
     "phase=<JobPhase.REQUESTED: 'requested'>), PhaseChange(time=0.0, "
     "phase=<JobPhase.ABANDONED: 'abandoned'>)), final_plan=None, recovery=None, "
     "refined_num_epoch=None, accuracy_fit=None)"),
    (LogisticFit, [(name, REQUIRED) for name in ("L", "r", "k0", "sse", "iterations")],
     LogisticFit(0.9, 1.25, 3.0, 0.001, 7),
     "LogisticFit(L=0.9, r=1.25, k0=3.0, sse=0.001, iterations=7)"),
    (FitReport, [("model", REQUIRED), ("n_train", REQUIRED), ("n_test", REQUIRED)],
     FitReport(FittedFunction("exec_time", ("cpu_util", "gpu_util", "mem_util"),
                              (0.2, 0.1, 0.0, 0.05, 0.0, 0.0, 0.5)), 84, 16),
     "FitReport(model=FittedFunction(target='exec_time', "
     "feature_names=('cpu_util', 'gpu_util', 'mem_util'), "
     "coefficients=(0.2, 0.1, 0.0, 0.05, 0.0, 0.0, 0.5), train_mape=None, test_mape=None), "
     "n_train=84, n_test=16)"),
]


@pytest.mark.parametrize("cls, params, record, text", RECORDS,
                         ids=[cls.__name__ for cls, *_ in RECORDS])
def test_record_constructor_and_repr(cls, params, record, text):
    signature = inspect.signature(cls)
    assert [(p.name, p.default) for p in signature.parameters.values()] == params
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
               for p in signature.parameters.values())
    assert repr(record) == text
    assert cls(*(getattr(record, name) for name, _ in params)) == record

