"""Interference-aware planning, profiling, and simulation of distributed
model updates on heterogeneous edge clusters."""

__version__ = "0.1.0"

from .documents import ParseError, ValidationError
from .cluster import (BackgroundApp, ClusterSpec, JobSpec, NodeState, WorkerSpec,
                      default_testbed, load_cluster, load_job, validate)
from .estimators import (DEVICE_PROFILES, EstimatorBundle, FittedFunction,
                         ParametricProfile, basis_terms, bundle_for,
                         default_registry, design_matrix, load_registry,
                         save_registry)
from .scheduler import (Assignment, CostBreakdown, InfeasibleScheduleError, Plan,
                        Removal, SolveAudit, check_pressure, epoch_time,
                        fairness_plan, plan_from_doc, plan_to_doc, solve)
from .profiler import (FitReport, ProfileDataset, SweepPlan, dataset_from_csv, fit,
                       fit_all, fitted_bundle, mape, run_sweep, reference_grid)
from .simulator import (ArcEvent, CrashEvent, CrashRecord, IllegalTransitionError,
                        JobPhase, LEGAL_TRANSITIONS, PhaseChange, RecoveryResult,
                        SimConfig, SimResult, TraceEvent, Violation,
                        inject_and_recover, load_trace, save_trace, simulate,
                        validate_transitions)
from .orchestrator import (BenchReport, BenchTrial, JobReport, LogisticFit, bench,
                           crossing_epoch, fit_accuracy_curve, logistic, refine_num_epoch,
                           render_report, run_job, save_histogram_csv)

__all__ = [
    "__version__",
    # cluster
    "BackgroundApp", "ClusterSpec", "JobSpec", "NodeState", "ParseError",
    "ValidationError", "WorkerSpec", "default_testbed", "load_cluster", "load_job",
    "validate",
    # estimators
    "DEVICE_PROFILES", "EstimatorBundle", "FittedFunction", "ParametricProfile",
    "basis_terms", "bundle_for", "default_registry", "design_matrix",
    "load_registry", "save_registry",
    # scheduler
    "Assignment", "CostBreakdown", "InfeasibleScheduleError", "Plan", "Removal",
    "SolveAudit", "check_pressure", "epoch_time", "fairness_plan", "plan_from_doc",
    "plan_to_doc", "solve",
    # profiler
    "FitReport", "ProfileDataset", "SweepPlan", "dataset_from_csv", "fit", "fit_all",
    "fitted_bundle", "mape", "run_sweep", "reference_grid",
    # simulator
    "ArcEvent", "CrashEvent", "CrashRecord", "IllegalTransitionError", "JobPhase",
    "LEGAL_TRANSITIONS", "PhaseChange", "RecoveryResult", "SimConfig", "SimResult",
    "TraceEvent", "Violation", "inject_and_recover", "load_trace", "save_trace",
    "simulate", "validate_transitions",
    # orchestrator
    "BenchReport", "BenchTrial", "JobReport", "LogisticFit", "bench", "crossing_epoch",
    "fit_accuracy_curve", "logistic", "refine_num_epoch", "render_report", "run_job",
    "save_histogram_csv",
]
