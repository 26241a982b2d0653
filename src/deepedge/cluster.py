"""Cluster, job, and node-state data model and their JSON documents.

Every spec checks its own invariants when it is built, whether by hand, by
``dataclasses.replace`` or from a document, and raises ``ValidationError``
naming the first broken field; ``validate`` checks only what ties a cluster
and a job together, and raises ``ValidationError`` when they do not fit.
Documents are read and written by the codec in ``documents``: unknown fields
are rejected so typos in experiment configs surface early instead of
silently doing nothing. Utilizations are fractions in [0, 1]; configs may
spell them as percentage strings ("88%"), normalized at load time.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import field
from types import MappingProxyType

from .documents import ValidationError, doc_field, fraction, from_doc, is_number, load_doc, spec


@spec
class NodeState:
    """Utilization snapshot of one node. All components are fractions in [0, 1]."""

    cpu_util: float = doc_field(read=fraction)
    gpu_util: float = doc_field(read=fraction)
    mem_util: float = doc_field(read=fraction)

    def __post_init__(self):
        for name in ("cpu_util", "gpu_util", "mem_util"):
            value = getattr(self, name)
            if type(value) is float and 0.0 <= value <= 1.0:
                continue  # the common case, and on the estimators' hot path
            if not is_number(value):
                raise ValidationError(f"NodeState.{name}: expected a number, got {value!r}")
            if not math.isfinite(value) or not 0.0 <= value <= 1.0:
                raise ValidationError(f"NodeState.{name}: must be within [0, 1], got {value}")


@spec
class BackgroundApp:
    """Latency-sensitive task co-located on a worker.

    ``deadline`` doubles as the evaluation period: the app is assumed to fire
    every ``deadline`` seconds and must finish before the next arrival.
    """

    id: str
    deadline: float
    description: str = ""

    def __post_init__(self):
        if not (isinstance(self.id, str) and self.id):
            raise ValidationError(f"background_app.id: must be a non-empty string, got {self.id!r}")
        if not (is_number(self.deadline) and 0 < self.deadline < math.inf):
            raise ValidationError(f"background_app '{self.id}'.deadline: must be a positive "
                                  f"finite number of seconds")
        if not isinstance(self.description, str):
            raise ValidationError(f"background_app '{self.id}'.description: must be a string, "
                                  f"got {self.description!r}")


def _duplicate(ids):
    """The first id that occurs a second time, or None."""
    seen = set()
    for i in ids:
        if i in seen:
            return i
        seen.add(i)
    return None


@spec
class WorkerSpec:
    """Static description of one candidate worker node."""

    id: str
    device_class: str
    initial_state: NodeState
    background_apps: tuple[BackgroundApp, ...] = ()
    b_min: int = 1
    b_max: int = 1
    init_cost: float = 0.0
    # seconds per sample, keyed by data store id; held read-only, so that
    # the check below cannot be undone after it
    per_sample_transfer_cost: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        costs = self.per_sample_transfer_cost
        if isinstance(costs, Mapping):
            object.__setattr__(self, "per_sample_transfer_cost", MappingProxyType(dict(costs)))
        b_min, b_max, apps = self.b_min, self.b_max, self.background_apps
        if not (isinstance(self.id, str) and self.id):
            raise ValidationError(f"worker.id: must be a non-empty string, got {self.id!r}")
        if not (isinstance(self.device_class, str) and self.device_class):
            problem = f"device_class: must be a non-empty string, got {self.device_class!r}"
        elif not isinstance(self.initial_state, NodeState):
            problem = f"initial_state: expected a NodeState, got {self.initial_state!r}"
        elif not (isinstance(apps, tuple) and all(isinstance(app, BackgroundApp) for app in apps)):
            problem = "background_apps: expected a tuple of BackgroundApp"
        elif not isinstance(costs, Mapping):
            problem = f"per_sample_transfer_cost: expected a mapping, got {costs!r}"
        elif type(b_min) is not int or type(b_max) is not int:
            problem = "b_min/b_max: must be integers"
        elif b_min < 1:
            problem = f"b_min: must be >= 1, got {b_min}"
        elif b_max < b_min:
            problem = f"b_max: must be >= b_min, got b_min={b_min} b_max={b_max}"
        elif not (is_number(self.init_cost) and 0 <= self.init_cost < math.inf):
            problem = "init_cost: must be >= 0 seconds"
        elif len(apps) > 1 and (twice := _duplicate(app.id for app in apps)):
            problem = f"background_apps: duplicate app id '{twice}'"
        else:
            problem = next((f"per_sample_transfer_cost['{store}']: must be >= 0 seconds/sample"
                            for store, cost in self.per_sample_transfer_cost.items()
                            if not (is_number(cost) and 0 <= cost < math.inf)),
                           None)
        if problem:
            raise ValidationError(f"worker '{self.id}'.{problem}")


@spec
class ClusterSpec:
    """Workers plus the parameter server state and the available data stores."""

    DOCUMENT = "cluster"
    workers: tuple[WorkerSpec, ...]
    ps_state: NodeState
    data_stores: tuple[str, ...]

    def __post_init__(self):
        if not (isinstance(self.workers, tuple)
                and all(isinstance(w, WorkerSpec) for w in self.workers)):
            raise ValidationError("workers: expected a tuple of WorkerSpec")
        if not isinstance(self.ps_state, NodeState):
            raise ValidationError(f"ps_state: expected a NodeState, got {self.ps_state!r}")
        if not (isinstance(self.data_stores, tuple)
                and all(isinstance(store, str) for store in self.data_stores)):
            raise ValidationError("data_stores: expected a tuple of strings")
        if not self.workers:
            raise ValidationError("workers: at least one worker is required")
        if (twice := _duplicate(w.id for w in self.workers)) is not None:
            raise ValidationError(f"workers: duplicate worker id '{twice}'")
        if not self.data_stores:
            raise ValidationError("data_stores: at least one data store is required")
        if (twice := _duplicate(self.data_stores)) is not None:
            raise ValidationError(f"data_stores: duplicate store id '{twice}'")


@spec
class JobSpec:
    """One model-update request: dataset size, epochs, source store and target accuracy."""

    DOCUMENT = "job"
    num_samples: int
    num_epoch: int
    source_store: str
    target_accuracy: float | None = None

    def __post_init__(self):
        if type(self.num_samples) is not int or self.num_samples < 1:
            raise ValidationError(f"job.num_samples: must be a positive integer, "
                                  f"got {self.num_samples}")
        if type(self.num_epoch) is not int or self.num_epoch < 1:
            raise ValidationError(f"job.num_epoch: must be a positive integer, got {self.num_epoch}")
        if not (isinstance(self.source_store, str) and self.source_store):
            raise ValidationError(f"job.source_store: must be a non-empty string, "
                                  f"got {self.source_store!r}")
        accuracy = self.target_accuracy
        if accuracy is not None and not (is_number(accuracy) and 0.0 < accuracy <= 1.0):
            raise ValidationError(f"job.target_accuracy: must lie in (0, 1], "
                                  f"got {self.target_accuracy}")


def validate(cluster: ClusterSpec, job: JobSpec) -> None:
    """Raise ValidationError, naming what is wrong, when a cluster and a job,
    each valid on its own, are unfit for each other; return None when they fit.
    The job's store must be one of the cluster's, and every worker needs a
    transfer cost for it."""
    store = job.source_store
    if store not in cluster.data_stores:
        raise ValidationError(f"job.source_store: '{store}' is not one of the cluster's data stores")
    problems = [f"worker '{w.id}'.per_sample_transfer_cost: no entry for source store '{store}'"
                for w in cluster.workers if store not in w.per_sample_transfer_cost]
    if problems:
        raise ValidationError("; ".join(problems))


# --- documents ----------------------------------------------------------------

def load_cluster(source) -> ClusterSpec:
    """Parse and validate a cluster document from a path, bytes, or JSON string."""
    return from_doc(ClusterSpec, load_doc(source))


def load_job(source) -> JobSpec:
    """Parse and validate a job document from a path, bytes, or JSON string."""
    return from_doc(JobSpec, load_doc(source))


# --- canned testbed ---------------------------------------------------------

def default_testbed(stressed: bool = False) -> ClusterSpec:
    """A small reference cluster: one big GPU board plus three constrained ones.

    Every worker co-hosts a periodic vision pipeline with a 200 ms deadline,
    which is what makes interference-aware placement interesting here. With
    ``stressed=True`` the three small workers start with substantial load.
    """
    stream = (BackgroundApp(id="vision-stream", deadline=0.2,
                            description="periodic feature extraction, one frame per deadline"),)
    if stressed:
        nano_states = [NodeState(0.55, 0.65, 0.45), NodeState(0.05, 0.0, 0.2), NodeState(0.05, 0.0, 0.2)]
    else:
        nano_states = [NodeState(0.05, 0.0, 0.2)] * 3
    workers = [
        WorkerSpec(
            id="tx2-0", device_class="tx2", initial_state=NodeState(0.05, 0.0, 0.15),
            background_apps=stream, b_min=1, b_max=64, init_cost=5.0,
            per_sample_transfer_cost={"store-0": 0.001},
        ),
    ]
    for i, state in enumerate(nano_states):
        workers.append(
            WorkerSpec(
                id=f"nano-{i}", device_class="nano", initial_state=state,
                background_apps=stream, b_min=1, b_max=16, init_cost=5.0,
                per_sample_transfer_cost={"store-0": 0.001},
            )
        )
    return ClusterSpec(workers=tuple(workers), ps_state=NodeState(0.10, 0.0, 0.3),
                       data_stores=("store-0",))
