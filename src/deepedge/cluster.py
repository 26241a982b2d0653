"""Cluster, job, and node-state data model and their JSON documents.

Documents are read and written by the codec in ``documents``: unknown
fields are rejected so typos in experiment configs surface early instead of
silently doing nothing. Utilizations are fractions in [0, 1]; configs may
spell them as percentage strings ("88%"), normalized at load time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .documents import ValidationError, doc_field, fraction, from_doc, load_doc, save


@dataclass(frozen=True)
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
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(f"NodeState.{name}: expected a number, got {value!r}")
            if not math.isfinite(value) or not 0.0 <= value <= 1.0:
                raise ValidationError(f"NodeState.{name}: must be within [0, 1], got {value}")


@dataclass(frozen=True)
class BackgroundApp:
    """Latency-sensitive task co-located on a worker.

    ``deadline`` doubles as the evaluation period: the app is assumed to fire
    every ``deadline`` seconds and must finish before the next arrival.
    """

    id: str
    deadline: float
    description: str = ""

    def violations(self, ctx: str = "") -> list[str]:
        prefix = f"{ctx}background_app '{self.id}'" if self.id else f"{ctx}background_app"
        out = []
        if not self.id:
            out.append(f"{prefix}.id: must be non-empty")
        if not isinstance(self.deadline, (int, float)) or self.deadline <= 0 or not math.isfinite(self.deadline):
            out.append(f"{prefix}.deadline: must be a positive finite number of seconds")
        return out


@dataclass(frozen=True)
class WorkerSpec:
    """Static description of one candidate worker node."""

    id: str
    device_class: str
    initial_state: NodeState
    background_apps: tuple[BackgroundApp, ...] = ()
    b_min: int = 1
    b_max: int = 1
    init_cost: float = 0.0
    # seconds per sample, keyed by data store id
    per_sample_transfer_cost: dict[str, float] = field(default_factory=dict)

    def violations(self) -> list[str]:
        prefix = f"worker '{self.id}'"
        out = []
        if not self.id:
            out.append("worker.id: must be non-empty")
        if not self.device_class:
            out.append(f"{prefix}.device_class: must be non-empty")
        if type(self.b_min) is not int or type(self.b_max) is not int:
            out.append(f"{prefix}.b_min/b_max: must be integers")
            return out
        if self.b_min < 1:
            out.append(f"{prefix}.b_min: must be >= 1, got {self.b_min}")
        if self.b_max < self.b_min:
            out.append(f"{prefix}.b_max: must be >= b_min, got b_min={self.b_min} b_max={self.b_max}")
        if not math.isfinite(self.init_cost) or self.init_cost < 0:
            out.append(f"{prefix}.init_cost: must be >= 0 seconds")
        seen = set()
        for app in self.background_apps:
            out.extend(app.violations(ctx=f"{prefix}."))
            if app.id in seen:
                out.append(f"{prefix}.background_apps: duplicate app id '{app.id}'")
            seen.add(app.id)
        for store, cost in self.per_sample_transfer_cost.items():
            if not isinstance(cost, (int, float)) or not math.isfinite(cost) or cost < 0:
                out.append(f"{prefix}.per_sample_transfer_cost['{store}']: must be >= 0 seconds/sample")
        return out


def _duplicates(ids) -> list:
    """The ids that occur more than once, sorted."""
    seen, twice = set(), set()
    for i in ids:
        (twice if i in seen else seen).add(i)
    return sorted(twice)


@dataclass(frozen=True)
class ClusterSpec:
    """Workers plus the parameter server state and the available data stores."""

    DOCUMENT = "cluster"
    workers: tuple[WorkerSpec, ...]
    ps_state: NodeState
    data_stores: tuple[str, ...]

    def violations(self) -> list[str]:
        out = []
        if not self.workers:
            out.append("workers: at least one worker is required")
        for wid in _duplicates(w.id for w in self.workers):
            out.append(f"workers: duplicate worker id '{wid}'")
        if not self.data_stores:
            out.append("data_stores: at least one data store is required")
        for sid in _duplicates(self.data_stores):
            out.append(f"data_stores: duplicate store id '{sid}'")
        for w in self.workers:
            out.extend(w.violations())
        return out

    def worker(self, worker_id: str) -> WorkerSpec:
        for w in self.workers:
            if w.id == worker_id:
                return w
        raise KeyError(f"no worker with id '{worker_id}'")


@dataclass(frozen=True)
class JobSpec:
    """One model-update request: dataset size, epochs, source store and target accuracy."""

    DOCUMENT = "job"
    num_samples: int
    num_epoch: int
    source_store: str
    target_accuracy: float | None = None

    def violations(self) -> list[str]:
        out = []
        if type(self.num_samples) is not int or self.num_samples < 1:
            out.append(f"job.num_samples: must be a positive integer, got {self.num_samples}")
        if type(self.num_epoch) is not int or self.num_epoch < 1:
            out.append(f"job.num_epoch: must be a positive integer, got {self.num_epoch}")
        if not self.source_store:
            out.append("job.source_store: must be non-empty")
        if self.target_accuracy is not None and not 0.0 < self.target_accuracy <= 1.0:
            out.append(f"job.target_accuracy: must lie in (0, 1], got {self.target_accuracy}")
        return out


def validate(cluster: ClusterSpec, job: JobSpec) -> list[str]:
    """Every violated invariant as a message; empty list means schedulable input."""
    out = cluster.violations() + job.violations()
    if job.source_store and job.source_store not in cluster.data_stores:
        out.append(f"job.source_store: '{job.source_store}' is not one of the cluster's data stores")
    else:
        for w in cluster.workers:
            if job.source_store and job.source_store not in w.per_sample_transfer_cost:
                out.append(
                    f"worker '{w.id}'.per_sample_transfer_cost: no entry for source store "
                    f"'{job.source_store}'"
                )
    return out


# --- documents ----------------------------------------------------------------

def cluster_from_doc(doc: dict) -> ClusterSpec:
    return from_doc(ClusterSpec, doc)


def job_from_doc(doc: dict) -> JobSpec:
    return from_doc(JobSpec, doc)


def load_cluster(source) -> ClusterSpec:
    """Parse and validate a cluster document from a path, bytes, or JSON string."""
    return from_doc(ClusterSpec, load_doc(source))


def load_job(source) -> JobSpec:
    """Parse and validate a job document from a path, bytes, or JSON string."""
    return from_doc(JobSpec, load_doc(source))


save_cluster = save_job = save


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
