"""Cluster, job, and node-state data model plus strict JSON config loading.

Documents carry a top-level ``"schema": 1`` marker and unknown fields are
rejected so typos in experiment configs surface early instead of silently
doing nothing. Utilizations are fractions in [0, 1]; configs may spell them
as percentage strings ("88%"), normalized at load time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Document is not something we can even read (bad bytes, bad JSON, wrong shape)."""


class ValidationError(ValueError):
    """Well-formed document that violates a model invariant; message names the field."""


def _as_fraction(value, ctx: str) -> float:
    """Normalize a utilization value: plain fraction, or '88%' style string."""
    if isinstance(value, str):
        text = value.strip()
        if not text.endswith("%"):
            raise ValidationError(f"{ctx}: string utilization must end with '%', got {value!r}")
        try:
            value = float(text[:-1]) / 100.0
        except ValueError:
            raise ValidationError(f"{ctx}: cannot parse percentage {value!r}") from None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{ctx}: expected a number in [0, 1] or a percentage string")
    value = float(value)
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"{ctx}: must be within [0, 1], got {value}")
    return value


def _number(value, ctx: str) -> float:
    """A finite JSON number as a float; a string, a bool or NaN names the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{ctx}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{ctx}: must be finite, got {value}")
    return float(value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class NodeState:
    """Utilization snapshot of one node. All components are fractions in [0, 1]."""

    cpu_util: float
    gpu_util: float
    mem_util: float

    def __post_init__(self):
        for name in ("cpu_util", "gpu_util", "mem_util"):
            value = getattr(self, name)
            if type(value) is float and 0.0 <= value <= 1.0:
                continue  # the common case, and on the estimators' hot path
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(f"NodeState.{name}: expected a number, got {value!r}")
            if not math.isfinite(value) or not 0.0 <= value <= 1.0:
                raise ValidationError(f"NodeState.{name}: must be within [0, 1], got {value}")

    def as_dict(self) -> dict:
        return {"cpu_util": self.cpu_util, "gpu_util": self.gpu_util, "mem_util": self.mem_util}


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
    per_sample_transfer_cost: dict = field(default_factory=dict)

    def violations(self) -> list[str]:
        prefix = f"worker '{self.id}'"
        out = []
        if not self.id:
            out.append("worker.id: must be non-empty")
        if not self.device_class:
            out.append(f"{prefix}.device_class: must be non-empty")
        if not _is_int(self.b_min) or not _is_int(self.b_max):
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


@dataclass(frozen=True)
class ClusterSpec:
    """Workers plus the parameter server state and the available data stores."""

    workers: tuple[WorkerSpec, ...]
    ps_state: NodeState
    data_stores: tuple[str, ...]

    def violations(self) -> list[str]:
        out = []
        if not self.workers:
            out.append("workers: at least one worker is required")
        ids = [w.id for w in self.workers]
        for wid in sorted({i for i in ids if ids.count(i) > 1}):
            out.append(f"workers: duplicate worker id '{wid}'")
        if not self.data_stores:
            out.append("data_stores: at least one data store is required")
        stores = list(self.data_stores)
        for sid in sorted({s for s in stores if stores.count(s) > 1}):
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
    """One model-update request: dataset size, epochs, and solver knobs."""

    num_samples: int
    num_epoch: int
    source_store: str
    target_accuracy: float | None = None
    epsilon: float = 1.0   # convergence threshold on the shard vector, L2
    tau: int = 50          # inner-loop iteration budget

    def violations(self) -> list[str]:
        out = []
        if not _is_int(self.num_samples) or self.num_samples < 1:
            out.append(f"job.num_samples: must be a positive integer, got {self.num_samples}")
        if not _is_int(self.num_epoch) or self.num_epoch < 1:
            out.append(f"job.num_epoch: must be a positive integer, got {self.num_epoch}")
        if not self.source_store:
            out.append("job.source_store: must be non-empty")
        if self.target_accuracy is not None and not 0.0 < self.target_accuracy <= 1.0:
            out.append(f"job.target_accuracy: must lie in (0, 1], got {self.target_accuracy}")
        if not math.isfinite(self.epsilon) or self.epsilon <= 0:
            out.append(f"job.epsilon: must be > 0, got {self.epsilon}")
        if not _is_int(self.tau) or self.tau < 1:
            out.append(f"job.tau: must be a positive integer, got {self.tau}")
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


# --- document loading -------------------------------------------------------

def _load_doc(source) -> dict:
    """Read JSON from a path, bytes, or str. Returns the top-level object.

    A str is JSON text when it starts with '{' or '[' and a path otherwise.
    """
    if isinstance(source, bytes):
        raw = source
    elif isinstance(source, str) and source.lstrip().startswith(("{", "[")):
        raw = source.encode("utf-8")
    else:
        try:
            raw = Path(source).read_bytes()
        except FileNotFoundError:
            raise ParseError(f"{source}: file does not exist") from None
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"document is not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"top-level JSON value must be an object, got {type(doc).__name__}")
    return doc


def _check_schema(doc: dict, what: str) -> None:
    if "schema" not in doc:
        raise ValidationError(f"{what}.schema: missing (expected {SCHEMA_VERSION})")
    if doc["schema"] != SCHEMA_VERSION:
        raise ValidationError(f"{what}.schema: unsupported version {doc['schema']!r} (expected {SCHEMA_VERSION})")


def _fields(obj, required: tuple, ctx: str, optional: tuple = ()) -> dict:
    """``obj`` as an object with every required field and no unknown one."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{ctx}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ValidationError(f"{ctx}: unknown field '{key}'")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{ctx}.{key}: missing")
    return obj


def _integer(value, ctx: str) -> int:
    if not _is_int(value):
        raise ValidationError(f"{ctx}: expected an integer, got {value!r}")
    return value


def _list(value, ctx: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{ctx}: expected a list")
    return value


def _state_from_doc(obj, ctx: str) -> NodeState:
    _fields(obj, ("cpu_util", "gpu_util", "mem_util"), ctx)
    return NodeState(*(_as_fraction(obj[name], f"{ctx}.{name}")
                       for name in ("cpu_util", "gpu_util", "mem_util")))


def _worker_from_doc(obj, stores: tuple[str, ...], index: int) -> WorkerSpec:
    ctx = f"workers[{index}]"
    _fields(obj, ("id", "device_class", "initial_state", "b_min", "b_max"), ctx,
            ("background_apps", "init_cost", "per_sample_transfer_cost"))
    for name in ("id", "device_class"):
        if not isinstance(obj[name], str) or not obj[name]:
            raise ValidationError(f"{ctx}.{name}: expected a non-empty string, got {obj[name]!r}")
    ctx = f"worker '{obj['id']}'"
    apps = []
    for j, app in enumerate(obj.get("background_apps", [])):
        actx = f"{ctx}.background_apps[{j}]"
        _fields(app, ("id", "deadline"), actx, ("description",))
        apps.append(BackgroundApp(id=app["id"], deadline=_number(app["deadline"], f"{actx}.deadline"),
                                  description=app.get("description", "")))
    tctx = f"{ctx}.per_sample_transfer_cost"
    transfer = obj.get("per_sample_transfer_cost", {})
    if isinstance(transfer, dict):
        transfer = {str(k): _number(v, f"{tctx}['{k}']") for k, v in transfer.items()}
    else:
        transfer = dict.fromkeys(stores, _number(transfer, tctx))
    return WorkerSpec(
        id=obj["id"],
        device_class=obj["device_class"],
        initial_state=_state_from_doc(obj["initial_state"], f"{ctx}.initial_state"),
        background_apps=tuple(apps),
        b_min=_integer(obj["b_min"], f"{ctx}.b_min"),
        b_max=_integer(obj["b_max"], f"{ctx}.b_max"),
        init_cost=_number(obj.get("init_cost", 0.0), f"{ctx}.init_cost"),
        per_sample_transfer_cost=transfer,
    )


def cluster_from_doc(doc: dict) -> ClusterSpec:
    _check_schema(doc, "cluster")
    _fields(doc, ("workers", "ps_state", "data_stores"), "cluster", ("schema",))
    if not isinstance(doc["data_stores"], list) or not all(isinstance(s, str) for s in doc["data_stores"]):
        raise ValidationError("cluster.data_stores: expected a list of store ids")
    stores = tuple(doc["data_stores"])
    workers = tuple(_worker_from_doc(w, stores, i)
                    for i, w in enumerate(_list(doc["workers"], "cluster.workers")))
    cluster = ClusterSpec(
        workers=workers,
        ps_state=_state_from_doc(doc["ps_state"], "cluster.ps_state"),
        data_stores=stores,
    )
    problems = cluster.violations()
    if problems:
        raise ValidationError(problems[0])
    return cluster


def load_cluster(source) -> ClusterSpec:
    """Parse and validate a cluster document from a path, bytes, or JSON string."""
    return cluster_from_doc(_load_doc(source))


def job_from_doc(doc: dict) -> JobSpec:
    _check_schema(doc, "job")
    _fields(doc, ("num_samples", "num_epoch", "source_store"), "job",
            ("schema", "target_accuracy", "epsilon", "tau"))
    job = JobSpec(
        num_samples=doc["num_samples"],
        num_epoch=doc["num_epoch"],
        source_store=doc["source_store"],
        target_accuracy=(None if doc.get("target_accuracy") is None
                         else _number(doc["target_accuracy"], "job.target_accuracy")),
        epsilon=_number(doc.get("epsilon", 1.0), "job.epsilon"),
        tau=doc.get("tau", 50),
    )
    problems = job.violations()
    if problems:
        raise ValidationError(problems[0])
    return job


def load_job(source) -> JobSpec:
    """Parse and validate a job document from a path, bytes, or JSON string."""
    return job_from_doc(_load_doc(source))


# --- document saving --------------------------------------------------------

def cluster_to_doc(cluster: ClusterSpec) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "data_stores": list(cluster.data_stores),
        "ps_state": cluster.ps_state.as_dict(),
        "workers": [
            {
                "id": w.id,
                "device_class": w.device_class,
                "initial_state": w.initial_state.as_dict(),
                "background_apps": [
                    {"id": a.id, "deadline": a.deadline, "description": a.description}
                    for a in w.background_apps
                ],
                "b_min": w.b_min,
                "b_max": w.b_max,
                "init_cost": w.init_cost,
                "per_sample_transfer_cost": dict(w.per_sample_transfer_cost),
            }
            for w in cluster.workers
        ],
    }


def job_to_doc(job: JobSpec) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "num_samples": job.num_samples,
        "num_epoch": job.num_epoch,
        "source_store": job.source_store,
        "epsilon": job.epsilon,
        "tau": job.tau,
    }
    if job.target_accuracy is not None:
        doc["target_accuracy"] = job.target_accuracy
    return doc


def save_cluster(cluster: ClusterSpec, path) -> None:
    Path(path).write_text(json.dumps(cluster_to_doc(cluster), indent=2) + "\n")


def save_job(job: JobSpec, path) -> None:
    Path(path).write_text(json.dumps(job_to_doc(job), indent=2) + "\n")


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
