import json
import re
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from deepedge import (BackgroundApp, ClusterSpec, JobSpec, NodeState, ParseError,
                      ValidationError, WorkerSpec, default_testbed, load_cluster, load_job,
                      validate)
from deepedge.documents import from_doc, save, to_doc
from deepedge.estimators import (FEATURES_BY_TARGET, FittedFunction, basis_terms,
                                 default_registry, registry_from_doc, registry_to_doc)


def minimal_doc():
    return {
        "schema": 1,
        "data_stores": ["s0"],
        "ps_state": {"cpu_util": 0.1, "gpu_util": 0.0, "mem_util": 0.2},
        "workers": [
            {
                "id": "w0",
                "device_class": "tx2",
                "initial_state": {"cpu_util": 0.0, "gpu_util": 0.0, "mem_util": 0.0},
                "b_min": 1,
                "b_max": 8,
                "init_cost": 0.0,
                "per_sample_transfer_cost": {"s0": 0.001},
            }
        ],
    }


def test_minimal_document_parses():
    cluster = from_doc(ClusterSpec, minimal_doc())
    assert len(cluster.workers) == 1
    assert cluster.workers[0].id == "w0"
    assert cluster.data_stores == ("s0",)


def test_out_of_range_utilization_names_the_field():
    doc = minimal_doc()
    doc["workers"][0]["initial_state"]["cpu_util"] = 1.3
    with pytest.raises(ValidationError, match="cpu_util"):
        from_doc(ClusterSpec, doc)


def test_percentage_strings_normalize():
    doc = minimal_doc()
    doc["workers"][0]["initial_state"]["cpu_util"] = "88%"
    cluster = from_doc(ClusterSpec, doc)
    assert cluster.workers[0].initial_state.cpu_util == pytest.approx(0.88)


def test_unknown_fields_rejected():
    doc = minimal_doc()
    doc["workers"][0]["b_mx"] = 8
    with pytest.raises(ValidationError, match="b_mx"):
        from_doc(ClusterSpec, doc)


def _registry_doc_with_fitted_block():
    doc = registry_to_doc(default_registry())
    names = FEATURES_BY_TARGET["exec_time"]
    fn = FittedFunction("exec_time", names, (0.1,) + (0.0,) * (len(basis_terms(names)) - 1))
    doc["devices"]["tx2"] = {"type": "fitted", "base": "tx2",
                             "models": {"exec_time": to_doc(fn)}}
    return doc


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return mutate


@pytest.mark.parametrize("kind, mutate, field", [
    ("cluster", _set("workers", 0, "per_sample_transfer_cost", "store-0", "abc"),
     "per_sample_transfer_cost['store-0']"),
    ("cluster", _set("workers", 0, "background_apps", 0, "deadline", "abc"),
     "background_apps[0].deadline"),
    ("cluster", _set("workers", 0, "id", 7), "workers[0].id"),
    ("job", _set("num_samples", True), "job.num_samples"),
    ("registry", _set("devices", "nano", "profile", "cpu_slope", "abc"), "profile.cpu_slope"),
    ("fitted", _set("devices", "tx2", "models", "exec_time", "coefficients", 0, "abc"),
     "coefficients[0]"),
    ("fitted", _set("devices", "tx2", "models", "exec_time", "coefficients", 1, float("nan")),
     "coefficients[1]"),
], ids=["transfer-cost", "deadline", "worker-id", "num-samples-bool",
        "profile-coefficient", "fitted-coefficient", "fitted-coefficient-nan"])
def test_mistyped_field_is_named(kind, mutate, field):
    make, parse = {
        "cluster": (lambda: to_doc(default_testbed()), partial(from_doc, ClusterSpec)),
        "job": (lambda: to_doc(JobSpec(num_samples=10, num_epoch=1, source_store="s")),
                partial(from_doc, JobSpec)),
        "registry": (lambda: registry_to_doc(default_registry()), registry_from_doc),
        "fitted": (_registry_doc_with_fitted_block, registry_from_doc),
    }[kind]
    parse(make())  # the unmutated document is fine
    doc = make()
    mutate(doc)
    with pytest.raises(ValidationError, match=re.escape(field)):
        parse(doc)


def test_default_testbed_shape():
    cluster = default_testbed()
    assert len(cluster.workers) == 4
    classes = sorted(w.device_class for w in cluster.workers)
    assert classes == ["nano", "nano", "nano", "tx2"]
    assert cluster.data_stores == ("store-0",)
    for w in cluster.workers:
        assert len(w.background_apps) == 1
        assert w.background_apps[0].deadline == pytest.approx(0.2)


def test_validate_accepts_good_pair():
    cluster = default_testbed()
    job = JobSpec(num_samples=100, num_epoch=1, source_store="store-0")
    assert validate(cluster, job) is None


def test_validate_flags_unknown_store():
    cluster = default_testbed()
    job = JobSpec(num_samples=100, num_epoch=1, source_store="nowhere")
    with pytest.raises(ValidationError, match="'nowhere'"):
        validate(cluster, job)


def _raises_when_built(cls, good: dict, field: str, **bad):
    """``cls`` refuses ``bad`` values with a ValidationError naming ``field``,
    whether built directly or by ``dataclasses.replace`` of a good one."""
    with pytest.raises(ValidationError, match=re.escape(field)):
        cls(**{**good, **bad})
    with pytest.raises(ValidationError, match=re.escape(field)):
        replace(cls(**good), **bad)


WORKER = dict(id="w", device_class="tx2", initial_state=NodeState(0, 0, 0), b_min=1, b_max=4)


def test_worker_batch_bounds_checked():
    _raises_when_built(WorkerSpec, WORKER, "worker 'w'.b_max: must be >= b_min", b_min=8, b_max=2)
    _raises_when_built(WorkerSpec, WORKER, "worker 'w'.b_min: must be >= 1", b_min=0)


def test_a_testbed_worker_with_a_negative_init_cost_cannot_be_built():
    tx2 = default_testbed().workers[0]
    _raises_when_built(WorkerSpec, vars(tx2), "worker 'tx2-0'.init_cost", init_cost=-5.0,
                       b_min=50)


def test_node_state_rejects_bad_values():
    with pytest.raises(ValidationError):
        NodeState(-0.1, 0.0, 0.0)
    with pytest.raises(ValidationError):
        NodeState(0.0, float("nan"), 0.0)
    with pytest.raises(ValidationError):
        NodeState(0.0, 0.0, True)


def test_duplicate_ids_flagged():
    w = WorkerSpec(**WORKER)
    good = dict(workers=(w,), ps_state=NodeState(0, 0, 0), data_stores=("s",))
    _raises_when_built(ClusterSpec, good, "workers: duplicate worker id 'w'", workers=(w, w))
    _raises_when_built(ClusterSpec, good, "data_stores: duplicate store id 's'",
                       data_stores=("s", "s"))
    app = BackgroundApp(id="a", deadline=0.1)
    _raises_when_built(WorkerSpec, WORKER, "worker 'w'.background_apps: duplicate app id 'a'",
                       background_apps=(app, app))


def test_background_app_needs_positive_deadline():
    for deadline in (0.0, -1.0, float("nan"), float("inf")):
        _raises_when_built(BackgroundApp, dict(id="a", deadline=0.1), "'a'.deadline",
                           deadline=deadline)


@pytest.mark.parametrize("cls, good, field, bad", [
    (BackgroundApp, dict(id="a", deadline=0.1), "background_app 'a'.deadline", {"deadline": True}),
    (WorkerSpec, WORKER, "worker 'w'.init_cost: must be >= 0 seconds", {"init_cost": True}),
    (WorkerSpec, WORKER, "worker 'w'.init_cost: must be >= 0 seconds", {"init_cost": "5"}),
    (WorkerSpec, WORKER, "worker 'w'.per_sample_transfer_cost['s']: must be >= 0",
     {"per_sample_transfer_cost": {"s": True}}),
    (JobSpec, dict(num_samples=1, num_epoch=1, source_store="s"), "job.target_accuracy",
     {"target_accuracy": True}),
], ids=["deadline", "init_cost", "init_cost-str", "transfer_cost", "target_accuracy"])
def test_a_bool_is_not_a_number(cls, good, field, bad):
    _raises_when_built(cls, good, field, **bad)


CLUSTER = dict(workers=(WorkerSpec(**WORKER),), ps_state=NodeState(0, 0, 0), data_stores=("s",))
JOB = dict(num_samples=10, num_epoch=1, source_store="s")
APP = dict(id="a", deadline=0.1)


@pytest.mark.parametrize("cls, good, field, bad", [
    (WorkerSpec, WORKER, "worker 'w'.per_sample_transfer_cost: expected a mapping, got 5",
     {"per_sample_transfer_cost": 5}),
    (WorkerSpec, WORKER, "worker 'w'.background_apps: expected a tuple of BackgroundApp",
     {"background_apps": ("x",)}),
    (WorkerSpec, WORKER, "worker 'w'.initial_state: expected a NodeState",
     {"initial_state": (0.1, 0.1, 0.1)}),
    (WorkerSpec, WORKER, "worker.id: must be a non-empty string, got 5", {"id": 5}),
    (WorkerSpec, WORKER, "worker 'w'.device_class: must be a non-empty string",
     {"device_class": None}),
    (ClusterSpec, CLUSTER, "ps_state: expected a NodeState, got None", {"ps_state": None}),
    (ClusterSpec, CLUSTER, "workers: expected a tuple of WorkerSpec", {"workers": (1,)}),
    (ClusterSpec, CLUSTER, "data_stores: expected a tuple of strings", {"data_stores": (5,)}),
    (JobSpec, JOB, "job.source_store: must be a non-empty string, got 5", {"source_store": 5}),
    (BackgroundApp, APP, "background_app.id: must be a non-empty string, got 5", {"id": 5}),
    (BackgroundApp, APP, "background_app 'a'.description: must be a string",
     {"description": None}),
], ids=["transfer_costs", "apps", "initial_state", "worker_id", "device_class", "ps_state",
        "workers", "data_stores", "source_store", "app_id", "app_description"])
def test_a_value_of_the_wrong_kind_is_refused_naming_the_field(cls, good, field, bad):
    _raises_when_built(cls, good, field, **bad)


def test_cluster_round_trip(tmp_path):
    cluster = default_testbed(stressed=True)
    path = tmp_path / "cluster.json"
    save(cluster, path)
    again = load_cluster(path)
    assert again == cluster


def test_transfer_costs_cannot_change_after_the_check():
    worker = default_testbed().workers[0]
    with pytest.raises(TypeError):
        worker.per_sample_transfer_cost["store-0"] = -0.5
    # nor through the dict the worker was built from
    costs = {"store-0": 0.001}
    worker = replace(worker, per_sample_transfer_cost=costs)
    costs["store-0"] = -0.5
    assert worker.per_sample_transfer_cost["store-0"] == 0.001


@pytest.mark.parametrize("name", ["cluster.json", "wide_cluster.json"])
def test_golden_cluster_documents_round_trip_unchanged(name):
    path = Path(__file__).parent / "data" / name
    cluster = load_cluster(path)
    assert json.loads(json.dumps(to_doc(cluster))) == json.loads(path.read_text())


def test_job_round_trip(tmp_path):
    job = JobSpec(num_samples=3855, num_epoch=4, source_store="store-0",
                  target_accuracy=0.9)
    path = tmp_path / "job.json"
    save(job, path)
    assert load_job(path) == job


def test_doc_round_trip_equality():
    cluster = default_testbed()
    assert from_doc(ClusterSpec, to_doc(cluster)) == cluster
    job = JobSpec(num_samples=10, num_epoch=1, source_store="store-0")
    assert from_doc(JobSpec, to_doc(job)) == job


def test_job_field_validation():
    good = dict(num_samples=1, num_epoch=1, source_store="s")
    _raises_when_built(JobSpec, good, "job.num_samples", num_samples=0)
    _raises_when_built(JobSpec, good, "job.num_epoch", num_epoch=0)
    _raises_when_built(JobSpec, good, "job.source_store", source_store="")
    _raises_when_built(JobSpec, good, "job.target_accuracy", target_accuracy=1.5)


def test_loading_garbage_never_crashes(tmp_path):
    # any byte string must either parse or produce a diagnostic
    rng = np.random.default_rng(7)
    path = tmp_path / "junk.json"
    for trial in range(200):
        n = int(rng.integers(0, 60))
        blob = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
        path.write_bytes(blob)
        try:
            load_cluster(path)
        except (ParseError, ValidationError):
            pass
    # syntactically valid JSON of the wrong shape also gets a diagnostic
    for junk in ("[]", "3", '"x"', '{"schema": 1}', '{"schema": 2, "workers": []}'):
        path.write_text(junk)
        with pytest.raises((ParseError, ValidationError)):
            load_cluster(path)


def test_random_documents_round_trip():
    rng = np.random.default_rng(11)
    for trial in range(50):
        n_workers = int(rng.integers(1, 6))
        stores = tuple(f"s{j}" for j in range(int(rng.integers(1, 3))))
        workers = []
        for i in range(n_workers):
            b_min = int(rng.integers(1, 4))
            apps = ()
            if rng.random() < 0.5:
                apps = (BackgroundApp(id=f"bg-{i}", deadline=float(rng.uniform(0.05, 2.0))),)
            workers.append(WorkerSpec(
                id=f"w{i}",
                device_class=str(rng.choice(["tx2", "nano"])),
                initial_state=NodeState(*(float(v) for v in rng.uniform(0, 1, 3))),
                background_apps=apps,
                b_min=b_min,
                b_max=b_min + int(rng.integers(0, 60)),
                init_cost=float(rng.uniform(0, 10)),
                per_sample_transfer_cost={s: float(rng.uniform(0, 0.01)) for s in stores},
            ))
        cluster = ClusterSpec(workers=tuple(workers),
                              ps_state=NodeState(*(float(v) for v in rng.uniform(0, 1, 3))),
                              data_stores=stores)
        doc = json.loads(json.dumps(to_doc(cluster)))
        assert from_doc(ClusterSpec, doc) == cluster
