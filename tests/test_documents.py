"""Document round trips over golden files.

The files in ``tests/data`` were written before the five documents shared
one codec: the stressed testbed, a job with a target accuracy, the stressed
testbed's solved plan for 2,000 samples over two epochs (it has an audit
and a pressure removal), the built-in registry with
``nano`` replaced by fitted models of seeded random coefficients, and a
3-trial bench report. The job's ``epsilon`` and ``tau`` and the plan audit's
``converged`` and ``batches`` were taken out when those fields were deleted,
and so were the audit's ``shares`` and ``t_total``. The bench report's
summary keys (``n_trials``, ``mean_speedup``, ``median_speedup``,
``min_speedup``, ``max_speedup``, ``frac_speedup_ge_1_5``,
``violations_heuristic``, ``violations_fairness`` and ``histogram``) and each
trial's ``index`` and ``speedup`` were taken out when the report came to
derive them from its trials.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from deepedge import (BenchReport, ParseError, Plan, ValidationError, load_cluster, load_job,
                      load_registry)
from deepedge.documents import from_doc, load_doc, to_doc
from deepedge.estimators import registry_to_doc
from deepedge.scheduler import plan_to_doc

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "cluster": (load_cluster, to_doc),
    "job": (load_job, to_doc),
    "plan": (lambda path: from_doc(Plan, load_doc(path)), plan_to_doc),
    "registry": (load_registry, registry_to_doc),
    "bench": (lambda path: from_doc(BenchReport, load_doc(path)), to_doc),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_golden_document_round_trips(kind):
    load, write = GOLDEN[kind]
    path = DATA / f"{kind}.json"
    assert write(load(path)) == json.loads(path.read_text())


def _paths(value, path=()):
    """The path to every value inside a JSON document, the root's included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


WRONG_VALUES = [None, True, 7, -1, 2.5, float("nan"), float("inf"), "x", "", [], [1, "x"], {},
                {"a": 1}]


@pytest.mark.parametrize("kind", sorted(GOLDEN))
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_documents_load_or_fail_cleanly(kind, data):
    doc = json.loads((DATA / f"{kind}.json").read_text())
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]), label="path")
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    mutation = data.draw(st.sampled_from(["replace", "delete", "add sibling"]), label="mutation")
    if mutation == "replace":
        parent[path[-1]] = data.draw(st.sampled_from(WRONG_VALUES), label="value")
    elif mutation == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent["unexpected"] = 1
    else:
        parent.append(1)
    load, _ = GOLDEN[kind]
    try:
        load(json.dumps(doc))
    except (ParseError, ValidationError):
        pass
