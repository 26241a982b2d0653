"""Per-device performance and interference estimators.

Each device class gets an estimator bundle exposing five functions:

* compute time: seconds per sample at a batch size under a given node state
* update time: seconds per parameter exchange round (push, server-side
  update, pull), including a linear stand-in for multi-worker contention
* state: projected node state once a training task with batch ``b`` lands
* exec time: runtime of a co-located background task under a node state
* max batch size: largest batch whose projected memory stays under a ceiling

A bundle is backed by either a closed-form parametric profile or by fitted
models produced by the profiler (one per target); fitted entries override
the parametric form per target, so a registry can mix both. Each target has
one evaluation, which takes a batch size or an integer array of them, and a
node state or a ``StateTable`` of states, one per batch: a table over every
batch size of every worker of a device class is one call, and a fitted table
one design matrix. A fitted prediction at a point is the same, bit for bit,
whether the point comes alone or among many, and when all three
projected-state targets are fitted they share one design, weighted by each
model's coefficients.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import field
from functools import cached_property, lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Any, NamedTuple

import numpy as np

from .cluster import NodeState, ValidationError
from .documents import doc_field, from_doc, is_number, load_doc, save, spec, to_doc

TARGETS = ("compute_time", "update_time", "state_cpu", "state_gpu", "state_mem", "exec_time")

# Feature vectors used when a target is fitted from sweep data.
FEATURES_BY_TARGET = {
    "compute_time": ("cpu_util", "gpu_util", "mem_util", "batch"),
    "update_time": ("cpu_util", "gpu_util", "mem_util", "batch", "ps_cpu_util", "n_workers"),
    "state_cpu": ("cpu_util", "gpu_util", "mem_util", "batch"),
    "state_gpu": ("cpu_util", "gpu_util", "mem_util", "batch"),
    "state_mem": ("cpu_util", "gpu_util", "mem_util", "batch"),
    "exec_time": ("cpu_util", "gpu_util", "mem_util"),
}

_STATE_TARGETS = ("state_cpu", "state_gpu", "state_mem")

_POSITIVE_FLOOR = 1e-9


def _clamp(value, low, high):
    """``value`` limited to [low, high], elementwise for arrays."""
    if isinstance(value, np.ndarray) or isinstance(low, np.ndarray):
        return np.minimum(high, np.maximum(low, value))
    return min(high, max(low, value))


@spec
class ParametricProfile:
    """Closed-form estimator coefficients for one device class.

    Compute: ``(base_forward + base_backward / b) * (1 + cpu_slope*cpu) * (1 + gpu_slope*gpu)``
    per sample; the backward term amortizes over the batch.

    Update: ``(base_push + base_pull) * (1 + cpu_slope*cpu) * (1 + batch_update_coef/b)
    + ps_update * (1 + ps_cpu_slope*ps_cpu) + contention_slope * (n_workers - 1)``.
    The per-batch factor is >= 1 and decays toward the base cost as b grows.

    State: additive pressures on cpu/gpu, memory footprint linear in b, all
    clamped to 1.

    Background exec: ``bg_base_exec * (1 + sum of slope*util)``.
    """

    base_forward: float
    base_backward: float = 0.0
    cpu_slope: float = 0.0
    gpu_slope: float = 0.0
    base_push: float = 0.0
    base_pull: float = 0.0
    ps_update: float = 0.0
    ps_cpu_slope: float = 0.0
    contention_slope: float = 0.0
    batch_update_coef: float = 0.0
    base_mem_footprint: float = 0.0
    mem_per_batch_unit: float = 0.0
    cpu_pressure: float = 0.0
    gpu_pressure: float = 0.0
    bg_base_exec: float = 0.0
    bg_cpu_slope: float = 0.0
    bg_gpu_slope: float = 0.0
    bg_mem_slope: float = 0.0

    def __post_init__(self):
        if not (is_number(self.base_forward) and 0 < self.base_forward < math.inf):
            raise ValidationError(f"base_forward: must be > 0 seconds/sample, "
                                  f"got {self.base_forward}")
        for name in ("base_backward", "cpu_slope", "gpu_slope", "base_push", "base_pull",
                     "ps_update", "ps_cpu_slope", "contention_slope", "batch_update_coef",
                     "mem_per_batch_unit", "cpu_pressure", "gpu_pressure", "bg_base_exec",
                     "bg_cpu_slope", "bg_gpu_slope", "bg_mem_slope"):
            value = getattr(self, name)
            if not (is_number(value) and 0 <= value < math.inf):
                raise ValidationError(f"{name}: must be >= 0, got {value}")
        if not (is_number(self.base_mem_footprint) and 0.0 <= self.base_mem_footprint < 1.0):
            raise ValidationError(f"base_mem_footprint: must lie in [0, 1), "
                                  f"got {self.base_mem_footprint}")

    # The closed form of each target, named after it. Like FittedFunction.estimate
    # they take (state, batch size, parameter-server state, worker count), and
    # numbers or arrays alike.

    def compute_time(self, state, b, ps_state, n):
        load = (1.0 + self.cpu_slope * state.cpu_util) * (1.0 + self.gpu_slope * state.gpu_util)
        return self.base_forward * load + self.base_backward * load / b

    def update_parts(self, state, b, ps_state) -> tuple:
        """(push, server service, pull); they sum to the update time of one worker."""
        worker_load = (1.0 + self.cpu_slope * state.cpu_util) * (1.0 + self.batch_update_coef / b)
        # the server's part is the same for every worker and batch
        return (self.base_push * worker_load,
                self.ps_update * (1.0 + self.ps_cpu_slope * ps_state.cpu_util),
                self.base_pull * worker_load)

    def update_time(self, state, b, ps_state, n):
        push, service, pull = self.update_parts(state, b, ps_state)
        return push + service + pull + self.contention_slope * (n - 1)

    def state_cpu(self, state, b, ps_state, n):
        return state.cpu_util + self.cpu_pressure

    def state_gpu(self, state, b, ps_state, n):
        return state.gpu_util + self.gpu_pressure

    def state_mem(self, state, b, ps_state, n):
        return state.mem_util + self.base_mem_footprint + self.mem_per_batch_unit * b

    def exec_time(self, state, b, ps_state, n):
        return self.bg_base_exec * (1.0 + self.bg_cpu_slope * state.cpu_util
                                    + self.bg_gpu_slope * state.gpu_util
                                    + self.bg_mem_slope * state.mem_util)


# --- fitted functions --------------------------------------------------------

def basis_terms(feature_names) -> list[tuple[str, tuple[int, ...], bool]]:
    """Fixed nonlinear basis over named features.

    Terms: intercept, each raw feature, each pairwise product, and (when a
    ``batch`` feature is present) every one of those divided by the batch
    size. Returned as (label, feature index tuple, divide_by_batch).
    """
    names = list(feature_names)
    every = range(len(names))
    terms = [("1", (), False)] + [(names[i], (i,), False) for i in every]
    terms += [(f"{names[i]}*{names[j]}", (i, j), False) for i, j in combinations(every, 2)]
    if "batch" in names:
        rest = [i for i in every if names[i] != "batch"]
        terms += [("1/batch", (), True)] + [(f"{names[i]}/batch", (i,), True) for i in rest]
        terms += [(f"{names[i]}*{names[j]}/batch", (i, j), True)
                  for i, j in combinations(rest, 2)]
    return terms


@lru_cache(maxsize=None)
def _term_rows(feature_names: tuple) -> tuple:
    """Every basis term as the product of two rows of ``[1, X.T]`` (left and
    right index arrays), the terms divided by the batch size, and the row
    that holds the batch size (the ones, if no term is divided)."""
    terms = basis_terms(feature_names)
    left = np.array([idx[0] + 1 if idx else 0 for _, idx, _ in terms])
    right = np.array([idx[1] + 1 if len(idx) > 1 else 0 for _, idx, _ in terms])
    divided = np.array([recip for _, _, recip in terms]).nonzero()[0]
    return left, right, divided, (feature_names.index("batch") + 1 if divided.size else 0)


def _terms(feature_names: tuple, P: np.ndarray) -> np.ndarray:
    """The basis with one row per term and one column per point, from ``P``:
    a row of ones, then one row per feature. Whole rows are gathered, which
    is faster than gathering columns; the values are the same either way."""
    left, right, divided, batch = _term_rows(feature_names)
    D = P[left]
    D *= P[right]
    D[divided] /= P[batch]
    return D


def _predict(feature_names: tuple, values, coefficients: np.ndarray) -> list:
    """Per row of ``coefficients``, the basis at the points of ``values`` (one
    per feature) times that row, summed per point: a number for one point
    given as numbers, else an array of the broadcast points' shape. Terms sum
    along row-major rows, so a point's prediction is the same alone or among many."""
    if np.ndarray not in map(type, values):
        design = _terms(feature_names, np.array([1.0, *values]))
        return np.multiply(design, coefficients).sum(axis=1).tolist()
    points = np.broadcast(*values)
    P = np.empty((len(values) + 1, points.size))
    P[0] = 1.0
    for j, value in enumerate(values):
        P[j + 1] = value
    y = np.multiply(_terms(feature_names, P).T, coefficients[:, None], order="C").sum(axis=2)
    return [row.reshape(points.shape) if points.shape else float(row[0]) for row in y]


def design_matrix(feature_names, X: np.ndarray) -> np.ndarray:
    """Evaluate the basis on feature rows. X has one column per feature."""
    names = tuple(feature_names)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(names):
        raise ValueError(f"feature matrix must be (n, {len(names)})")
    P = np.empty((len(names) + 1, len(X)))
    P[0], P[1:] = 1.0, X.T
    return np.ascontiguousarray(_terms(names, P).T)


@spec
class FittedFunction:
    """A linear model over the fixed basis, loadable from a registry block."""

    target: str
    feature_names: tuple[str, ...] = doc_field(key="features")
    coefficients: tuple[float, ...]
    train_mape: float | None = None
    test_mape: float | None = None

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValidationError(f"target: unknown target '{self.target}'")
        features = FEATURES_BY_TARGET[self.target]
        if tuple(self.feature_names) != features:
            raise ValidationError(f"features: expected {list(features)} for target "
                                  f"'{self.target}', got {list(self.feature_names)}")
        expected = len(basis_terms(features))
        if len(self.coefficients) != expected:
            raise ValidationError(
                f"fitted '{self.target}': expected {expected} coefficients for "
                f"features {list(features)}, got {len(self.coefficients)}"
            )

    @cached_property
    def _coefficients(self) -> np.ndarray:
        """The coefficients as a one-row matrix, as ``_predict`` takes them."""
        return np.array([self.coefficients], dtype=float)

    def term_names(self) -> list[str]:
        return [name for name, _, _ in basis_terms(self.feature_names)]

    def predict(self, features: dict | tuple):
        """The model at one point, or at every point where features are 1-d
        arrays (numbers broadcast against them); all points make one design
        matrix, and a point's prediction does not depend on the others. The
        features come by name in a dict, or as a tuple of their values in
        ``feature_names`` order."""
        if type(features) is not tuple:
            try:
                features = [features[name] for name in self.feature_names]
            except KeyError as exc:
                raise ValueError(f"fitted '{self.target}': missing feature {exc}") from None
        return _predict(FEATURES_BY_TARGET[self.target], features, self._coefficients)[0]

    def estimate(self, state, b, ps_state, n):
        """The prediction under ``state`` at batch size ``b`` with ``n`` workers
        on a parameter server in ``ps_state``. Times are floored just above
        zero, since a fit, unlike the closed form, can dip below it."""
        if self.target == "update_time":
            values = (state.cpu_util, state.gpu_util, state.mem_util, b, ps_state.cpu_util, n)
        else:  # every other target's features are a prefix of the update time's
            values = (state.cpu_util, state.gpu_util, state.mem_util, b)[:len(self.feature_names)]
        pred = self.predict(values)
        if self.target.startswith("state_"):
            return pred
        return (np.maximum if isinstance(pred, np.ndarray) else max)(_POSITIVE_FLOOR, pred)


# --- the bundle ---------------------------------------------------------------

# batch sizes max_batch_size projects at once
_BATCH_BLOCK = 1024

# the projected memory utilization no planned batch may exceed
MEM_CEILING = 0.95


def _smallest(count) -> int:
    """The number, or the smallest of an array of them (1 if it is empty)."""
    return count if type(count) is int else np.asarray(count).min(initial=1)


class StateTable(NamedTuple):
    """Node states as a struct of arrays, per component an array or a number
    that broadcasts: what the estimators take for a table of states, and what
    ``est_state`` projects."""

    cpu_util: np.ndarray
    gpu_util: np.ndarray
    mem_util: np.ndarray


@spec
class EstimatorBundle:
    """Estimator set for one device class: parametric profile, fitted overrides, or both.

    A batch size or worker count may be an int or an array, and a node state
    a ``NodeState`` or a ``StateTable``; where any is an array, every estimate
    is an array over them, from one evaluation.
    """

    device_class: str
    profile: ParametricProfile | None = None
    # target name -> FittedFunction; held read-only, as the estimates cached
    # from it and the check below must stay true of it
    models: Mapping[str, FittedFunction] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.models, Mapping):
            raise ValidationError(f"bundle '{self.device_class}': models: expected a mapping, "
                                  f"got {self.models!r}")
        object.__setattr__(self, "models", MappingProxyType(dict(self.models)))
        if self.profile is None:
            missing = [t for t in TARGETS if t not in self.models]
            if missing:
                raise ValidationError(
                    f"bundle '{self.device_class}': no profile and no fitted model for {missing}"
                )
        for target in self.models:
            if target not in TARGETS:
                raise ValidationError(f"bundle '{self.device_class}': unknown target '{target}'")

    @cached_property
    def _estimate(self) -> dict:
        """target -> its one evaluation: the fitted model when the bundle has
        one, else the closed form."""
        return {t: self.models[t].estimate if t in self.models else getattr(self.profile, t)
                for t in TARGETS}

    @cached_property
    def _state_coefficients(self) -> np.ndarray | None:
        """The three state models' coefficients, a row each, when all three
        are fitted (they share their features, so one design serves them);
        else None."""
        return (np.array([self.models[t].coefficients for t in _STATE_TARGETS], dtype=float)
                if all(t in self.models for t in _STATE_TARGETS) else None)

    def est_compute_time(self, state: NodeState, batch_size):
        """Seconds per sample to run one forward+backward pass at this batch size."""
        if _smallest(batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return self._estimate["compute_time"](state, batch_size, None, 1)

    def est_update_time(self, state: NodeState, batch_size, ps_state: NodeState,
                        n_workers):
        """Seconds for one parameter exchange round (push + server update + pull)."""
        if _smallest(n_workers) < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if _smallest(batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return self._estimate["update_time"](state, batch_size, ps_state, n_workers)

    def update_components(self, state: NodeState, batch_size,
                          ps_state: NodeState) -> tuple[float, float, float]:
        """(push, server service, pull) durations of one round: the parts
        ``simulate`` runs and queues, and the service ``solve`` prices.

        For a parametric profile the sum equals ``est_update_time`` at
        ``n_workers=1`` exactly, and the service is a number, whatever the
        state and batch; queueing then replaces the linear contention
        stand-in. Fitted update models cannot be decomposed, so they get a
        fixed 0.3/0.4/0.3 split of the single-worker estimate.
        """
        if _smallest(batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if "update_time" in self.models:
            total = self.est_update_time(state, batch_size, ps_state, n_workers=1)
            return 0.3 * total, 0.4 * total, 0.3 * total
        return self.profile.update_parts(state, batch_size, ps_state)

    def est_state(self, state, batch_size):
        """95th-percentile projected state once a batch-``b`` training task lands:
        a ``StateTable``, of arrays for an array of batch sizes or of states."""
        if _smallest(batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        coefficients = self._state_coefficients
        if coefficients is None:
            estimate = self._estimate
            cpu = estimate["state_cpu"](state, batch_size, None, 1)
            gpu = estimate["state_gpu"](state, batch_size, None, 1)
            mem = estimate["state_mem"](state, batch_size, None, 1)
        else:
            cpu, gpu, mem = _predict(FEATURES_BY_TARGET["state_cpu"], (
                state.cpu_util, state.gpu_util, state.mem_util, batch_size), coefficients)
        # a running task never frees resources, and utilization saturates at 1
        return StateTable(_clamp(cpu, state.cpu_util, 1.0), _clamp(gpu, state.gpu_util, 1.0),
                          _clamp(mem, state.mem_util, 1.0))

    def est_exec_time(self, state):
        """Runtime of the co-located background task under the given state."""
        return self._estimate["exec_time"](state, None, None, 1)

    def max_batch_size(self, state: NodeState, b_min: int, b_max: int) -> int:
        """Largest batch in [b_min, b_max] whose projected memory (``est_state``
        under ``state``) stays <= MEM_CEILING; 0 if none.

        Projected memory need not grow with the batch size (a fitted model may
        dip), so the batches are checked from ``b_max`` down, ``_BATCH_BLOCK``
        at a time: the work grows with ``b_max`` less the answer, which
        callers bound (``fairness_plan`` by the shard). ``solve`` reads its
        caps off its own tables instead.
        """
        if not 1 <= b_min <= b_max:
            raise ValueError(f"need 1 <= b_min <= b_max, got [{b_min}, {b_max}]")
        for top in range(b_max, b_min - 1, -_BATCH_BLOCK):
            batches = np.arange(top, max(top - _BATCH_BLOCK, b_min - 1), -1)
            fits = batches[self.est_state(state, batches).mem_util <= MEM_CEILING]
            if fits.size:
                return int(fits[0])
        return 0


# --- built-in device profiles -------------------------------------------------

# Calibrated so an idle step at batch 16 costs 1.89 s on "tx2" and 2.69 s on
# "nano" (16*base_forward + base_backward), with the big board insulated from
# background interference and the small boards quite sensitive to it.
DEVICE_PROFILES = {
    "tx2": ParametricProfile(
        base_forward=0.09, base_backward=0.45,
        cpu_slope=0.6, gpu_slope=0.8,
        base_push=0.10, base_pull=0.10, ps_update=0.15,
        ps_cpu_slope=0.8, contention_slope=0.005, batch_update_coef=2.0,
        base_mem_footprint=0.12, mem_per_batch_unit=0.006,
        cpu_pressure=0.25, gpu_pressure=0.45,
        bg_base_exec=0.10, bg_cpu_slope=0.10, bg_gpu_slope=0.10, bg_mem_slope=0.05,
    ),
    "nano": ParametricProfile(
        base_forward=0.13, base_backward=0.61,
        cpu_slope=0.7, gpu_slope=0.9,
        base_push=0.15, base_pull=0.15, ps_update=0.15,
        ps_cpu_slope=0.8, contention_slope=0.005, batch_update_coef=2.0,
        base_mem_footprint=0.15, mem_per_batch_unit=0.012,
        cpu_pressure=0.25, gpu_pressure=0.45,
        bg_base_exec=0.10, bg_cpu_slope=0.45, bg_gpu_slope=0.55, bg_mem_slope=0.30,
    ),
}


def default_registry() -> dict:
    """device_class -> EstimatorBundle for the built-in profiles."""
    return {name: EstimatorBundle(device_class=name, profile=profile)
            for name, profile in DEVICE_PROFILES.items()}


def bundle_for(registry: dict, device_class: str) -> EstimatorBundle:
    try:
        return registry[device_class]
    except KeyError:
        raise ValidationError(f"registry has no estimator bundle for device class "
                              f"'{device_class}'") from None


# --- registry documents --------------------------------------------------------

@spec
class _Device:
    """A registry entry: a parametric profile, or fitted models over a profile,
    a built-in ``base`` profile or neither. The codec reads the profile, and
    ``_bundle_from_doc`` each model."""

    type: str
    profile: ParametricProfile | None = None
    base: str | None = None
    models: dict[str, dict[str, Any]] | None = None


@spec
class _Registry:
    """A registry document: one entry per device class."""

    DOCUMENT = "registry"
    devices: dict[str, _Device]


def _bundle_from_doc(name: str, device: _Device) -> EstimatorBundle:
    ctx = f"registry.devices['{name}']"
    if device.type != "fitted" and (device.type != "parametric" or device.base or device.models):
        raise ValidationError(f"{ctx}: expected a 'parametric' entry with only a profile, "
                              f"or a 'fitted' one")
    if device.base is not None and device.base not in DEVICE_PROFILES:
        raise ValidationError(f"{ctx}.base: unknown built-in device class '{device.base}'")
    profile = device.profile or DEVICE_PROFILES.get(device.base)
    models = {}
    for target, block in (device.models or {}).items():
        mctx = f"{ctx}.models['{target}']"
        # "terms" is written for readers and follows from the features
        fn = models[target] = from_doc(
            FittedFunction, {k: v for k, v in block.items() if k != "terms"}, mctx)
        if fn.target != target or block.get("terms", fn.term_names()) != fn.term_names():
            raise ValidationError(f"{mctx}: expected target '{target}' with terms {fn.term_names()}")
    try:
        return EstimatorBundle(device_class=name, profile=profile, models=models)
    except ValidationError as exc:
        raise ValidationError(f"{ctx}: {exc}") from None


def registry_from_doc(doc: dict) -> dict:
    return {name: _bundle_from_doc(name, device)
            for name, device in from_doc(_Registry, doc).devices.items()}


def registry_to_doc(registry: dict) -> dict:
    return to_doc(_Registry({name: _Device(
        type="fitted" if bundle.models else "parametric",
        profile=bundle.profile,
        models={t: {**to_doc(fn), "terms": fn.term_names()}
                for t, fn in sorted(bundle.models.items())} or None)
        for name, bundle in registry.items()}))


def load_registry(source=None) -> dict:
    """Registry from a JSON document; None gives the built-in profiles."""
    if source is None:
        return default_registry()
    return registry_from_doc(load_doc(source))


def save_registry(registry: dict, path) -> None:
    save(registry_to_doc(registry), path)
