"""Spans around calls into deepedge, recorded from outside the program.

Each wrapped call opens a span with a name, start, end, parent and request
id, in the style of Dapper (Sigelman et al., 2010). A span's self time is its
duration minus the time its child spans cover; calls run one at a time on one
thread, so children never overlap and that cover is the sum of their
durations.

Hot leaf calls (``check_pressure`` and the estimators, thousands per request)
are folded: instead of one record per call they add to a per-(request,
nearest recorded span, immediate caller, name) aggregate of count, total and
self time, which bounds memory.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (module defining the function, attribute, span name, folded)
FUNCTIONS = (
    ("deepedge.cluster", "load_cluster", "cluster.load_cluster", False),
    ("deepedge.cluster", "load_job", "cluster.load_job", False),
    ("deepedge.scheduler", "solve", "scheduler.solve", False),
    ("deepedge.scheduler", "fairness_plan", "scheduler.fairness_plan", False),
    ("deepedge.scheduler", "plan_to_doc", "scheduler.plan_to_doc", False),
    ("deepedge.scheduler", "plan_from_doc", "scheduler.plan_from_doc", False),
    ("deepedge.scheduler", "check_pressure", "scheduler.check_pressure", True),
    ("deepedge.simulator", "simulate", "simulator.simulate", False),
    ("deepedge.simulator", "inject_and_recover", "simulator.inject_and_recover", False),
    ("deepedge.orchestrator", "run_job", "orchestrator.run_job", False),
    ("deepedge.orchestrator", "refine_num_epoch", "orchestrator.refine_num_epoch", False),
    ("deepedge.orchestrator", "fit_accuracy_curve", "orchestrator.fit_accuracy_curve", False),
)

# (module, class, method, span name); all folded
METHODS = tuple(
    ("deepedge.estimators", "EstimatorBundle", m, f"estimators.{m}", True)
    for m in ("est_compute_time", "est_update_time", "update_components",
              "est_state", "est_exec_time", "max_batch_size")
) + (("deepedge.estimators", "FittedFunction", "predict", "estimators.predict", True),)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    self_time: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for calls made through the functions it wraps.

    ``clock`` is injectable so tests can build a span tree with known times.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.folded: dict = {}  # (request, anchor span, caller name, name) -> [count, total, self]
        self.request = None
        # frame: [name, recorded span id (own or nearest ancestor's), child time]
        self._stack = [["", None, 0.0]]
        self._next_id = 0

    def _open(self, name: str, folded: bool) -> list:
        parent = self._stack[-1]
        if folded:
            frame = [name, parent[1], 0.0]
        else:
            frame = [name, self._next_id, 0.0]
            self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float, folded: bool) -> None:
        self._stack.pop()
        parent = self._stack[-1]
        duration = end - start
        parent[2] += duration
        if folded:
            key = (self.request, frame[1], parent[0], frame[0])
            entry = self.folded.get(key)
            if entry is None:
                self.folded[key] = [1, duration, duration - frame[2]]
            else:
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
        else:
            self.spans.append(Span(frame[1], frame[0], start, end, parent[1],
                                   self.request, duration - frame[2]))

    def wrap(self, fn, name: str, folded: bool):
        """``fn`` with a span (or a folded aggregate) around every call."""
        clock = self.clock

        def traced(*args, **kwargs):
            frame = self._open(name, folded)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, start, clock(), folded)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str, request=None):
        """A recorded span around a block; ``request`` tags it and everything inside."""
        if request is not None:
            self.request = request
        frame = self._open(name, folded=False)
        start = self.clock()
        try:
            yield
        finally:
            self._close(frame, start, self.clock(), folded=False)

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every binding of the traced functions in every deepedge module.

        A function imported by name into several modules (``solve`` lives in
        scheduler, simulator and orchestrator) is wrapped at each binding, or
        the calls made through the missed one would go unrecorded.
        """
        undo = []
        try:
            for mod_name, attr, name, folded in FUNCTIONS:
                fn = getattr(modules[mod_name], attr)
                wrapped = self.wrap(fn, name, folded)
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, fn))
            for mod_name, cls_name, attr, name, folded in METHODS:
                cls = getattr(modules[mod_name], cls_name)
                fn = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(fn, name, folded))
                undo.append((cls, attr, fn))
            yield self
        finally:
            for owner, key, fn in reversed(undo):
                setattr(owner, key, fn)

    def write(self, path) -> None:
        """Spans and folded aggregates as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"span": asdict(s)}) + "\n")
            for (request, anchor, caller, name), (count, total, self_t) in self.folded.items():
                fh.write(json.dumps({"folded": {
                    "request": request, "anchor": anchor, "caller": caller, "name": name,
                    "count": count, "total": total, "self_time": self_t}}) + "\n")
