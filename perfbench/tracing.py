"""Wrapper spans around the public entry points of each layer.

The program carries no tracing of its own: :class:`Tracer` patches the
named class and module attributes with wrappers that record one span per
call (name, start, end, parent, run id, ok) into flat in-memory arrays,
plus a few counters taken from arguments and return values.  ``remove``
puts every original back, so one process can time untraced passes, trace
one pass, and compare their outputs.

A call made while a span of the same name is already innermost — a
``super()`` chain or re-entry — is folded into that span rather than
counted twice.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from types import MethodType
from typing import Any, Callable, Optional

_now_ns = time.perf_counter_ns


def _all_subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _attr(module: str, dotted: str):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Span store plus the patch table of every traced layer boundary."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_ok = array("b")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters: dict[str, float] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def patch(
        self,
        owner,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a ``name`` span around it.

        ``before(args, kwargs)`` runs at entry and its value reaches
        ``after(args, kwargs, result, pre)``, which runs on success only.
        """
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        span = _Span(self, self._name_id(name), original, before, after)
        setattr(owner, attr, span)

    def patch_method(self, base: type, attr: str, name: str, **hooks) -> None:
        """Patch ``attr`` on ``base`` and on every subclass defining it."""
        for cls in _all_subclasses(base):
            if attr in cls.__dict__:
                self.patch(cls, attr, name, **hooks)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Patch every layer boundary the per-layer metrics are read from."""
        count = self.count
        m = "repro.experiments.orchestrator"
        self.patch(_attr(m, "Orchestrator"), "run_one", "experiments.run_one")
        self.patch(
            _attr("repro.experiments.cache", "ResultCache"), "put",
            "experiments.cache_put",
        )
        self.patch_method(
            _attr("repro.systems.base", "LiveRun"), "run", "systems.run"
        )
        bundle = _attr("repro.systems.base", "WorkloadBundle")
        for attr in ("materialize_trace", "materialize_workflow"):
            self.patch(bundle, attr, "systems.materialize")

        def events_before(args, kwargs):
            return args[0].executed_events

        def events_after(args, kwargs, result, pre):
            count("simkit.events", args[0].executed_events - pre)

        self.patch_method(
            _attr("repro.simkit.engine", "SimulationEngine"), "run",
            "simkit.run", before=events_before, after=events_after,
        )
        snapshot = importlib.import_module("repro.simkit.snapshot")
        self.patch(snapshot, "fork_world", "simkit.fork")

        def fluid_after(args, kwargs, result, pre):
            count("simkit.fluid_applied", 1 if result else 0)

        fluid = importlib.import_module("repro.simkit.fluid")
        self.patch(fluid, "try_fluid_run", "simkit.fluid", after=fluid_after)

        server = _attr("repro.core.servers", "REServer")

        def dispatch_after(args, kwargs, result, pre):
            count("core.jobs_started", result)

        self.patch_method(server, "dispatch", "core.dispatch", after=dispatch_after)
        self.patch_method(server, "submit_job", "core.submit_job")
        self.patch_method(server, "kill_running", "core.kill_running")

        def select_after(args, kwargs, result, pre):
            queued = args[2] if len(args) > 2 else kwargs["queued"]
            count("scheduling.queue_depth_sum", len(queued))
            count("scheduling.picks", len(result))

        self.patch_method(
            _attr("repro.scheduling.base", "Scheduler"), "select",
            "scheduling.select", after=select_after,
        )
        workflow = _attr("repro.workloads.workflow", "Workflow")

        def ready_after(args, kwargs, result, pre):
            count("workloads.tasks_offered", len(result))

        self.patch(workflow, "ready_tasks", "workloads.ready_tasks",
                   after=ready_after)
        self.patch(workflow, "completed", "workloads.completed")

        def assign_after(args, kwargs, result, pre):
            n = args[2] if len(args) > 2 else kwargs["n"]
            count("provisioning.nodes_assigned", n)

        state = _attr("repro.provisioning.state", "ClusterState")
        self.patch(state, "assign", "provisioning.assign", after=assign_after)
        self.patch(state, "reclaim", "provisioning.reclaim")
        ledger = _attr("repro.cluster.lease", "LeaseLedger")
        self.patch(ledger, "open_lease", "cluster.open_lease")
        self.patch(ledger, "close_lease", "cluster.close_lease")
        self.patch(
            _attr("repro.metrics.results", "ProviderMetrics"), "to_payload",
            "metrics.payload",
        )

    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``errors``, ``s`` and ``self_s``."""
        n = len(self.span_name)
        child_ns = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_ns[p] += self.span_end[i] - self.span_start[i]
        out = {
            name: {"calls": 0, "errors": 0, "s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            dur = self.span_end[i] - self.span_start[i]
            row["calls"] += 1
            row["errors"] += 1 - self.span_ok[i]
            row["s"] += dur / 1e9
            row["self_s"] += (dur - child_ns[i]) / 1e9
        return out

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        return [
            (self.span_end[i] - self.span_start[i]) / 1e9
            for i in range(len(self.span_name))
            if self.span_name[i] == nid
        ]

    def write(self, path) -> None:
        """Every span as one JSON line: name, start/end ns, parent, run."""
        with open(path, "w") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps([
                    self.names[self.span_name[i]], self.span_start[i],
                    self.span_end[i], self.span_parent[i], self.span_run[i],
                    self.span_ok[i],
                ]) + "\n")


class _Span:
    """A traced callable standing in for a function or method.

    An object rather than a closure: the snapshot layer refuses closures
    in a world it deep-copies, while a bound method of this object copies
    its instance and shares the span store, as a plain method would.
    """

    def __init__(self, tracer: Tracer, nid: int, fn, before, after) -> None:
        self.tracer = tracer
        self.nid = nid
        self.fn = fn
        self.before = before
        self.after = after
        self.__wrapped__ = fn

    def __get__(self, obj, objtype=None):
        return self if obj is None else MethodType(self, obj)

    def __deepcopy__(self, memo):
        return self

    def __call__(self, *args, **kwargs):
        tracer = self.tracer
        stack = tracer._stack
        names = tracer.span_name
        if stack and names[stack[-1]] == self.nid:
            return self.fn(*args, **kwargs)
        pre = self.before(args, kwargs) if self.before is not None else None
        idx = len(names)
        names.append(self.nid)
        tracer.span_parent.append(stack[-1] if stack else -1)
        tracer.span_run.append(tracer.run_id)
        tracer.span_ok.append(0)
        tracer.span_end.append(0)
        stack.append(idx)
        tracer.span_start.append(_now_ns())
        try:
            result = self.fn(*args, **kwargs)
        finally:
            tracer.span_end[idx] = _now_ns()
            stack.pop()
        tracer.span_ok[idx] = 1
        if self.after is not None:
            self.after(args, kwargs, result, pre)
        return result

