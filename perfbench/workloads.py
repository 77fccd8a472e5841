"""The four benchmark workloads, driven through the program's public API.

Each workload splits into ``imports`` and ``inputs`` (together the
set-up that ``setup_s`` times) and ``run_pass``, one timed repetition of
the operation a user waits for.  ``run_pass`` returns one record per op:
its label, host seconds, whether it succeeded, the SHA-256 of its
canonical output, and any error.  Nothing here imports ``repro`` at
module import time, so the worker can time the imports.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from typing import Optional

#: Fields of a what-if payload that carry host wall-clock time.
WALL_CLOCK_FIELDS = ("fork_wall_s", "duration_s")

DAY_S = 86400.0


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _error(exc: BaseException) -> dict:
    return {"type": type(exc).__name__, "message": str(exc)[:300]}


class ScenarioWorkload:
    """Registered scenarios run cold through the supervised Orchestrator.

    Every pass gets a new Orchestrator (``workers=1``, so the scenarios
    run in this process) over a new, empty result-cache directory; the
    trace store keeps the inputs that set-up generated.
    """

    def __init__(self, scenarios: tuple[str, ...], seed: int, workdir: str):
        self.scenarios = scenarios
        self.seed = seed
        self.workdir = workdir

    def imports(self) -> None:
        from repro.experiments.cache import ResultCache
        from repro.experiments.orchestrator import Orchestrator
        from repro.experiments.registry import default_registry

        self._cache_cls = ResultCache
        self._orchestrator_cls = Orchestrator
        self.registry = default_registry()

    def inputs(self) -> None:
        from repro.workloads.store import prewarm

        names = {w for s in self.scenarios for w in self.registry.get(s).prewarm}
        prewarm(sorted(names), self.seed)

    def run_pass(self, tracer=None) -> dict:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        replies = []
        t0 = time.perf_counter()
        orchestrator = self._orchestrator_cls(
            registry=self.registry, cache=self._cache_cls(cache_dir),
            workers=1, seed=self.seed,
        )
        for i, name in enumerate(self.scenarios):
            if tracer is not None:
                tracer.run_id = i
            t1 = time.perf_counter()
            try:
                reply = orchestrator.run_one(name)
            except Exception as exc:  # a failed op is data, not an abort
                reply = exc
            replies.append((name, reply, time.perf_counter() - t1))
        seconds = time.perf_counter() - t0
        shutil.rmtree(cache_dir, ignore_errors=True)
        return {"seconds": seconds, "ops": [
            self._record(*r) for r in replies
        ]}

    @staticmethod
    def _record(name: str, run, seconds: float) -> dict:
        if isinstance(run, Exception):
            return _op(name, seconds, ok=False, error=_error(run))
        if run.status != "ok":
            return _op(name, seconds, ok=False,
                       error={"type": "status", "message": run.status})
        return _op(name, seconds, ok=True, sha=digest(run.payload))


class ServingWorkload:
    """A closed-loop serve session: one client, each op awaits its reply.

    A DCS service of 4,096 nodes takes 20,000 uniform jobs over seven
    simulated days (about three times its capacity) in 40 time-ordered
    ``submit-batch`` ops, each followed by ``advance`` to the batch's
    last arrival and a ``metrics`` read.  After every second batch a
    ``what-if`` looks six hours ahead, its delta cycling through none,
    load x1.5, load x0.5 and ``mtbf_hours`` 48.  ``shutdown`` ends it.
    """

    NODES = 4096
    N_JOBS = 20_000
    HORIZON_S = 7 * DAY_S
    BATCHES = 40
    WHATIF_EVERY = 2
    WHATIF_HORIZON_S = 6 * 3600.0
    DELTAS = (None, {"load_multiplier": 1.5}, {"load_multiplier": 0.5},
              {"mtbf_hours": 48.0})

    def __init__(self, seed: int):
        self.seed = seed
        self._session = None

    def imports(self) -> None:
        from repro.api.spec import ServiceSpec
        from repro.experiments.perfscale import build_uniform_trace
        from repro.serving import build_service
        from repro.serving.session import ServeSession

        self._build_trace = build_uniform_trace
        self._build_service = build_service
        self._session_cls = ServeSession
        self.spec = ServiceSpec.from_dict({
            "name": "serving-session", "system": "dcs",
            "machine_nodes": self.NODES, "horizon_s": self.HORIZON_S,
        })

    def inputs(self) -> None:
        bundle = self._build_trace(
            self.seed, self.NODES, self.N_JOBS, self.HORIZON_S,
            name="serving-session",
        )
        jobs = [
            {"job_id": j.job_id, "submit_time": j.submit_time,
             "size": j.size, "runtime": j.runtime}
            for j in bundle.trace.jobs
        ]
        n = len(jobs)
        self.batches = [
            jobs[b * n // self.BATCHES:(b + 1) * n // self.BATCHES]
            for b in range(self.BATCHES)
        ]
        self._session = self._new_session()

    def _new_session(self):
        return self._session_cls(self._build_service(self.spec, seed=self.seed))

    def script(self):
        """The session's ops, in order, as (label, op) pairs."""
        queries = 0
        for b, batch in enumerate(self.batches):
            yield f"submit-batch {b}", {"op": "submit-batch", "jobs": batch}
            yield f"advance {b}", {"op": "advance",
                                   "to": batch[-1]["submit_time"]}
            yield f"metrics {b}", {"op": "metrics"}
            if b % self.WHATIF_EVERY == self.WHATIF_EVERY - 1:
                delta = self.DELTAS[queries % len(self.DELTAS)]
                yield f"what-if {queries}", {
                    "op": "what-if", "delta": delta,
                    "horizon_s": self.WHATIF_HORIZON_S,
                    "label": f"q{queries}",
                }
                queries += 1
        yield "shutdown", {"op": "shutdown"}

    def run_pass(self, tracer=None) -> dict:
        # The first session reuses the service set-up built; later ones
        # (and a traced one, whose patches must see a new world) build
        # their own before the clock starts.
        session = self._session if tracer is None else None
        self._session = None
        if session is None:
            session = self._new_session()
        replies = []
        t0 = time.perf_counter()
        for i, (label, op) in enumerate(self.script()):
            if tracer is not None:
                tracer.run_id = i
            t1 = time.perf_counter()
            reply = session.execute(op)
            replies.append((label, op, reply, time.perf_counter() - t1))
        seconds = time.perf_counter() - t0
        return {"seconds": seconds, "ops": [
            self._record(*r) for r in replies
        ]}

    @staticmethod
    def _record(label: str, op: dict, reply: dict, seconds: float) -> dict:
        kind = op["op"]
        if not reply["ok"]:
            return _op(label, seconds, ok=False, error=reply["error"],
                       kind=kind, delta=op.get("delta"))
        extra, payload = {}, None
        if kind == "what-if":
            payload = {k: v for k, v in reply["result"].items()
                       if k not in WALL_CLOCK_FIELDS}
            extra["delta"] = op["delta"]
            extra["diff_empty"] = not payload["diff"]
        elif kind == "shutdown":
            payload = reply["final"]
        elif kind == "submit-batch":
            extra["admitted_all"] = reply["admitted"] == len(op["jobs"])
        elif kind == "advance":
            extra["executed"] = reply["executed"]
        return _op(label, seconds, ok=True, kind=kind,
                   sha=None if payload is None else digest(payload), **extra)


def _op(label: str, seconds: float, ok: bool, sha: Optional[str] = None,
        error: Optional[dict] = None, kind: str = "scenario", **extra) -> dict:
    record = {"label": label, "kind": kind, "seconds": seconds, "ok": ok}
    if sha is not None:
        record["digest"] = sha
    if error is not None:
        record["error"] = {"type": error.get("type"),
                           "message": str(error.get("message"))[:300]}
    record.update(extra)
    return record


#: The registered scenarios each scenario workload runs, in order.
SCENARIOS = {
    "htc-paper": ("table2-nasa", "table3-blue", "fig09-sweep-blue",
                  "fig10-sweep-nasa"),
    "mtc-montage": ("table4-montage", "fig11-sweep-montage"),
    "fluid-year": ("million-node-year",),
}
WORKLOADS = ("htc-paper", "mtc-montage", "serving-session", "fluid-year")


def make(name: str, seed: int, workdir: str):
    if name == "serving-session":
        return ServingWorkload(seed)
    return ScenarioWorkload(SCENARIOS[name], seed, workdir)
