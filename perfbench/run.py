"""The repository benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload htc-paper --seed 0 --seconds 20 --trace 0

Workloads (``perfbench/rationale.json`` records why each exists, what it
stresses and bypasses, and what every per-layer metric should move):

* ``htc-paper``       Tables 2-3 and Figures 9-10, cold, through the
                      supervised Orchestrator;
* ``mtc-montage``     Table 4 and Figure 11, cold, the same way;
* ``serving-session`` a closed-loop ``serve`` session of ingest, advance,
                      metrics and forked what-if queries;
* ``fluid-year``      the ``million-node-year`` scenario (hybrid fluid tier).

Every run is hermetic: children get ``PYTHONHASHSEED=0``, one BLAS/OpenMP
thread, no ``REPRO_*`` variables and a fresh result-cache directory under
``.perfbench-work/``.  One untimed ``compileall`` process comes first, so
byte-compilation never lands in a timing.  Set-up is then timed in
``SETUP_SAMPLES`` separate processes, half before and half after the
measuring one, plus the measuring one itself; ``setup_s`` is their median.  The measuring process repeats passes while
they fit in ``--seconds``; with ``--trace 1`` it spends half of that untraced and then
traces one pass with wrapper spans (``perfbench/tracing.py``), whose
spans are written to ``.perfbench-out/spans-<workload>.jsonl``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it is a ``detail`` object with the raw samples, digests and failures.
At seed 0 every pinned output digest (``perfbench/pins.json``) is checked.
"""

import argparse
import heapq
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

#: The seed whose outputs ``pins.json`` pins.
DEFAULT_SEED = 0
#: Set-up-only processes per run, besides the measuring process.
SETUP_SAMPLES = 6
#: Host yardstick samples taken before and again after the measuring process.
CALIB_SAMPLES = 2
#: No child may outlive this many seconds.
CHILD_TIMEOUT_S = 170.0

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def calib_s() -> float:
    """Host seconds for a fixed stdlib heapq/dict/float loop.

    It never imports the program, so no change to the program moves it;
    it is reported beside the metrics and nothing is divided by it.
    """
    t0 = time.perf_counter()
    heap, table, x = [], {}, 0.0
    for i in range(100_000):
        heapq.heappush(heap, ((i * 7919) % 100_003, i))
        table[i & 4095] = x
        x = x * 0.999 + i * 0.5
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(cmd: list, env: dict, root: str) -> dict:
    proc = subprocess.run(
        cmd, env=env, cwd=root, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{cmd[1:4]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------- #
# checks
# ---------------------------------------------------------------------- #
def known_defect(op: dict) -> bool:
    """A failure this benchmark expects from the program as it stands.

    Every what-if with an ``mtbf_hours`` delta fails: ``REServer
    .kill_running`` raises ``KeyError`` for jobs that started before the
    fork, which have no ``fault.finish_events`` entry.  They are counted
    as failed ops, never skipped.
    """
    return (
        op["kind"] == "what-if"
        and "mtbf_hours" in (op.get("delta") or {})
        and op["error"]["type"] == "WhatIfError"
    )


def check(workload: str, seed: int, passes: list, traced) -> dict:
    """Failed ops and mismatches over every pass of one run."""
    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)[workload] if seed == DEFAULT_SEED else {}
    attempted = failed = 0
    mismatches, failures, digests = [], [], {}
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            bad = []
            if not op["ok"]:
                failed += 1
                if not known_defect(op):
                    failures.append(f"{op['label']}: {op['error']}")
                continue
            d = op.get("digest")
            if d is not None:
                first = digests.setdefault(op["label"], d)
                if d != first:
                    bad.append("output differs between passes")
                if op["label"] in pins and d != pins[op["label"]]:
                    bad.append("output differs from its pin")
            if (op["kind"] == "what-if" and op["delta"] is None
                    and not op["diff_empty"]):
                bad.append("empty delta gave a non-empty diff")
            if op["kind"] == "submit-batch" and not op["admitted_all"]:
                bad.append("batch not fully admitted")
            if bad:
                failed += 1
                mismatches.append(f"{op['label']}: {'; '.join(bad)}")
    if traced is not None and workload == "fluid-year":
        if not traced["counters"].get("simkit.fluid_applied"):
            mismatches.append("million-node-year: fluid tier did not apply")
    return {
        "attempted": attempted, "failed": failed, "mismatches": mismatches,
        "unexpected_failures": failures, "digests": digests,
        "pinned": sorted(set(pins) & set(digests)),
    }


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def op_seconds(passes: list, kind: str, failed_inf: bool = False) -> list:
    return [
        op["seconds"] if op["ok"] else math.inf
        for p in passes for op in p["ops"]
        if op["kind"] == kind and (op["ok"] or failed_inf)
    ]


def whatif_fast_mean(passes: list) -> float:
    """Mean latency of the fastest three quarters of the what-if queries.

    A failed query counts as infinitely slow, so fixing a failure can
    never raise it.  Unlike one order statistic of 20 queries whose cost
    grows with the backlog, it averages the whole session.
    """
    latencies = sorted(op_seconds(passes, "what-if", failed_inf=True))
    return statistics.fmean(latencies[:max(1, len(latencies) * 3 // 4)])


def end_to_end(workload: str, setups: list, passes: list, rss: float) -> dict:
    if workload == "serving-session":
        op = whatif_fast_mean(passes)
    else:
        op = median([p["seconds"] for p in passes])
    return {
        "setup_s": (median([s["setup_s"] for s in setups]), "s"),
        "op_s": (op, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


#: Per-layer metrics read straight off one span name: (span, field).
#: ``calls`` and ``errors`` are counts, ``s`` and ``self_s`` seconds.
SPAN_METRICS = {
    "experiments.run_one_calls": ("experiments.run_one", "calls"),
    "experiments.run_one_s": ("experiments.run_one", "s"),
    "experiments.cache_put_calls": ("experiments.cache_put", "calls"),
    "experiments.cache_put_s": ("experiments.cache_put", "s"),
    "systems.runs": ("systems.run", "calls"),
    "systems.run_s": ("systems.run", "s"),
    "systems.materialize_calls": ("systems.materialize", "calls"),
    "systems.materialize_s": ("systems.materialize", "s"),
    "simkit.run_s": ("simkit.run", "s"),
    "simkit.run_self_s": ("simkit.run", "self_s"),
    "simkit.fork_calls": ("simkit.fork", "calls"),
    "simkit.fork_s": ("simkit.fork", "s"),
    "simkit.fluid_attempts": ("simkit.fluid", "calls"),
    "simkit.fluid_s": ("simkit.fluid", "s"),
    "core.dispatch_calls": ("core.dispatch", "calls"),
    "core.dispatch_self_s": ("core.dispatch", "self_s"),
    "core.jobs_submitted": ("core.submit_job", "calls"),
    "core.kills": ("core.kill_running", "calls"),
    "core.kill_errors": ("core.kill_running", "errors"),
    "scheduling.select_calls": ("scheduling.select", "calls"),
    "scheduling.select_s": ("scheduling.select", "s"),
    "workloads.ready_tasks_calls": ("workloads.ready_tasks", "calls"),
    "workloads.ready_tasks_s": ("workloads.ready_tasks", "s"),
    "workloads.completed_calls": ("workloads.completed", "calls"),
    "workloads.completed_s": ("workloads.completed", "s"),
    "provisioning.assign_calls": ("provisioning.assign", "calls"),
    "provisioning.reclaim_calls": ("provisioning.reclaim", "calls"),
    "cluster.leases_opened": ("cluster.open_lease", "calls"),
    "metrics.payload_calls": ("metrics.payload", "calls"),
    "metrics.payload_s": ("metrics.payload", "s"),
}
#: Per-layer metrics that are a counter the wrappers keep.
COUNTER_METRICS = (
    "simkit.events", "simkit.fluid_applied", "core.jobs_started",
    "scheduling.queue_depth_sum", "scheduling.picks",
    "workloads.tasks_offered", "provisioning.nodes_assigned",
)


def per_layer(setups: list, passes: list, traced: dict, calib: float) -> dict:
    spans, c = traced["spans"], traced["counters"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "setup.import_s": (median([s["import_s"] for s in setups]), "s"),
        "setup.inputs_s": (median([s["inputs_s"] for s in setups]), "s"),
    }
    for name, (span_name, field) in SPAN_METRICS.items():
        m[name] = (span(span_name, field),
                   "count" if field in ("calls", "errors") else "s")
    for name in COUNTER_METRICS:
        m[name] = (c.get(name, 0), "count")

    events = c.get("simkit.events", 0)
    forks = traced["fork_s"]
    advances = [op["executed"] for p in passes for op in p["ops"]
                if op["kind"] == "advance"]
    whatifs = [op for op in passes[0]["ops"] if op["kind"] == "what-if"]
    m.update({
        "simkit.us_per_event": (ratio(span("simkit.run", "s") * 1e6, events), "us"),
        "core.starts_per_dispatch": (
            ratio(c.get("core.jobs_started", 0), span("core.dispatch", "calls")),
            "ratio"),
        "scheduling.depth_per_pick": (
            ratio(c.get("scheduling.queue_depth_sum", 0),
                  c.get("scheduling.picks", 0)),
            "ratio"),
        "provisioning.s": (
            span("provisioning.assign", "s") + span("provisioning.reclaim", "s"),
            "s"),
        "cluster.lease_s": (
            span("cluster.open_lease", "s") + span("cluster.close_lease", "s"),
            "s"),
        "serving.whatif_p50_s": (
            median(op_seconds(passes, "what-if", failed_inf=True)), "s"),
        "serving.submit_p50_s": (median(op_seconds(passes, "submit-batch")), "s"),
        "serving.advance_p50_s": (median(op_seconds(passes, "advance")), "s"),
        "serving.metrics_p50_s": (median(op_seconds(passes, "metrics")), "s"),
        "serving.fork_p50_s": (median(forks), "s"),
        "serving.fork_p75_s": (
            statistics.quantiles(forks, n=4)[2] if len(forks) > 1
            else median(forks),
            "s"),
        "serving.events_per_advance": (median(advances), "count"),
        "serving.whatif_failed": (sum(not op["ok"] for op in whatifs), "count"),
        "host.calib_s": (calib, "s"),
        "trace.overhead_ratio": (
            ratio(traced["seconds"], median([p["seconds"] for p in passes])),
            "ratio"),
    })
    return m


# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # A SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench-work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root: str, workdir: str) -> int:
    env = child_env(root)
    py = sys.executable
    worker = [py, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--workdir", workdir]
    subprocess.run(
        [py, "-m", "compileall", "-q", os.path.join(root, "src", "repro"), HERE],
        env=env, cwd=root, check=True, stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )
    # Set-up samples and yardstick samples bracket the measuring process,
    # so their medians cover the host as it was over the whole run.
    setups = [run_child(worker + ["--mode", "setup"], env, root)["setup"]
              for _ in range(SETUP_SAMPLES // 2)]
    calib = [calib_s() for _ in range(CALIB_SAMPLES)]
    spans = ""
    if args.trace:
        outdir = os.path.join(root, ".perfbench-out")
        os.makedirs(outdir, exist_ok=True)
        spans = os.path.join(outdir, f"spans-{args.workload}.jsonl")
    result = run_child(
        worker + ["--mode", "measure", "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--spans", spans],
        env, root,
    )
    calib += [calib_s() for _ in range(CALIB_SAMPLES)]
    setups.append(result["setup"])
    setups += [run_child(worker + ["--mode", "setup"], env, root)["setup"]
               for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    passes, traced = result["passes"], result.get("traced")
    checked = check(args.workload, args.seed,
                    passes + ([traced] if traced else []), traced)

    host_calib = median(calib)
    if args.trace:
        metrics = per_layer(setups, passes, traced, host_calib)
    else:
        metrics = end_to_end(args.workload, setups, passes,
                             result["peak_rss_mb"])
    detail = {
        "workload": args.workload, "seed": args.seed,
        "host.calib_s": host_calib,
        "setup_s": [s["setup_s"] for s in setups],
        "pass_s": [p["seconds"] for p in passes],
        "traced_pass_s": traced["seconds"] if traced else None,
        **{k: checked[k] for k in ("digests", "pinned", "mismatches",
                                   "unexpected_failures")},
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not (checked["mismatches"]
                        or checked["unexpected_failures"]),
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
