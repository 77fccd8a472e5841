"""One benchmark process: set up one workload, then (optionally) time it.

``--mode setup`` stops once set-up is done and prints its split; ``--mode
measure`` then repeats passes of the workload for as long as they fit in
``--seconds`` (at least one), and with ``--trace 1`` spends
half the budget untraced and then traces one more pass.  The result is
one JSON object on the last line of standard output.  ``run.py`` starts
this file with a fixed environment; it is not meant to be run by hand.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (this file's directory leads sys.path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    wl = workloads.make(args.workload, args.seed, args.workdir)
    wl.imports()
    t_imported = time.perf_counter()
    wl.inputs()
    t_ready = time.perf_counter()
    out = {
        "setup": {
            "import_s": t_imported - T_START,
            "inputs_s": t_ready - t_imported,
            "setup_s": t_ready - T_START,
        },
    }
    if args.mode == "measure":
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = []
        t0 = time.perf_counter()
        # Stop before a pass that would likely overrun the budget; the
        # first pass always runs, however long it takes.
        while not passes or (
            time.perf_counter() - t0 + statistics.median(p["seconds"] for p in passes)
            <= budget
        ):
            gc.collect()
            passes.append(wl.run_pass())
        out["passes"] = passes
        if args.trace:
            out["traced"] = traced_pass(wl, args.spans)
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    print(json.dumps(out))
    return 0


def traced_pass(wl, spans_path: str) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        result = wl.run_pass(tracer)
    finally:
        tracer.remove()
    if spans_path:
        tracer.write(spans_path)
    result["spans"] = tracer.summary()
    result["counters"] = tracer.counters
    result["fork_s"] = tracer.durations("simkit.fork")
    return result


if __name__ == "__main__":
    sys.exit(main())
