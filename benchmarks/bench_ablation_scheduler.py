"""Ablation (beyond the paper): does smarter scheduling close the gap?

The question: how much of DawningCloud's saving comes from *dynamic
resizing* rather than from scheduling?  Here the fixed-size DCS system runs
the NASA trace under first-fit (the paper's policy) and EASY backfilling;
since DCS consumption is size × period by definition, scheduling only moves
throughput/wait metrics — demonstrating that the economies of scale in the
paper come from resizing, not from a better scheduler.
"""

import numpy as np

from repro.core.policies import HTC_SCAN_INTERVAL_S
from repro.core.servers import REServer
from repro.experiments.config import nasa_bundle
from repro.experiments.report import render_table
from repro.scheduling.backfill import EasyBackfillScheduler
from repro.scheduling.firstfit import FirstFitScheduler
from repro.simkit.engine import SimulationEngine
from repro.systems.emulator import JobEmulator


def _run_with_scheduler(bundle, scheduler):
    engine = SimulationEngine()
    trace = bundle.materialize_trace()
    server = REServer(engine, bundle.name, scheduler, HTC_SCAN_INTERVAL_S)
    server.add_nodes(trace.machine_nodes)
    JobEmulator(engine).submit_trace(trace, server.submit_job)
    engine.run(until=trace.duration)
    waits = [j.wait_time for j in server.completed if j.wait_time is not None]
    return {
        "scheduler": scheduler.name,
        "completed_jobs": server.completed_by(trace.duration),
        "mean_wait_s": round(float(np.mean(waits)), 1),
        "p95_wait_s": round(float(np.percentile(waits, 95)), 1),
    }


def test_ablation_firstfit_vs_backfill(benchmark, setup):
    bundle = nasa_bundle(setup.seed)

    def run_both():
        return [
            _run_with_scheduler(bundle, FirstFitScheduler()),
            _run_with_scheduler(bundle, EasyBackfillScheduler()),
        ]

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print()
    print(render_table(rows, title="Ablation: scheduling policy on fixed-size "
                                   "DCS (NASA trace)"))
    # consumption is identical by definition; both must finish the trace
    assert all(r["completed_jobs"] >= 2590 for r in rows)
