"""Incremental workflow readiness across forks, clones and resets.

Each :class:`Workflow` instance carries its own unmet-dependency
counters and completion cursor, while clones share the immutable
successor tuples.  These tests pin that the per-instance state travels
with a world and never leaks between worlds:

* a fork taken mid-workflow finishes byte-identically to the cold run
  (DCS and DawningCloud, whose TRE exists only while the workflow runs);
* two clones of one workflow advanced in interleaved order finish exactly
  like two runs made in isolation;
* a workflow replayed after :meth:`Workflow.reset` repeats its first run,
  through both release paths (the MTC server and DRP's user pool).
"""

from __future__ import annotations

import pytest

from repro.core.policies import ResourceManagementPolicy
from repro.core.servers import REServer
from repro.experiments.cache import canonical_json
from repro.scheduling.fcfs import FcfsScheduler
from repro.simkit.engine import SimulationEngine
from repro.systems.base import WorkloadBundle, run_until
from repro.systems.drp import _DrpMtcUserPool
from repro.systems.dsp_runner import DawningCloudMtcLiveRun
from repro.systems.fixed import FixedLiveRun
from repro.workloads.job import JobState
from repro.workloads.workflowgen import layered_random

BUILDERS = {
    "dcs": lambda bundle: FixedLiveRun(bundle, "DCS"),
    "dawningcloud": lambda bundle: DawningCloudMtcLiveRun(
        bundle, ResourceManagementPolicy.for_mtc(4, 8.0), capacity=64
    ),
}


def _template():
    return layered_random([6, 9, 4, 7, 2], seed=11, mean_runtime=60.0)


def _finalize(live) -> tuple[str, list]:
    """Complete ``live``; its canonical payload and per-task times."""
    live.complete()
    times = [(t.job_id, t.start_time, t.finish_time) for t in live.workflow.tasks]
    return canonical_json(live.finish().to_payload()), times


def _done(workflow) -> int:
    return sum(t.state is JobState.COMPLETED for t in workflow.tasks)


@pytest.mark.parametrize("system", sorted(BUILDERS))
def test_fork_mid_workflow_equals_cold_run(system):
    build = BUILDERS[system]
    bundle = WorkloadBundle.from_workflow("wf", _template())
    cold_live = build(bundle)
    cold = _finalize(cold_live)

    live = build(bundle)
    live.advance_before(cold_live.engine.now / 2)
    assert 0 < _done(live.workflow) < len(live.workflow)
    branch = live.fork()
    assert branch.workflow is not live.workflow
    assert _finalize(branch) == cold
    assert _finalize(live) == cold


@pytest.mark.parametrize("stride", [1, 3])
def test_interleaved_clones_equal_isolated_runs(stride):
    template = _template()

    def worlds():
        return [
            BUILDERS[name](WorkloadBundle.from_workflow(name, template.clone()))
            for name in ("dcs", "dawningcloud")
        ]

    isolated = [_finalize(live) for live in worlds()]

    first, second = lived = worlds()
    while not (first.workflow.completed() and second.workflow.completed()):
        for _ in range(stride):
            if not first.workflow.completed():
                first.engine.step()
        if not second.workflow.completed():
            second.engine.step()
    assert [_finalize(live) for live in lived] == isolated


def _server_run(workflow) -> list:
    engine = SimulationEngine()
    server = REServer(engine, "wf", FcfsScheduler(), 3.0)
    server.add_nodes(4)
    server.submit_workflow(workflow)
    run_until(engine, workflow.completed, hard_limit=1e7)
    server.stop()
    return [(t.job_id, t.start_time, t.finish_time) for t in workflow.tasks]


def _drp_run(workflow) -> list:
    engine = SimulationEngine()
    pool = _DrpMtcUserPool(engine, "wf", capacity=64)
    pool.submit(workflow)
    run_until(engine, workflow.completed, hard_limit=1e7)
    return [(t.job_id, t.start_time, t.finish_time) for t in workflow.tasks]


@pytest.mark.parametrize("run", [_server_run, _drp_run], ids=["server", "drp"])
def test_replay_after_reset_equals_first_run(run):
    workflow = _template()
    first = run(workflow)
    assert workflow.completed()
    workflow.reset()
    assert not workflow.completed()
    assert run(workflow) == first
    assert run(_template().clone()) == first
