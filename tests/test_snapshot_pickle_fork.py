"""Pickle forks against the deepcopy forks they replaced.

``fork_world`` copies a world with one pickle round trip.  The reference
is the previous mechanism, one ``copy.deepcopy`` of the world root, kept
here as the oracle.  For DCS and DawningCloud services forked at random
instants, with no delta and with load and MTBF deltas applied to the
branch, both kinds of fork must finish byte-identical to each other and
to a cold service that never forked and took the delta in place.  A
branch must also be disjoint from its parent, and a world the pickler
cannot copy must fail loudly instead of being aliased into the branch.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import ServiceSpec
from repro.core.policies import ResourceManagementPolicy
from repro.scheduling.firstfit import FirstFitScheduler
from repro.serving import ScenarioDelta, build_service
from repro.serving.whatif import apply_delta
from repro.simkit.snapshot import SnapshotAliasError, assert_forkable
from repro.systems.base import WorkloadBundle
from repro.systems.dsp_runner import DawningCloudHtcLiveRun
from repro.workloads.job import Job, Trace

pytestmark = pytest.mark.timeout(300)

DAY = 86400.0

SPECS = {
    "dcs": {"name": "svc", "system": "dcs", "machine_nodes": 8,
            "horizon_s": DAY},
    "dawningcloud": {
        "name": "svc-dc",
        "system": {
            "runner": "dawningcloud",
            "policy": {"name": "paper-htc", "params": {"initial_nodes": 4}},
        },
        "machine_nodes": 16,
        "horizon_s": DAY,
    },
}

DELTAS = (
    None,
    ScenarioDelta(load_multiplier=1.5),
    ScenarioDelta(load_multiplier=0.5),
    ScenarioDelta(mtbf_hours=4.0),
)

# (submit offset, size, runtime): contended, so queues build up
job_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20_000.0, allow_nan=False),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=60.0, max_value=15_000.0, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


def deepcopy_fork(service):
    """The fork as it was before pickling: one deepcopy of the world."""
    assert_forkable(service, service.engine)
    return copy.deepcopy(service)


def _service(system: str, specs):
    # jobs are mutable simulation state: each service gets its own
    service = build_service(ServiceSpec.from_dict(SPECS[system]))
    service.submit_batch([
        Job(job_id=i, submit_time=offset, size=size, runtime=runtime,
            user_id=0, task_type="htc")
        for i, (offset, size, runtime) in enumerate(specs)
    ])
    return service


def _finish(service, delta) -> str:
    if delta is not None:
        apply_delta(service, delta, seed=service.seed)
    return json.dumps(service.shutdown(drain=True), sort_keys=True)


@given(
    system=st.sampled_from(sorted(SPECS)),
    delta=st.sampled_from(DELTAS),
    specs=job_specs,
    fork_frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_pickle_fork_equals_deepcopy_fork_and_the_cold_run(
    system, delta, specs, fork_frac
):
    fork_at = fork_frac * (max(offset for offset, _, _ in specs) + 1.0)
    live = _service(system, specs)
    live.advance_to(fork_at)
    pickled, copied = live.fork(), deepcopy_fork(live)

    cold = _service(system, specs)
    cold.advance_to(fork_at)
    expected = _finish(cold, delta)

    assert _finish(pickled, delta) == expected
    assert _finish(copied, delta) == expected
    # the parent continues as if it had never been forked
    assert _finish(live, delta) == expected


def _state(service) -> tuple:
    engine, server = service.engine, service.server
    return (
        engine.now, engine.executed_events, len(engine._heap),
        [job.job_id for job in server.queue], server.queue.total_demand,
        sorted(server.running), server.used, service.ingested,
        sorted(service._pending_map),
    )


@pytest.mark.parametrize("system", sorted(SPECS))
def test_mutating_a_branch_leaves_the_parent_untouched(system):
    specs = [(60.0 * i, 1 + i % 5, 5400.0) for i in range(30)]
    live = _service(system, specs)
    live.advance_to(900.0)
    assert len(live.server.queue) and live._pending_map
    before = _state(live)

    branch = live.fork()
    queue = branch.server.queue
    head = next(iter(queue))
    queue.remove(head)
    queue.push(head)  # requeued at the tail
    branch.submit(Job(job_id=10_000, submit_time=1000.0, size=2,
                      runtime=60.0, user_id=0, task_type="htc"))
    branch.ingested += 7
    apply_delta(branch, ScenarioDelta(load_multiplier=2.0))
    branch.advance_to(20_000.0)

    assert _state(live) == before
    assert _finish(live, None) == _finish(_service(system, specs), None)


@pytest.mark.parametrize("system", sorted(SPECS))
def test_unpicklable_hook_fails_loudly_and_spares_the_live_world(system):
    specs = [(60.0 * i, 1 + i % 5, 5400.0) for i in range(12)]
    live = _service(system, specs)
    live.advance_to(300.0)
    live.server.pre_dispatch_hooks.append(lambda: False)
    before = _state(live)

    with pytest.raises(SnapshotAliasError, match="function") as info:
        live.fork()
    assert "<lambda>" in str(info.value)
    with pytest.raises(SnapshotAliasError, match="function"):
        live.live.snapshot()

    # the refused fork changed nothing: the live world runs on as if
    # it had never been asked (the hook never acts)
    assert _state(live) == before
    assert _finish(live, None) == _finish(_service(system, specs), None)


def test_dawningcloud_run_with_a_given_scheduler_forks():
    """The TRE spec keeps its scheduler factory, so the factory a live run
    builds from a scheduler instance must pickle along with the world."""

    def live():
        jobs = [
            Job(job_id=i, submit_time=300.0 * i, size=1 + i % 4,
                runtime=2400.0, user_id=0, task_type="htc")
            for i in range(12)
        ]
        bundle = WorkloadBundle.from_trace(
            "t", Trace("t", jobs, machine_nodes=16, duration=DAY / 4)
        )
        return DawningCloudHtcLiveRun(
            bundle, ResourceManagementPolicy.for_htc(4, 1.5), capacity=32,
            scheduler=FirstFitScheduler(),
        )

    run, cold = live(), live()
    run.advance_before(1000.0)
    branch = run.fork()
    payloads = []
    for world in (branch, run, cold):
        world.complete()
        payloads.append(world.finish().to_payload())
    assert payloads[0] == payloads[2]
    assert payloads[1] == payloads[2]
