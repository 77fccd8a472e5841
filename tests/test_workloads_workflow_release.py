"""Differential oracle for incremental workflow readiness.

:meth:`Workflow.release` counts unmet dependencies instead of rescanning
the workflow on every completion; :meth:`Workflow.completed` skips the
completed prefix with a cursor.  The references here are the naive
implementations they replaced: a full rescan of task states after each
completion (the newly ready tasks are the ready ones still PENDING), and
``all(state is COMPLETED)``.  Hypothesis drives both over random DAGs and
random execution orders with node-failure kills (running -> requeued)
interleaved, and asserts they agree after every step.  The DAG structure
queries (levels, critical path) are checked against networkx.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.job import Job, JobState
from repro.workloads.workflow import Workflow
from repro.workloads.workflowgen import layered_random
from tests.conftest import dependency_digraph


def rescan_ready(workflow: Workflow) -> list[Job]:
    """Reference: every not-yet-started task whose dependencies all
    completed, in id order (the per-completion rescan)."""
    by_id = {t.job_id: t for t in workflow.tasks}
    return [
        t for t in workflow.tasks
        if t.state in (JobState.PENDING, JobState.QUEUED)
        and all(by_id[d].state is JobState.COMPLETED for d in t.dependencies)
    ]


def rescan_release(workflow: Workflow) -> list[int]:
    """Reference for one completion: the ready tasks nobody offered yet."""
    return [t.job_id for t in rescan_ready(workflow) if t.state is JobState.PENDING]


@st.composite
def dags(draw) -> Workflow:
    """layered_random plus duplicate-free extra edges along a topological
    order, so the result stays acyclic but is not layered any more."""
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    base = layered_random(widths, seed=draw(st.integers(0, 2**31 - 1)))
    order = [jid for level in base.levels() for jid in level]
    deps = {t.job_id: set(t.dependencies) for t in base.tasks}
    for _ in range(draw(st.integers(0, 2 * len(order)))):
        i = draw(st.integers(0, len(order) - 1))
        j = draw(st.integers(0, len(order) - 1))
        if i < j:
            deps[order[j]].add(order[i])
    tasks = [
        Job(
            job_id=t.job_id,
            submit_time=0.0,
            size=t.size,
            runtime=t.runtime,
            task_type=t.task_type,
            workflow_id=base.workflow_id,
            dependencies=tuple(sorted(deps[t.job_id])),
        )
        for t in base.tasks
    ]
    return Workflow(base.workflow_id, tasks)


def execute(workflow: Workflow, data) -> list[tuple[int, tuple[int, ...]]]:
    """Run ``workflow`` to completion in a hypothesis-chosen order.

    Each step starts a queued task, completes a running one, or kills a
    running one (it is requeued and must complete later).  Returns the
    (completed task, released tasks) sequence, having asserted at every
    step that ``release`` and ``completed`` agree with the references.
    """
    queued = workflow.ready_tasks()
    assert [t.job_id for t in queued] == rescan_release(workflow)
    for t in queued:
        t.mark_queued(0.0)
    running: list[Job] = []
    log = []
    now = 0.0
    while queued or running:
        now += 1.0
        moves = ["start"] * bool(queued) + ["complete", "kill"] * bool(running)
        move = data.draw(st.sampled_from(moves))
        if move == "start":
            task = queued.pop(data.draw(st.integers(0, len(queued) - 1)))
            task.mark_running(now)
            running.append(task)
        elif move == "kill":
            task = running.pop(data.draw(st.integers(0, len(running) - 1)))
            task.mark_requeued(now)
            queued.append(task)
        else:
            task = running.pop(data.draw(st.integers(0, len(running) - 1)))
            task.mark_completed(now)
            expected = rescan_release(workflow)
            released = workflow.release(task)
            assert [t.job_id for t in released] == expected
            for t in released:
                t.mark_queued(now)
            queued.extend(released)
            log.append((task.job_id, tuple(t.job_id for t in released)))
        assert workflow.completed() == all(
            t.state is JobState.COMPLETED for t in workflow.tasks
        )
    assert workflow.completed()
    return log


class TestReleaseMatchesRescan:
    @given(wf=dags(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_release_and_completed_match_references(self, wf, data):
        log = execute(wf, data)
        assert sorted(done for done, _ in log) == [t.job_id for t in wf.tasks]

    @given(wf=dags(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_reset_and_clone_rearm_the_counters(self, wf, data):
        execute(wf, data)
        twin = wf.clone()
        wf.reset()
        assert not any(t.state is JobState.COMPLETED for t in wf.tasks)
        execute(wf, data)
        execute(twin, data)

    def test_duplicate_dependency_releases_once(self):
        tasks = [
            Job(1, 0.0, 1, 10.0, workflow_id=1),
            Job(2, 0.0, 1, 10.0, workflow_id=1, dependencies=(1, 1)),
        ]
        wf = Workflow(1, tasks)
        first = wf.task(1)
        first.mark_queued(0.0)
        first.mark_running(0.0)
        first.mark_completed(10.0)
        assert wf.release(first) == [wf.task(2)]


class TestStructureMatchesNetworkx:
    @given(wf=dags())
    @settings(max_examples=100, deadline=None)
    def test_levels_are_topological_generations(self, wf):
        graph = dependency_digraph(wf)
        assert nx.is_directed_acyclic_graph(graph)
        expected = [sorted(gen) for gen in nx.topological_generations(graph)]
        assert wf.levels() == expected

    @given(wf=dags())
    @settings(max_examples=100, deadline=None)
    def test_critical_path_is_longest_weighted_path(self, wf):
        graph = dependency_digraph(wf)
        longest: dict[int, float] = {}
        for jid in nx.topological_sort(graph):
            base = max((longest[p] for p in graph.predecessors(jid)), default=0.0)
            longest[jid] = base + wf.task(jid).runtime
        assert wf.critical_path_length() == max(longest.values())
