"""Workflow (DAG) model on top of the job record.

A :class:`Workflow` bundles a set of dependent :class:`~repro.workloads.job.Job`
tasks and exposes the structural queries the MTC server and the experiment
harness need: topological levels, critical-path length, ready-set
computation, and validation.  The DAG is kept as id-sorted successor
tuples (built by the validating Kahn pass), and each instance counts
every task's unmet dependencies, so a completion releases its newly ready
successors without rescanning the workflow (:meth:`Workflow.release`).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.workloads.job import Job, JobState, clone_job, validate_dependencies


class Workflow:
    """A validated DAG of tasks submitted as one unit."""

    def __init__(
        self,
        workflow_id: int,
        tasks: Iterable[Job],
        name: str = "workflow",
        submit_time: float = 0.0,
    ) -> None:
        self.workflow_id = int(workflow_id)
        self.name = name
        self.submit_time = float(submit_time)
        self.tasks: list[Job] = sorted(tasks, key=lambda t: t.job_id)
        if not self.tasks:
            raise ValueError("workflow must contain at least one task")
        for task in self.tasks:
            if task.workflow_id != self.workflow_id:
                raise ValueError(
                    f"task {task.job_id} carries workflow_id {task.workflow_id!r}, "
                    f"expected {self.workflow_id}"
                )
        #: job id -> ids of the tasks depending on it, in id order
        self._succ = validate_dependencies(self.tasks)
        self._by_id = {t.job_id: t for t in self.tasks}
        self._arm()

    def _arm(self) -> None:
        """Fresh execution bookkeeping: nothing completed yet."""
        #: job id -> dependencies whose completion was not yet released
        self._unmet = {t.job_id: len(t.dependencies) for t in self.tasks}
        #: every task before this index in ``tasks`` is COMPLETED
        self._done_cursor = 0

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.tasks)

    def task(self, job_id: int) -> Job:
        return self._by_id[job_id]

    def levels(self) -> list[list[int]]:
        """Topological generations (task ids), entry tasks first.

        Kahn generations: a task sits one level below its deepest
        dependency.
        """
        unmet = {t.job_id: len(t.dependencies) for t in self.tasks}
        level = [t.job_id for t in self.tasks if not t.dependencies]
        out = []
        while level:
            out.append(level)
            nxt = []
            for jid in level:
                for child in self._succ[jid]:
                    unmet[child] -= 1
                    if unmet[child] == 0:
                        nxt.append(child)
            level = sorted(nxt)
        return out

    def level_widths(self) -> list[int]:
        return [len(level) for level in self.levels()]

    def max_width(self) -> int:
        """Widest topological level — peak no-queue parallelism."""
        return max(self.level_widths())

    def critical_path_length(self) -> float:
        """Longest runtime-weighted path; lower bound on any makespan."""
        longest: dict[int, float] = {}
        for level in self.levels():
            for jid in level:
                task = self._by_id[jid]
                base = max((longest[d] for d in task.dependencies), default=0.0)
                longest[jid] = base + task.runtime
        return max(longest.values())

    def total_work(self) -> float:
        return sum(t.work for t in self.tasks)

    def mean_task_runtime(self) -> float:
        return sum(t.runtime for t in self.tasks) / len(self.tasks)

    def type_census(self) -> dict[str, int]:
        census: dict[str, int] = {}
        for t in self.tasks:
            census[t.task_type] = census.get(t.task_type, 0) + 1
        return census

    # ------------------------------------------------------------------ #
    # execution support
    # ------------------------------------------------------------------ #
    def ready_tasks(self) -> list[Job]:
        """Tasks whose dependencies are all completed and which have not
        started, in id order.

        A full scan of task states: servers call it once, at submission,
        and learn of later readiness from :meth:`release`.
        """
        out = []
        for t in self.tasks:
            if t.state in (JobState.PENDING, JobState.QUEUED) and all(
                self._by_id[d].state is JobState.COMPLETED for d in t.dependencies
            ):
                out.append(t)
        return out

    def release(self, task: Job) -> list[Job]:
        """Count one completion of ``task``; return the successors whose
        last unmet dependency it was, in id order.

        Call it once per completion, not per state change: a task killed
        and requeued by a node failure completes (and releases) only once.
        """
        unmet = self._unmet
        by_id = self._by_id
        out = []
        for child in self._succ[task.job_id]:
            left = unmet[child] - 1
            unmet[child] = left
            if left == 0:
                out.append(by_id[child])
        return out

    def completed(self) -> bool:
        """Whether every task is COMPLETED.

        Amortised O(1): COMPLETED is terminal until :meth:`reset`, so a
        cursor skips the completed prefix of ``tasks`` once and for all.
        """
        tasks = self.tasks
        i = self._done_cursor
        n = len(tasks)
        while i < n and tasks[i].state is JobState.COMPLETED:
            i += 1
        self._done_cursor = i
        return i == n

    def reset(self) -> None:
        for t in self.tasks:
            t.reset()
        self._arm()

    def clone(self) -> "Workflow":
        """Replay copy: fresh pristine tasks, shared immutable topology.

        Skips re-validation: the structure was proven acyclic at
        construction and the successor tuples are never mutated, so
        clones share them.
        """
        new = Workflow.__new__(Workflow)
        new.workflow_id = self.workflow_id
        new.name = self.name
        new.submit_time = self.submit_time
        new.tasks = [clone_job(t) for t in self.tasks]
        new._by_id = {t.job_id: t for t in new.tasks}
        new._succ = self._succ
        new._arm()
        return new

    def makespan(self) -> Optional[float]:
        """Finish of the last task minus workflow submit, once complete."""
        if not self.completed():
            return None
        finish = max(t.finish_time for t in self.tasks)  # type: ignore[arg-type]
        return finish - self.submit_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Workflow {self.name!r} id={self.workflow_id} tasks={len(self.tasks)} "
            f"levels={len(self.level_widths())} width={self.max_width()}>"
        )


def relabel_tasks(
    tasks: Sequence[Job], id_offset: int, workflow_id: int, submit_time: float
) -> list[Job]:
    """Clone tasks with shifted ids — used when embedding a workflow in a
    trace that already contains other jobs."""
    mapping = {t.job_id: t.job_id + id_offset for t in tasks}
    return [
        Job(
            job_id=mapping[t.job_id],
            submit_time=submit_time,
            size=t.size,
            runtime=t.runtime,
            user_id=t.user_id,
            task_type=t.task_type,
            workflow_id=workflow_id,
            dependencies=tuple(mapping[d] for d in t.dependencies),
        )
        for t in tasks
    ]
