"""First-fit scheduling (the paper's HTC policy).

Section 4.4: "The first-fit scheduling algorithm scans all the queued jobs
in the order of job arrival and chooses the first job, whose resources
requirement can be met by the system, to execute."

The dispatcher calls :meth:`select` repeatedly (after every arrival,
completion or resource change), so scanning greedily until nothing fits is
equivalent to the paper's one-at-a-time formulation but needs fewer passes.
The scan itself is :meth:`JobQueue.first_fit`, which reaches the same picks
from per-size buckets without visiting every queued job.
"""

from __future__ import annotations

from typing import Iterable

from repro.scheduling.base import RunningJob, Scheduler
from repro.scheduling.queue import JobQueue
from repro.workloads.job import Job


class FirstFitScheduler(Scheduler):
    """Greedy first-fit over the queue in arrival order."""

    name = "first-fit"
    time_independent = True

    def select(
        self,
        now: float,
        queued: Iterable[Job],
        free_nodes: int,
        running: Iterable[RunningJob] = (),
    ) -> list[Job]:
        if not isinstance(queued, JobQueue):
            queued = JobQueue.of(queued)
        return queued.first_fit(free_nodes)
