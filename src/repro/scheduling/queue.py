"""The job queue shared by every runtime-environment server.

Keeps arrival order, supports O(1) membership checks, and provides the two
demand aggregates the paper's resource-management policy needs (§3.2.2.1):

* ``total_demand`` — "the accumulated resource demands of all jobs in the
  queue" (numerator of the ratio of obtaining resources);
* ``biggest_demand`` — "the resource demand of the present biggest job in
  the queue" (the DR2 trigger).

It also answers the paper's HTC policy, first-fit (§4.4), itself:
:meth:`JobQueue.first_fit` picks from per-size buckets instead of walking
the whole backlog.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from typing import Iterator, Optional

from repro.workloads.job import Job


class JobQueue:
    """FIFO of queued jobs with demand aggregates and per-size buckets.

    Backed by an insertion-ordered dict keyed on ``job_id``: dispatch
    removes jobs from the *middle* of the arrival order (first-fit skips
    a too-wide head), which on a list is an O(n) scan per started job —
    the single hottest queue operation of a two-week sweep.

    Beside it, every distinct job width has a bucket: an insertion-ordered
    dict ``job_id -> arrival number`` holding the queued jobs of that
    width in arrival order.  A job re-pushed after a kill gets a new,
    larger arrival number, so it sits at the tail of both.
    """

    def __init__(self) -> None:
        self._jobs: dict[int, Job] = {}
        self._buckets: dict[int, dict[int, int]] = {}
        self._arrivals = 0
        # Incremental aggregates: the policy reads both once per scan
        # (tens of thousands of scans per two-week run), so they must not
        # rescan the queue.
        self._total_demand = 0
        self._biggest = 0

    @classmethod
    def of(cls, jobs) -> "JobQueue":
        """A queue holding ``jobs`` in the given (arrival) order."""
        queue = cls()
        for job in jobs:
            queue.push(job)
        return queue

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs.values())

    def __contains__(self, job: Job) -> bool:
        return job.job_id in self._jobs

    @property
    def jobs(self) -> list[Job]:
        """The queue in arrival order (a copy; safe to mutate)."""
        return list(self._jobs.values())

    def push(self, job: Job) -> None:
        job_id = job.job_id
        if job_id in self._jobs:
            raise ValueError(f"job {job_id} already queued")
        self._jobs[job_id] = job
        size = job.size
        bucket = self._buckets.get(size)
        if bucket is None:
            bucket = self._buckets[size] = {}
            if size > self._biggest:
                self._biggest = size
        bucket[job_id] = self._arrivals
        self._arrivals += 1
        self._total_demand += size

    def remove(self, job: Job) -> None:
        job_id = job.job_id
        if job_id not in self._jobs:
            raise ValueError(f"job {job_id} not in queue")
        del self._jobs[job_id]
        size = job.size
        bucket = self._buckets[size]
        del bucket[job_id]
        self._total_demand -= size
        if not bucket:
            del self._buckets[size]
            if size == self._biggest:
                self._biggest = max(self._buckets, default=0)

    def head(self) -> Optional[Job]:
        return next(iter(self._jobs.values()), None)

    def first_fit(self, free_nodes: int) -> list[Job]:
        """The jobs first-fit starts on ``free_nodes`` nodes, in order.

        Equal to scanning the queue in arrival order, taking every job
        that still fits and stopping once no node is left.  Instead of
        visiting every queued job, it merges the heads of the buckets by
        arrival number: the earliest head that fits is the scan's next
        pick, and a bucket whose width no longer fits is dropped for
        good, because the free width only shrinks.  Cost
        O((picks + distinct widths) · log widths), not O(queue).
        """
        if free_nodes >= self._total_demand:
            return list(self._jobs.values())  # the whole queue fits
        heads = []
        for size, bucket in self._buckets.items():
            if size <= free_nodes:
                members = iter(bucket.items())
                job_id, arrival = next(members)
                heads.append((arrival, job_id, size, members))
        heapify(heads)
        jobs = self._jobs
        picked: list[Job] = []
        remaining = free_nodes
        while heads:
            _, job_id, size, members = heads[0]
            if size > remaining:
                heappop(heads)
                continue
            picked.append(jobs[job_id])
            remaining -= size
            if not remaining:
                break
            following = next(members, None)
            if following is None:
                heappop(heads)
            else:
                heapreplace(heads, (following[1], following[0], size, members))
        return picked

    # ------------------------------------------------------------------ #
    # policy aggregates (§3.2.2.1)
    # ------------------------------------------------------------------ #
    @property
    def total_demand(self) -> int:
        """Accumulated resource demand of all queued jobs, in nodes."""
        return self._total_demand

    @property
    def biggest_demand(self) -> int:
        """Width of the widest queued job (0 when empty)."""
        return self._biggest

    @property
    def smallest_demand(self) -> int:
        """Width of the narrowest queued job (0 when empty).

        O(distinct sizes), not O(jobs): dispatch uses it to prove that a
        backlogged scan cannot start anything (``idle < smallest``)
        without walking the whole queue.
        """
        return min(self._buckets, default=0)
