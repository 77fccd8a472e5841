"""EASY backfilling — an ablation beyond the paper.

The paper's HTC systems use plain first-fit.  EASY backfilling (Lifka '95)
is the classic alternative: the queue head gets a *reservation* at the
earliest time enough nodes will be free, and later jobs may jump ahead only
if they finish before that reservation (so the head is never delayed).

Including it lets the benchmark suite ask how much of DawningCloud's saving
comes from dynamic resizing versus from smarter scheduling — one of the
design-choice ablations in :mod:`repro.experiments.ablations`.

The implementation assumes exact runtime knowledge (the simulator has it);
with user estimates it would be the usual estimate-based variant.
"""

from __future__ import annotations

from typing import Sequence

from repro.scheduling.base import RunningJob, Scheduler
from repro.workloads.job import Job


class EasyBackfillScheduler(Scheduler):
    """FCFS head reservation + conservative-for-the-head backfilling."""

    name = "easy-backfill"

    def select(
        self,
        now: float,
        queued: Sequence[Job],
        free_nodes: int,
        running: Sequence[RunningJob] = (),
    ) -> list[Job]:
        picked: list[Job] = []
        remaining = free_nodes
        queue = list(queued)

        # Start jobs strictly from the head while they fit.
        while queue and queue[0].size <= remaining:
            job = queue.pop(0)
            picked.append(job)
            remaining -= job.size

        if not queue:
            return picked

        # The head does not fit: compute its reservation (shadow time).
        head = queue[0]
        events = sorted(
            (r.finish_time, r.size) for r in running
        )
        avail = remaining
        shadow_time = None
        extra_at_shadow = 0
        for finish, size in events:
            avail += size
            if avail >= head.size:
                shadow_time = finish
                extra_at_shadow = avail - head.size
                break
        if shadow_time is None:
            # Head can never run with current resources; no backfilling that
            # could responsibly promise not to delay it, so be conservative.
            return picked

        # Backfill later jobs that (a) fit now and (b) either finish before
        # the shadow time or fit inside the spare capacity at the shadow.
        spare = extra_at_shadow
        for job in queue[1:]:
            if job.size > remaining:
                continue
            ends_before_shadow = now + job.runtime <= shadow_time
            if ends_before_shadow or job.size <= spare:
                picked.append(job)
                remaining -= job.size
                if not ends_before_shadow:
                    spare -= job.size
        return picked
