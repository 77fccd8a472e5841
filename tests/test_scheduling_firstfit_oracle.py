"""Bucketed first-fit against the naive arrival-order scan.

:meth:`JobQueue.first_fit` merges per-size buckets instead of walking the
queue.  The reference is the paper's literal policy (§4.4: "scans all the
queued jobs in the order of job arrival"), kept here and nowhere in
``src/``.  Hypothesis drives a queue through random pushes, removals from
anywhere, kill-and-requeue (the job goes to the tail) and dispatches that
start the picks, with heavily repeating sizes; after every step the picks
for random free widths — zero and wider than the whole backlog included —
must equal the scan's, and the demand aggregates must equal a recount.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.firstfit import FirstFitScheduler
from repro.scheduling.queue import JobQueue
from tests.conftest import make_job


def naive_first_fit(queued, free_nodes: int) -> list:
    picked, remaining = [], free_nodes
    for job in queued:
        if job.size <= remaining:
            picked.append(job)
            remaining -= job.size
        if remaining <= 0:
            break
    return picked


sizes = st.sampled_from((1, 1, 2, 2, 3, 4, 4, 7, 8, 16))
backlogs = st.lists(sizes, max_size=40)
steps = st.lists(
    st.one_of(  # push listed twice: queues grow as often as they shrink
        st.tuples(st.just("push"), sizes),
        st.tuples(st.just("push"), sizes),
        st.tuples(st.just("remove"), st.integers(min_value=0)),
        st.tuples(st.just("requeue"), st.integers(min_value=0)),
        st.tuples(st.just("dispatch"), st.integers(min_value=0, max_value=40)),
    ),
    max_size=60,
)


def _check(queue: JobQueue, model: list, free_widths) -> None:
    assert list(queue) == model
    assert len(queue) == len(model)
    widths = [job.size for job in model]
    assert queue.total_demand == sum(widths)
    assert queue.biggest_demand == max(widths, default=0)
    assert queue.smallest_demand == min(widths, default=0)
    scheduler = FirstFitScheduler()
    for free in free_widths:
        expected = naive_first_fit(model, free)
        assert queue.first_fit(free) == expected
        assert scheduler.select(0.0, queue, free) == expected


@given(backlog=backlogs, ops=steps, data=st.data())
@settings(max_examples=200, deadline=None)
def test_bucketed_picks_equal_the_arrival_order_scan(backlog, ops, data):
    queue, model = JobQueue(), []
    next_id = 0
    for op, arg in [("push", size) for size in backlog] + ops:
        if op == "push":
            job = make_job(next_id, size=arg)
            next_id += 1
            queue.push(job)
            model.append(job)
        elif op == "dispatch":
            # what REServer.dispatch does: start every pick
            for job in queue.first_fit(arg):
                queue.remove(job)
                model.remove(job)
        elif model:
            job = model[arg % len(model)]
            queue.remove(job)
            model.remove(job)
            if op == "requeue":
                queue.push(job)
                model.append(job)
        total = sum(job.size for job in model)
        free = data.draw(st.integers(min_value=0, max_value=total + 5))
        _check(queue, model, (0, free, total, total + 1))


def test_a_requeued_head_loses_its_place():
    a, b, c = (make_job(i, size=2) for i in range(3))
    queue = JobQueue.of([a, b, c])
    queue.remove(a)
    queue.push(a)
    assert queue.first_fit(4) == [b, c]
    assert queue.first_fit(6) == [b, c, a]


def test_too_wide_bucket_is_skipped_not_blocking():
    wide, narrow = make_job(0, size=8), make_job(1, size=1)
    queue = JobQueue.of([wide, narrow, make_job(2, size=8)])
    assert queue.first_fit(7) == [narrow]
    assert queue.first_fit(9) == [wide, narrow]
