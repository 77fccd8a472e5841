"""Whole-engine snapshot/restore with mid-run branching (PR 6).

An :class:`EngineSnapshot` freezes an entire simulation *world* — the
engine (heap entries, clock, executed/cancelled counters), every timer
riding on it (grid epoch, armed tick index, suspension state), the seeded
RNG streams, cluster/ledger/billing state and the runners' server/queue
state — by pickling the world's root object into one byte string.
:meth:`EngineSnapshot.restore` unpickles a *fresh* copy, so a single
snapshot can branch arbitrarily many what-if continuations, each with its
own disjoint mutable state.  Both directions run in the C pickler.

Determinism argument
--------------------
The engine is a pure function of its heap and clock: events fire in
``(time, priority, seq)`` order and scheduling happens only from event
callbacks.  One pickle pass copies every reachable object exactly once
(the pickler's memo keeps shared references shared), rebuilding dicts,
lists and heaps in their original order.  Functions and classes are
stored by qualified name, so they are the same objects in every branch;
everything else is copied.  The callables inside heap entries must
therefore be *bound methods* or :class:`functools.partial` objects (both
pickle their ``__self__``/args along with the world) rather than
closures, which have no importable name.  :func:`verify_heap_callables`
names an offending heap closure at fork time; any other value the
pickler cannot store (a lambda hooked onto a server, say) surfaces as a
:class:`SnapshotAliasError` naming its type.

Two pieces of process-global state survive on purpose:

* ``Lease._ids`` — the class-level lease id counter.  Only the *relative*
  order of lease ids is observable (the provider shrinks the
  youngest-first), and ids allocated after a restore are always larger
  than any pre-snapshot id, so branches bill identically even though
  their absolute ids differ from an uninterrupted run's.
* functions, classes and module globals — stored by name, shared by
  design.
"""

from __future__ import annotations

import io
import pickle
import types
from functools import partial
from typing import Any, Optional

from repro.simkit.engine import SimulationEngine


class SnapshotAliasError(RuntimeError):
    """The world holds a value that a snapshot cannot copy faithfully."""


def _innermost_function(fn: Any) -> Any:
    """Unwrap partials/bound methods down to the underlying function."""
    while True:
        if isinstance(fn, partial):
            fn = fn.func
        elif isinstance(fn, types.MethodType):
            fn = fn.__func__
        else:
            return fn


def verify_heap_callables(engine: SimulationEngine) -> None:
    """Reject pending events whose callbacks cannot survive a snapshot.

    Bound methods and partials pickle together with the world they point
    into; plain functions are stored by name, which a closure does not
    have (and whose captured cells would point into the original world
    anyway).  This is the guard that flushes out latent alias bugs the
    moment someone schedules a closure into a snapshot-able world.
    """
    for entry in engine._heap:
        event = entry[3]
        if event._cancelled:
            continue
        fn = _innermost_function(event.fn)
        if isinstance(fn, types.FunctionType) and fn.__closure__ is not None:
            raise SnapshotAliasError(
                f"event at t={event.time} calls closure "
                f"{fn.__qualname__!r}; schedule a bound method or "
                f"functools.partial instead so snapshots do not alias "
                f"the original run"
            )


def assert_forkable(
    world: Any,
    engine: Optional[SimulationEngine] = None,
    *,
    max_pending_events: Optional[int] = None,
) -> None:
    """All snapshot/fork preconditions, without paying for a copy.

    Long-lived services fork on every what-if query, so they want the
    failure modes (mid-callback fork, closure in the heap, unbounded
    pending backlog) surfaced as a cheap precondition check with a
    pointed error, not as a pickling surprise.  ``max_pending_events``
    optionally bounds the live heap size: forking a world with millions
    of pending arrivals copies all of them, which a service-level caller
    may prefer to refuse outright.
    """
    if engine is None:
        engine = world.engine
    if engine._running:
        raise RuntimeError(
            "cannot fork while the engine is running; fork between "
            "run()/advance_before() calls"
        )
    verify_heap_callables(engine)
    if max_pending_events is not None:
        pending = sum(1 for entry in engine._heap if not entry[3]._cancelled)
        if pending > max_pending_events:
            raise RuntimeError(
                f"world has {pending} live pending events, above the fork "
                f"bound of {max_pending_events}; advance the run or raise "
                f"the bound before forking"
            )


#: What pickling raises for a value it cannot store: a function with no
#: importable name, an object whose reduction fails, a lock or a generator.
_UNPICKLABLE = (pickle.PicklingError, AttributeError, TypeError)


class _CulpritPickler(pickle._Pickler):
    """The pure-Python pickler, remembering the innermost failing value."""

    culprit: Any = None

    def save(self, obj: Any, save_persistent_id: bool = True) -> None:
        try:
            super().save(obj, save_persistent_id)
        except _UNPICKLABLE:
            if self.culprit is None:
                self.culprit = obj
            raise


def _dumps(world: Any) -> bytes:
    """The world as pickle bytes, or a :class:`SnapshotAliasError`."""
    try:
        return pickle.dumps(world, pickle.HIGHEST_PROTOCOL)
    except _UNPICKLABLE as exc:
        error = exc
    # Slow path, taken only on failure: pickle again in pure Python to
    # find the value the C pickler gave up on.
    finder = _CulpritPickler(io.BytesIO(), pickle.HIGHEST_PROTOCOL)
    try:
        finder.dump(world)
    except _UNPICKLABLE:
        pass
    culprit = finder.culprit
    name = getattr(culprit, "__qualname__", None)
    what = type(culprit).__qualname__ + (f" {name!r}" if name else "")
    raise SnapshotAliasError(
        f"cannot snapshot the world: it holds a {what} that pickle cannot "
        f"copy ({error}); hold a bound method, functools.partial or "
        f"module-level function instead"
    ) from error


class EngineSnapshot:
    """A frozen, pickled copy of a simulation world at one instant.

    The snapshot owns the world's pickle bytes; every :meth:`restore`
    unpickles another fresh copy, so neither the original run nor any
    branch can reach the snapshot's state (or each other's).
    """

    __slots__ = ("_data", "time", "label")

    def __init__(self, data: bytes, time: float, label: str = "") -> None:
        self._data = data
        self.time = time
        self.label = label

    def restore(self) -> Any:
        """A fresh, fully disjoint copy of the world, ready to continue."""
        return pickle.loads(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = f" {self.label!r}" if self.label else ""
        return f"<EngineSnapshot{tag} t={self.time:.3f}>"


def snapshot_world(
    world: Any,
    engine: Optional[SimulationEngine] = None,
    label: str = "",
) -> EngineSnapshot:
    """Snapshot ``world`` (anything whose ``engine`` attribute — or the
    ``engine`` argument — is the simulation engine the world runs on)."""
    if engine is None:
        engine = world.engine
    assert_forkable(world, engine)
    return EngineSnapshot(_dumps(world), engine.now, label)


def fork_world(world: Any, engine: Optional[SimulationEngine] = None) -> Any:
    """One live branch of ``world``, without keeping a snapshot around.

    Semantically ``snapshot_world(world).restore()`` — the same alias
    verification, the same disjointness guarantee — as one pickle round
    trip whose bytes are dropped at once.  Use it when branches are
    consumed immediately (prefix-shared sweeps, what-if queries); keep an
    :class:`EngineSnapshot` when the frozen state itself must outlive the
    run that produced it.
    """
    if engine is None:
        engine = world.engine
    assert_forkable(world, engine)
    return pickle.loads(_dumps(world))
