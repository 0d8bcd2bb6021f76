"""Free-list pooling for the kernel's hottest allocations.

Every alert delivery burns through a stream of short-lived ``Event`` and
``Timeout`` objects: ack guards, transit timers, zero-delay resume hops,
process kick-starts.  At farm scale those allocations (object + callbacks
list, twice per hop) dominate the scheduler itself.  The pool keeps two
free lists — one per concrete class — that the scheduler's dispatch loop
refills and its ``timeout()``/``event()`` factories draw from.

Safety model (the part that makes pooling legal in a deterministic
kernel):

- **Only provably unreferenced objects are recycled.**  The dispatch loop
  recycles an event right after processing (or discarding its tombstone)
  *iff* ``sys.getrefcount`` shows the queue entry and the loop's own
  local are the only remaining references.  An object anyone still holds
  — a ``Condition``'s child list, an ack table, user code that bound the
  timer — is simply left for the garbage collector.  Recycling therefore
  can never change what a live reference observes.
- **Exact-class only.**  ``Process``, ``Condition``, ``StoreGet`` etc.
  subclass ``Event`` but carry extra state and external references; the
  free lists accept exactly ``Event`` and exactly ``Timeout``.
- **Reuse-after-free guards.**  Each pooled object is flagged
  ``_pooled`` while it sits in a free list.  The public :meth:`release`
  raises :class:`~repro.errors.PoolError` on a double release or on an
  attempt to pool a live (still scheduled, uncancelled) event, and
  refuses cancelled timers outright — their tombstone may still sit in a
  queue, and recycling them would let a stale queue entry fire a fresh
  incarnation.  Only the dispatch loop, which is by construction holding
  the entry it just discarded, may recycle a cancelled timer.
- **Clean at release.**  Every object in a free list satisfies
  ``_ok is True``, ``_defused is False``, ``_cancelled is False``.
  Release sites (the dispatch loops and :meth:`release`) restore the
  invariant on the rare dirty object, so the factories — the hot side —
  only write the per-use fields (``callbacks``, ``_value``, ``delay``).

The pool is deliberately bounded (:attr:`max_size` per class) so a burst
of a million events cannot pin a million corpses.
"""

from __future__ import annotations

from sys import getrefcount
from typing import Union

from repro.errors import PoolError
from repro.sim.events import Event, Timeout

#: Per-class free-list bound.  Past this, releases fall through to the GC.
DEFAULT_MAX_POOLED = 4096

#: Expected ``getrefcount`` result for an object referenced only by the
#: caller's local binding (+1 for the argument slot of ``release``).
_SOLE_CALLER_REFS = 3


class EventPool:
    """Bounded free lists for exactly-``Event`` and exactly-``Timeout``.

    The scheduler owns one pool instance; its dispatch loop refills the
    lists (refcount-proven, see module docstring) and its factories pop
    from them.  Counters are diagnostics for tests and reports:

    - ``reused``: factory calls served from a free list;
    - ``recycled``: objects accepted back (dispatch loop + ``release``);
    - ``rejected``: guarded ``release`` calls declined (still referenced,
      or a cancelled timer whose tombstone may still be queued).
    """

    __slots__ = ("timeouts", "events", "max_size",
                 "reused", "rejected", "_cleared")

    def __init__(self, max_size: int = DEFAULT_MAX_POOLED):
        if max_size < 0:
            raise ValueError(f"max_size must be >= 0, got {max_size!r}")
        self.timeouts: list[Timeout] = []
        self.events: list[Event] = []
        self.max_size = max_size
        self.reused = 0
        self.rejected = 0
        #: Objects dropped by :meth:`clear` (keeps ``recycled`` exact).
        self._cleared = 0

    def __len__(self) -> int:
        return len(self.timeouts) + len(self.events)

    @property
    def recycled(self) -> int:
        """Objects accepted back into the free lists, ever.

        Derived instead of counted: every reuse pops one previously
        recycled object, so recycled = reused + still pooled + cleared.
        This keeps a counter update out of the dispatch loop's per-event
        path.
        """
        return (self.reused + len(self.timeouts) + len(self.events)
                + self._cleared)

    def stats(self) -> dict[str, int]:
        """Snapshot of pool occupancy and traffic counters."""
        return {
            "pooled_timeouts": len(self.timeouts),
            "pooled_events": len(self.events),
            "reused": self.reused,
            "recycled": self.recycled,
            "rejected": self.rejected,
        }

    def release(self, event: Union[Event, Timeout]) -> bool:
        """Explicitly return ``event`` to its free list (guarded).

        Returns True when pooled, False when declined by a conservative
        guard; raises :class:`PoolError` on misuse (wrong type, double
        release, live event).  Most callers never need this — the
        scheduler's dispatch loop recycles automatically — but explicit
        lifecycles (e.g. a :class:`~repro.sim.scheduler.TimerScope` that
        knows its timers are dead) may hand objects back early.
        """
        cls = event.__class__
        if cls is Timeout:
            free = self.timeouts
        elif cls is Event:
            free = self.events
        else:
            raise PoolError(
                f"cannot pool {cls.__name__} instances "
                "(only exactly Event and exactly Timeout are poolable)"
            )
        if event._pooled:
            raise PoolError(
                f"double release of {event!r}: already in the free list "
                "(reuse-after-free guard)"
            )
        if event.callbacks is not None and not event._cancelled:
            raise PoolError(
                f"cannot pool live event {event!r}: it is still scheduled "
                "or waiting to be processed"
            )
        if event._cancelled:
            # The tombstone entry may still sit in a scheduler queue and
            # holds a reference; recycling now would let that stale entry
            # fire a fresh incarnation.  The dispatch loop recycles it
            # when the tombstone is discarded.
            self.rejected += 1
            return False
        if getrefcount(event) > _SOLE_CALLER_REFS:
            # Someone else still holds it; a recycle would mutate their
            # object under them.
            self.rejected += 1
            return False
        if len(free) >= self.max_size:
            self.rejected += 1
            return False
        if not event._ok or event._defused:
            event._ok = True  # clean-at-release invariant
            event._defused = False
        event._pooled = True
        free.append(event)
        return True

    def clear(self) -> None:
        """Drop every pooled object (tests; not needed in normal runs)."""
        self._cleared += len(self.timeouts) + len(self.events)
        self.timeouts.clear()
        self.events.clear()
