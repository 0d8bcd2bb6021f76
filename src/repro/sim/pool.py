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
- **Cancelled timers wait for their tombstone.**  A cancelled timer's
  queue entry may still be waiting to be discarded; only the dispatch
  loop, which is by construction holding the entry it just discarded,
  recycles it.
- **Clean at release.**  Every object in a free list satisfies
  ``_ok is True``, ``_defused is False``, ``_cancelled is False``.
  The dispatch loops restore the invariant on the rare dirty object, so
  the factories — the hot side — only write the per-use fields
  (``callbacks``, ``_value``, ``delay``).

The pool is deliberately bounded (:attr:`max_size` per class) so a burst
of a million events cannot pin a million corpses.
"""

from __future__ import annotations

from repro.sim.events import Event, Timeout

#: Per-class free-list bound.  Past this, releases fall through to the GC.
DEFAULT_MAX_POOLED = 4096


class EventPool:
    """Bounded free lists for exactly-``Event`` and exactly-``Timeout``.

    The scheduler owns one pool instance; its dispatch loop refills the
    lists (refcount-proven, see module docstring) and its factories pop
    from them.  ``reused`` counts factory calls served from a free list.
    """

    __slots__ = ("timeouts", "events", "max_size", "reused")

    def __init__(self):
        self.timeouts: list[Timeout] = []
        self.events: list[Event] = []
        self.max_size = DEFAULT_MAX_POOLED
        self.reused = 0

    @property
    def recycled(self) -> int:
        """Objects accepted back into the free lists, ever.

        Derived instead of counted: every reuse pops one previously
        recycled object, so recycled = reused + still pooled.  This keeps
        a counter update out of the dispatch loop's per-event path.
        """
        return self.reused + len(self.timeouts) + len(self.events)
