"""Pluggable scheduling core for the simulation kernel.

The :class:`~repro.sim.kernel.Environment` keeps its event queue (the
zero-delay deque, lazy tombstone deletion, compaction) behind the
:class:`Scheduler` interface, with two interchangeable backends:

- :class:`HeapScheduler` — the binary heap + zero-delay deque, kept as
  the reference implementation (O(log n) schedule);
- :class:`~repro.sim.wheel.WheelScheduler` — a hierarchical timing wheel
  (O(1) schedule/cancel for the short ack/probe timers that dominate
  SIMBA's delivery flow, cascading overflow levels for day-scale lease
  and rejuvenation horizons).

Both backends produce the **same merged pop order**: every entry is a
``(time, sequence, event)`` tuple sharing one monotonically increasing
sequence counter, and ties at equal time resolve in scheduling order.
Journals, golden-farm fingerprints and the randomized equivalence suite
are therefore byte-identical across backends — the wheel changes *how*
the next entry is found, never *which* entry is next.

The backend is chosen per :class:`Environment` via its ``scheduler=``
argument, defaulting to the ``REPRO_SCHEDULER`` environment variable
(``heap`` or ``wheel``; the wheel is the default).

Each scheduler also owns an :class:`~repro.sim.pool.EventPool`: the
dispatch loop recycles ``Event``/``Timeout`` objects whose refcount
proves no one else holds them, and the ``timeout()``/``event()``
factories reuse them — at farm scale this removes the dominant
allocation cost per delivered alert.
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heapify, heappop, heappush
from sys import getrefcount
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ConfigurationError
from repro.sim.events import Event, Timeout, _PENDING
from repro.sim.pool import EventPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.kernel import Environment

#: Environment variable consulted when ``Environment(scheduler=None)``.
SCHEDULER_ENV_VAR = "REPRO_SCHEDULER"
DEFAULT_SCHEDULER = "wheel"


class Scheduler:
    """Interface and shared state for kernel scheduling backends.

    A scheduler owns the clock (``_now``), the zero-delay FIFO, the
    shared sequence counter, tombstone accounting and the event pool.
    Backends implement the delayed-entry container (heap or wheel) and
    the hot loops around it.

    Required backend methods (bound straight onto the Environment
    instance, so ``env.schedule`` *is* ``scheduler.schedule``):

    - ``schedule(event, delay=0.0)`` — enqueue a triggered event;
    - ``timeout(delay, value=None)`` — pooled Timeout factory;
    - ``note_cancelled()`` — tombstone accounting + compaction;
    - ``drain(stop_at)`` — process live entries until the clock would
      pass ``stop_at`` (pushing the first beyond-horizon entry back) or
      the queues exhaust;
    - ``queue_depth`` / ``dead_entries`` properties.
    """

    name = "abstract"

    __slots__ = ("env", "_now", "_immediate", "_sequence", "_dead", "pool",
                 "_free_timeouts", "_free_events")

    def __init__(self, env: "Environment"):
        self.env = env
        self._now = 0.0
        #: Zero-delay FIFO: every succeed()/fail()/resume lands here.
        #: Entries carry the time they were scheduled at (<= now), so the
        #: merged "next entry" is the smaller (time, sequence) head of
        #: this FIFO and the backend's delayed container.
        self._immediate: deque[tuple[float, int, Event]] = deque()
        self._sequence = 0
        #: Tombstoned entries still sitting in some queue.
        self._dead = 0
        self.pool = EventPool()
        # Aliases for the factories: the pool's list identities are
        # stable for its lifetime, so one attribute load replaces two.
        self._free_timeouts = self.pool.timeouts
        self._free_events = self.pool.events

    # -- shared pooled factory (container-independent) ------------------

    def event(self) -> Event:
        """Untriggered event, reusing a pooled instance when available.

        Pooled objects are *clean at release* (``_ok`` True, ``_defused``
        and ``_cancelled`` False — see :class:`~repro.sim.pool.EventPool`),
        so reacquisition only touches the per-use fields.
        """
        free = self._free_events
        if free:
            event = free.pop()
            event.callbacks = []
            event._value = _PENDING
            self.pool.reused += 1
            return event
        return Event(self.env)

    # -- interface stubs ------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        raise NotImplementedError

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        raise NotImplementedError

    def note_cancelled(self) -> None:
        raise NotImplementedError

    def drain(self, stop_at: float) -> None:
        raise NotImplementedError

    @property
    def queue_depth(self) -> int:
        raise NotImplementedError

    @property
    def dead_entries(self) -> int:
        return self._dead


class HeapScheduler(Scheduler):
    """Reference backend: binary heap + zero-delay deque.

    Exactly the pre-refactor kernel behaviour: O(log n) schedule into a
    ``(time, sequence, event)`` heap, O(1) zero-delay FIFO, lazy
    tombstone deletion with O(n) compaction when dead entries dominate.
    """

    name = "heap"

    __slots__ = ("_queue",)

    def __init__(self, env: "Environment"):
        super().__init__(env)
        self._queue: list[tuple[float, int, Event]] = []

    # -- scheduling -----------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue a triggered event for processing at ``now + delay``."""
        if delay == 0.0:
            # Fast path: zero-delay events (succeed/fail/resume) bypass
            # the heap.  FIFO order == sequence order, so the merged pop
            # order is exactly what one big heap would produce.
            seq = self._sequence + 1
            self._sequence = seq
            self._immediate.append((self._now, seq, event))
        elif delay > 0.0:
            seq = self._sequence + 1
            self._sequence = seq
            heappush(self._queue, (self._now + delay, seq, event))
        elif delay < 0:
            raise ValueError(
                f"cannot schedule into the past (delay={delay!r})"
            )
        else:
            # NaN passes neither == 0.0 nor < 0; it must never reach the
            # heap, where it would poison every tuple comparison.
            raise ValueError(
                f"cannot schedule at delay={delay!r}: NaN never compares, "
                "it would corrupt the queue order"
            )

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Pooled Timeout factory with the scheduling inlined.

        Pooled timers are clean at release, so only the per-use fields
        (``callbacks``, ``_value``, ``delay``) are written here.
        """
        free = self._free_timeouts
        if free and delay >= 0.0:  # NaN and negatives fall through
            timer = free.pop()
            timer.callbacks = []
            timer._value = value
            timer.delay = delay
            seq = self._sequence + 1
            self._sequence = seq
            if delay == 0.0:
                self._immediate.append((self._now, seq, timer))
            else:
                heappush(self._queue, (self._now + delay, seq, timer))
            self.pool.reused += 1
            return timer
        return Timeout(self.env, delay, value)

    # -- tombstones -----------------------------------------------------

    def note_cancelled(self) -> None:
        """A queued entry became a tombstone; compact when they dominate."""
        self._dead += 1
        if self._dead * 2 > len(self._queue) + len(self._immediate):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone in one pass.

        Containers are mutated **in place**: ``drain`` holds local
        aliases to both, and compaction can run mid-dispatch (a callback
        cancelling many timers).  Heapify keeps the live order — pops go
        by the unique ``(time, sequence)`` key either way.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2]._cancelled]
        heapify(queue)
        immediate = self._immediate
        if immediate:
            live = [e for e in immediate if not e[2]._cancelled]
            immediate.clear()
            immediate.extend(live)
        self._dead = 0

    # -- inspection -----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue) + len(self._immediate) - self._dead

    # -- dispatch -------------------------------------------------------

    def drain(self, stop_at: float) -> None:
        """Process live entries until the clock would pass ``stop_at``.

        The loop is the kernel's hottest code: containers, pool lists and
        builtins are cached in locals, and each processed (or discarded)
        entry whose event is provably unreferenced — ``getrefcount`` sees
        only the entry tuple, the loop's local and the call argument —
        is recycled into the free lists.
        """
        immediate = self._immediate
        queue = self._queue
        pool = self.pool
        free_timeouts = pool.timeouts
        free_events = pool.events
        max_pooled = pool.max_size
        refs = getrefcount
        pop_heap = heappop
        while True:
            if immediate:
                if queue and queue[0] < immediate[0]:
                    entry = pop_heap(queue)
                else:
                    entry = immediate.popleft()
            elif queue:
                entry = pop_heap(queue)
            else:
                return
            time, _seq, event = entry
            if event._cancelled:
                # Tombstone: the entry being discarded was the last
                # queue-side reference, so the refcount proof applies.
                self._dead -= 1
                if (event.__class__ is Timeout and refs(event) == 3
                        and len(free_timeouts) < max_pooled):
                    event._cancelled = False  # clean at release
                    free_timeouts.append(event)
                continue
            if time > stop_at:
                # Beyond the horizon: the entry can only have come from
                # the heap (immediates are at or before ``now``), so push
                # it back untouched — same (time, sequence) key, same
                # order.
                heappush(queue, entry)
                return
            self._now = time
            callbacks = event.callbacks
            event.callbacks = None
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for callback in callbacks:
                    callback(event)
            if not event._ok and not event._defused:
                # A failure nobody waited on: surface it, don't lose it.
                raise event.value
            cls = event.__class__
            if cls is Timeout:
                # A processed, uncancelled Timeout is already clean: it
                # can never have failed (it triggers at construction).
                if refs(event) == 3 and len(free_timeouts) < max_pooled:
                    free_timeouts.append(event)
            elif cls is Event:
                if refs(event) == 3 and len(free_events) < max_pooled:
                    if not event._ok or event._defused:
                        event._ok = True  # clean at release
                        event._defused = False
                    free_events.append(event)


def make_scheduler(
    env: "Environment", name: Optional[str] = None
) -> Scheduler:
    """Build the scheduling backend for an environment.

    ``name`` may be ``"heap"``, ``"wheel"``, or None to consult the
    ``REPRO_SCHEDULER`` environment variable (default: wheel).
    """
    if name is None:
        name = os.environ.get(SCHEDULER_ENV_VAR, "") or DEFAULT_SCHEDULER
    key = name.strip().lower()
    if key == "heap":
        return HeapScheduler(env)
    if key == "wheel":
        from repro.sim.wheel import WheelScheduler

        return WheelScheduler(env)
    raise ConfigurationError(
        f"unknown scheduler {name!r}: expected 'heap' or 'wheel' "
        f"(set via Environment(scheduler=...) or ${SCHEDULER_ENV_VAR})"
    )
