"""Event primitives for the discrete-event kernel.

An :class:`Event` moves through three states: *pending* (created, not yet
triggered), *triggered* (scheduled on the event queue with a value or an
exception), and *processed* (its callbacks have run).  Processes wait on
events by yielding them; the kernel resumes the process with the event's
value, or throws the event's exception into it.

Every class here declares ``__slots__``: the kernel allocates millions of
events per experiment, and slotted instances are both smaller and faster
to touch than ``__dict__``-backed ones.  A fourth, terminal state exists
for timers only: *cancelled* (see :meth:`Timeout.cancel`) — the event's
heap entry becomes a tombstone the kernel skips, so abandoned timers cost
O(1) instead of polluting the queue until their deadline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.errors import EventAlreadyTriggered

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.kernel import Environment

_PENDING = object()


class Event:
    """A condition that processes can wait for.

    Events are triggered exactly once, either with :meth:`succeed` (carrying
    a value) or :meth:`fail` (carrying an exception).  Callbacks attached via
    :attr:`callbacks` run when the kernel pops the event off its queue.
    """

    __slots__ = (
        "env", "callbacks", "_value", "_ok", "_defused", "_cancelled",
    )

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        #: Set by :meth:`defused` consumers; a failed event whose exception
        #: nobody observed crashes the simulation (errors never pass silently).
        self._defused = False
        #: Tombstone flag: the kernel discards cancelled queue entries
        #: instead of processing them (only timers ever set this).
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def cancelled(self) -> bool:
        """True once the event was withdrawn from the queue (timers only)."""
        return self._cancelled

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise AttributeError("event is not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value (or exception instance) the event was triggered with."""
        if self._value is _PENDING:
            raise AttributeError("event is not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into every process waiting on the event.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as observed so it will not crash the run."""
        self._defused = True

    def cancel(self) -> None:
        """Withdraw this event from whatever resource is backing it.

        Called when a process waiting on the event is interrupted: the wait
        is over, so the event must not consume anything on the waiter's
        behalf (e.g. a StoreGet must leave the store's queue, or it would
        swallow the next item into a void).  Base events need no cleanup.
        """

    def __repr__(self) -> str:
        state = (
            "cancelled" if self._cancelled else
            "processed" if self.processed else
            "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay.

    Unlike the base event, a timeout supports real cancellation: the
    delivery engine races acks against guard timers, watchdogs race probe
    replies against reply timeouts, and in both the timer usually *loses*.
    :meth:`cancel` tombstones the queue entry so the kernel never touches
    it again (lazy deletion; see :meth:`Environment.run`).
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:
            # Catches NaN too: NaN fails *every* comparison, and a NaN
            # deadline in a queue poisons (time, sequence) ordering.
            if delay != delay:
                raise ValueError(
                    f"timeout delay must be a number, got {delay!r} "
                    "(NaN never compares, it would corrupt the queue order)"
                )
            raise ValueError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def cancel(self) -> None:
        """Tombstone this timer's queue entry (idempotent, O(1)).

        A cancelled timeout never fires: its callbacks never run and it
        stays unprocessed forever.  Cancelling an already-processed timer
        is a no-op.
        """
        if self.callbacks is None or self._cancelled:
            return
        self._cancelled = True
        self.env._note_cancelled()

    def __repr__(self) -> str:
        if self._cancelled:
            return f"<Timeout cancelled delay={self.delay!r} at {id(self):#x}>"
        return f"<Timeout delay={self.delay!r} at {id(self):#x}>"


class Condition(Event):
    """Composite event over a set of child events.

    Triggers when ``evaluate`` says enough children have triggered.  If any
    child fails before the condition triggers, the condition fails with that
    child's exception.

    On trigger, the condition releases its losing children: its callback is
    detached from every unprocessed child, and a child timer left with no
    other observer is cancelled outright.  This is what keeps ack-vs-timeout
    races (the delivery engine's inner loop) from leaking one dead timer per
    alert into the heap.  Non-timer children are only detached, never
    cancelled — a late failure on a still-shared child must stay observable.
    """

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[int, int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")
        if not self._events:
            self.succeed(self._collect())
            return
        for event in self._events:
            if event.processed:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if not event.ok:
                # A late failure after the condition already triggered must
                # still be observed somewhere; defuse it because the condition
                # is done and no waiter can see it.
                event.defuse()
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            self._release_losers()
            return
        self._count += 1
        if self._evaluate(len(self._events), self._count):
            self.succeed(self._collect())
            self._release_losers()

    def _release_losers(self) -> None:
        """Drop this condition's claim on children that did not decide it.

        Timers with no remaining observers are cancelled (tombstoned).
        Anything else keeps its callback so late success/failure still
        flows through :meth:`_on_child` (which defuses late failures).
        """
        on_child = self._on_child
        for event in self._events:
            if not isinstance(event, Timeout):
                continue
            callbacks = event.callbacks
            if callbacks is None or event._cancelled:
                continue
            try:
                callbacks.remove(on_child)
            except ValueError:
                pass
            if not callbacks:
                event.cancel()
        # Decided: a still-pending child keeps ``_on_child`` (late failures
        # are defused there), so holding the children back would be a
        # cycle through it that only the collector can reclaim.
        self._events = ()

    def cancel(self) -> None:
        """Cancelling a condition releases and cancels still-pending children."""
        on_child = self._on_child
        for event in self._events:
            callbacks = event.callbacks
            if callbacks is None:
                continue
            try:
                callbacks.remove(on_child)
            except ValueError:
                pass
            if not event.triggered:
                event.cancel()
            elif isinstance(event, Timeout) and not callbacks:
                event.cancel()

    def _collect(self) -> dict[Event, Any]:
        """Snapshot of values from the children processed so far.

        ``processed`` (not ``triggered``) is the right filter: a Timeout is
        triggered from construction, but only events whose callbacks have run
        have actually *happened* by the time the condition fires.
        """
        return {
            event: event.value
            for event in self._events
            if event.callbacks is None and event._ok
        }


class AnyOf(Condition):
    """Triggers as soon as any child event triggers."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, lambda total, done: done >= 1, events)


class AllOf(Condition):
    """Triggers when every child event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, lambda total, done: done >= total, events)
