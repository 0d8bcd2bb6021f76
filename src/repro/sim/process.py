"""Generator-based simulation processes.

A process wraps a generator.  Each ``yield event`` suspends the process until
the event triggers; the kernel then resumes the generator with the event's
value (``gen.send``) or throws the event's exception into it (``gen.throw``).
A :class:`Process` is itself an event that triggers when the generator
returns (value = the ``StopIteration`` value) or raises.

Resuming processes is the kernel's innermost loop, so this module leans on
two micro-structures: ``send`` is captured once per process
(``self._send``) instead of being looked up per resume (``throw`` is the
cold path — interrupts and failed events — and is looked up when needed),
and the transient bookkeeping events (the kick-start event, interrupt
triggers, and the rearm events used for already-processed targets) come
from the scheduler's free-list pool via ``env.event()``.

A :class:`Stepper` runs a generator on the same rules without being a
process: for a wait inside a callback (an endpoint reader's pre-ack log
write), where nothing waits for the generator or interrupts it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.errors import Interrupt
from repro.sim.events import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


class Process(Event):
    """A running simulation process (and the event of its termination)."""

    __slots__ = ("name", "_generator", "_waiting_on", "_send", "_wake")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "throw"):
            raise TypeError(
                f"process target must be a generator, got {generator!r}"
            )
        super().__init__(env)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._send = generator.send
        #: The one bound ``_resume`` used as a callback everywhere, so a
        #: fresh bound-method object is not allocated on every yield.
        self._wake = self._resume
        #: The event this process is currently waiting on (None while running).
        self._waiting_on: Optional[Event] = None
        # Kick-start the process at the current simulation time.
        init = env.event()
        init.succeed()
        init.callbacks.append(self._wake)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`~repro.errors.Interrupt` into the process.

        Used for crash/kill injection and for cancelling waits.  Interrupting
        a finished process is an error; interrupting a process that is mid-
        resume is delivered at its next suspension point.
        """
        if not self.is_alive:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        if self is self.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        # Deliver via a zero-delay event so interrupts obey queue ordering.
        trigger = self.env.event()
        trigger.succeed()
        trigger.callbacks.append(lambda _evt: self._deliver_interrupt(cause))

    def _deliver_interrupt(self, cause: Any) -> None:
        if not self.is_alive:
            return  # process finished before the interrupt landed
        target = self._waiting_on
        if target is not None:
            callbacks = target.callbacks
            if callbacks and self._wake in callbacks:
                callbacks.remove(self._wake)
            if not target.triggered:
                target.cancel()
            elif isinstance(target, Timeout) and not callbacks:
                # Abandoned timer with no other observer: tombstone it so
                # the queue does not carry it to its (now meaningless)
                # deadline.
                target.cancel()
        self._waiting_on = None
        self._step(Interrupt(cause), ok=False)

    def _resume(self, event: Event) -> None:
        """Advance the generator one yield (the kernel's innermost call).

        This is ``_step`` with the event unpacking inlined — one call per
        dispatched event instead of two.  ``_step`` below is the same
        logic for resumes that do not start from an event (interrupt
        delivery, bad-yield errors); keep the two in lockstep.  Direct
        slot reads are safe: the event is processed by the time its
        callbacks run, so the ``value``/``ok`` property guards cannot
        trip.

        When the generator ends, on either exit, the process lets go of
        it and of ``_send``/``_wake``: ``_wake`` is a bound method of
        this very object, so a finished process that kept it would be a
        reference cycle only the cyclic collector can reclaim — one per
        delivered alert.  Holding nothing, it is freed with its last
        outside reference (DESIGN §6d, "Process lifetime").
        """
        self._waiting_on = None
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self._generator = self._send = self._wake = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            env._active_process = None
            self._generator = self._send = self._wake = None
            self._ok = False
            self._value = exc
            env.schedule(self)
            return
        env._active_process = None

        try:
            # The yielded target's callbacks list is needed either way;
            # letting a non-event fail the attribute load replaces an
            # isinstance check on every resume (free on 3.11+).
            callbacks = target.callbacks
        except AttributeError:
            self._bad_yield(target)
            return
        if callbacks is not None:
            self._waiting_on = target
            callbacks.append(self._wake)
            return
        if isinstance(target, Event):
            self._rearm(target)
            return
        self._bad_yield(target)

    def _step(self, value: Any, ok: bool) -> None:
        """Advance the generator one yield and wire up the next wait."""
        env = self.env
        env._active_process = self
        try:
            if ok:
                target = self._send(value)
            else:
                target = self._generator.throw(value)
        except StopIteration as stop:
            env._active_process = None
            self._generator = self._send = self._wake = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            env._active_process = None
            self._generator = self._send = self._wake = None
            self._ok = False
            self._value = exc
            env.schedule(self)
            return
        env._active_process = None

        if isinstance(target, Event):
            callbacks = target.callbacks
            if callbacks is not None:
                self._waiting_on = target
                callbacks.append(self._wake)
                return
            self._rearm(target)
            return
        self._bad_yield(target)

    def _rearm(self, target: Event) -> None:
        self._waiting_on = _rearm(self.env, target, self._wake)

    def _bad_yield(self, target: Any) -> None:
        message = TypeError(
            f"process {self.name!r} yielded {target!r}, expected an Event"
        )
        self._step(message, ok=False)

    def __repr__(self) -> str:
        status = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {status}>"


class Stepper:
    """Runs one generator at a time on its events' callbacks: a
    :class:`Process` without the process.

    :meth:`run` sends into the generator at once; every event it yields
    gets ``_wake``, bound once per stepper, so neither a run nor a step
    allocates.  The rules are the Process's: an already-processed event
    re-arms through a pooled zero-delay event, a failed one is thrown in,
    and a non-event is a ``TypeError`` thrown in.  When the generator
    returns, ``then(value)`` runs in that step's dispatch.  A stepper is
    no event and cannot be interrupted: nothing waits for it, and an
    exception the generator lets out propagates to the caller of the
    step (the kernel, which ends the run with it).

    ``_wake`` refers to the stepper itself and ``then`` usually to its
    owner, which holds the stepper: an owner that is done with it calls
    :meth:`close`, or the pair is left to the cyclic collector (DESIGN
    §6d, "Process lifetime").
    """

    __slots__ = ("env", "then", "_generator", "_wake")

    def __init__(self, env: "Environment", then: Callable[[Any], None]):
        self.env = env
        self.then = then
        self._generator: Optional[Generator] = None
        self._wake = self._resume

    def close(self) -> None:
        """Let go of ``then`` and ``_wake``; a closed stepper runs nothing."""
        self.then = self._wake = None

    def run(self, generator: Generator[Event, Any, Any]) -> None:
        """Start ``generator``: up to its first wait, now."""
        if self._generator is not None:
            raise RuntimeError("a stepper runs one generator at a time")
        self._generator = generator
        self._step(None, True)

    def _resume(self, event: Event) -> None:
        if event._ok:
            self._step(event._value, True)
        else:
            event._defused = True
            self._step(event._value, False)

    def _step(self, value: Any, ok: bool) -> None:
        generator = self._generator
        try:
            target = generator.send(value) if ok else generator.throw(value)
        except StopIteration as stop:
            self._generator = None
            self.then(stop.value)
            return
        except BaseException:
            self._generator = None
            raise
        if not isinstance(target, Event):
            self._step(
                TypeError(f"stepper yielded {target!r}, expected an Event"),
                False,
            )
            return
        callbacks = target.callbacks
        if callbacks is not None:
            callbacks.append(self._wake)
            return
        _rearm(self.env, target, self._wake)


def _rearm(env: "Environment", target: Event, wake) -> Event:
    """Resume ``wake`` on the next tick with already-processed ``target``'s
    outcome, so that a tight loop over completed events cannot starve the
    queue; returns the pooled event it waits on."""
    rearm = env.event()
    target_ok = target._ok
    rearm._ok = target_ok
    rearm._value = target._value
    env.schedule(rearm)
    if not target_ok:
        target._defused = True
        rearm._defused = True
    rearm.callbacks.append(wake)
    return rearm
