"""The discrete-event simulation environment (clock + pluggable scheduler).

The environment is the public face of the kernel; the event containers
live behind the :class:`~repro.sim.scheduler.Scheduler` interface with
two backends sharing one contract:

- ``heap`` (:class:`~repro.sim.scheduler.HeapScheduler`): binary heap +
  zero-delay deque, the reference implementation;
- ``wheel`` (:class:`~repro.sim.wheel.WheelScheduler`): hierarchical
  timing wheel with O(1) schedule/cancel for the short timers that
  dominate alert delivery, cascading levels for day-scale horizons.

Both produce the same merged ``(time, sequence)`` pop order — events
scheduled for the same instant are processed in scheduling order — so
every run is bit-for-bit deterministic and journals are byte-identical
across backends.  Pick a backend per environment with
``Environment(scheduler="heap"|"wheel")`` or process-wide with the
``REPRO_SCHEDULER`` environment variable (default: wheel).

Cancelled timers (see :meth:`~repro.sim.events.Timeout.cancel`) stay
queued as *tombstones* skipped lazily and compacted in one O(n) pass
when they dominate; lazy deletion never reorders live entries.  Each
scheduler also recycles provably unreferenced ``Event``/``Timeout``
objects through an :class:`~repro.sim.pool.EventPool`, which is why the
hot factories (``env.timeout``, ``env.event``) and ``env.schedule`` are
bound scheduler methods rather than ``Environment`` methods — one
attribute load, no double dispatch, direct access to the free lists.

Periodic duties share timers through :meth:`Environment.every`: members
that join with the same interval at the same instant form one *cohort*,
ticked by one recurring timer, so a farm's idle machinery costs one timer
per (interval, start instant) however many tenants it holds.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError, StopSimulation
from repro.sim.clock import delay_until
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.scheduler import Scheduler, make_scheduler

# The default backend.  ``make_scheduler`` imports it inside the call (it
# subclasses ``Scheduler``), so the kernel loads it up front: no
# ``Environment()`` inside a run is the first to compile it.
import repro.sim.wheel  # noqa: F401

_INFINITY = float("inf")


class Cohort(list):
    """The members of one recurring timer, in join order.

    The armed timer's value is the cohort itself; ``timer`` is that timer,
    armed while some member is awake (``awake`` counts them).  ``at`` is
    the cohort's phase — the instant of its kick or last tick, each next
    tick ``interval`` later — and is None while a kick or a tick is under
    way, which arms the timer itself when it ends.
    """

    __slots__ = ("env", "interval", "timer", "at", "awake")


class Membership:
    """One ``tick`` in a cohort; the handle :meth:`Environment.every`
    returns.  A sleeping member keeps its place in join order and is
    skipped by the ticks until it wakes."""

    __slots__ = ("tick", "cohort", "asleep")

    def __init__(
        self, tick: Callable[[float], Any], cohort: Optional[Cohort]
    ):
        self.tick = tick
        #: None once the member has left.
        self.cohort: Optional[Cohort] = cohort
        self.asleep = False

    def cancel(self) -> None:
        """Leave at once; a cohort left with no awake member cancels its
        timer."""
        cohort = self.cohort
        if cohort is None:
            return
        self.sleep()
        self.cohort = None
        cohort.remove(self)

    def sleep(self) -> None:
        """Stop ticking (idempotent).  A cohort left with no awake member
        cancels its timer and keeps its phase."""
        cohort = self.cohort
        if cohort is None or self.asleep:
            return
        self.asleep = True
        cohort.awake -= 1
        if not cohort.awake:
            _disarm(cohort)

    def wake(self) -> None:
        """Tick again (idempotent).  A cohort that had no awake member
        re-arms its timer at its next phase instant strictly after now."""
        cohort = self.cohort
        if cohort is None or not self.asleep:
            return
        self.asleep = False
        cohort.awake += 1
        if cohort.timer is None and cohort.at is not None:
            env = cohort.env
            now = env._scheduler._now
            at = cohort.at + cohort.interval
            while at <= now:  # the ticks slept through, summed as the chain did
                at += cohort.interval
            _arm_at(cohort, env.timeout(delay_until(now, at), cohort))


def _disarm(cohort: Cohort) -> None:
    if cohort.timer is not None:
        cohort.timer.cancel()
        cohort.timer = None


def _arm_at(cohort: Cohort, timer: Timeout) -> None:
    timer.callbacks.append(_tick_cohort)
    cohort.timer = timer


def _arm_cohort(event: Event) -> None:
    """Arm a cohort's first tick (from its zero-delay kick) or next one."""
    cohort = event._value
    cohort.at = event.env._scheduler._now
    if cohort.awake:
        _arm_at(cohort, event.env.timeout(cohort.interval, cohort))


def _tick_cohort(timer: Timeout) -> None:
    """Run every awake member in join order; one returning False leaves."""
    cohort = timer._value
    now = timer.env._scheduler._now
    # A wake during the tick leaves the arming to the tick's end.
    cohort.timer = cohort.at = None
    # A snapshot: a tick may cancel members of its own cohort.
    for member in cohort[:]:
        if (member.cohort is cohort and not member.asleep
                and member.tick(now) is False):
            member.cancel()
    _arm_cohort(timer)


class Environment:
    """Execution environment for a single simulation run.

    ``schedule``, ``timeout``, ``event`` and ``_note_cancelled`` are
    *instance* attributes bound to the scheduler's methods at
    construction (hot-path de-virtualization); everything else is a
    normal method or property delegating to :attr:`scheduler`.
    """

    __slots__ = (
        "_scheduler", "_active_process", "tracer",
        # Cohorts opened at ``_cohorts_at``, by interval (see ``every``).
        "_cohorts", "_cohorts_at",
        # Scheduler-bound hot-path callables (see class docstring).
        "schedule", "timeout", "event", "_note_cancelled",
    )

    def __init__(self, scheduler: Optional[str] = None):
        sched = make_scheduler(self, scheduler)
        self._scheduler = sched
        #: Structured-tracing hook (:class:`repro.obs.TraceSink`), None when
        #: tracing is off.  Instrumentation sites read this once per probe
        #: (``tr = env.tracer``) so the disabled path costs one slot load.
        self.tracer = None
        self._active_process: Optional[Process] = None
        self._cohorts: dict[float, Cohort] = {}
        self._cohorts_at: Optional[float] = None
        self.schedule = sched.schedule
        self.timeout = sched.timeout
        self.event = sched.event
        self._note_cancelled = sched.note_cancelled

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._scheduler._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    @property
    def scheduler(self) -> Scheduler:
        """The scheduling backend (diagnostics: ``.name``, ``.pool``)."""
        return self._scheduler

    @property
    def queue_depth(self) -> int:
        """Live (non-tombstoned) entries across the scheduler's queues.

        Diagnostic/test hook: after an ack-vs-timeout race resolves, the
        loser must not linger here.
        """
        return self._scheduler.queue_depth

    @property
    def dead_entries(self) -> int:
        """Tombstoned entries not yet skipped or compacted away."""
        return self._scheduler.dead_entries

    # ------------------------------------------------------------------
    # Factories (``event`` and ``timeout`` are scheduler-bound slots)
    # ------------------------------------------------------------------

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` does."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have."""
        return AllOf(self, events)

    def every(
        self, interval: float, tick: Callable[[float], Any]
    ) -> Membership:
        """Call ``tick(now)`` every ``interval`` from now until it returns
        False or the returned handle is cancelled.

        Members that join with the same interval at the same instant share
        one timer: the first one's join kicks it (one zero-delay event,
        where its own timer chain would have been kicked), and each tick
        runs the members in join order, then re-arms.  Only cohorts opened
        at the current instant are joinable — no later join could share
        their phase — so a cohort alone costs what its timer chain did.
        """
        if not interval > 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        now = self._scheduler._now
        cohorts = self._cohorts
        if self._cohorts_at != now:
            cohorts.clear()
            self._cohorts_at = now
        cohort = cohorts.get(interval)
        if cohort:
            # Joins asleep and wakes: re-arms a cohort whose members sleep.
            member = Membership(tick, cohort)
            member.asleep = True
            cohort.append(member)
            member.wake()
            return member
        # None yet, or emptied by cancel(): open one, sized for one member.
        member = Membership(tick, None)
        cohort = member.cohort = cohorts[interval] = Cohort((member,))
        cohort.env = self
        cohort.interval = interval
        cohort.timer = cohort.at = None
        cohort.awake = 1
        kick = self.event()
        kick.callbacks.append(_arm_cohort)
        kick.succeed(cohort)
        return member

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time or an event) or queue exhaustion.

        - ``until=None``: run until no live events remain.
        - ``until=<number>``: run until the clock would pass that time, then
          set the clock exactly to it.
        - ``until=<Event>``: run until that event is processed and return its
          value (raising its exception if it failed).
        """
        sched = self._scheduler
        if until is None:
            sched.drain(_INFINITY)
            return None
        if isinstance(until, Event):
            if until.processed:
                if not until.ok:
                    raise until.value
                return until.value
            until.callbacks.append(self._stop_on_event)
            try:
                sched.drain(_INFINITY)
            except StopSimulation as stop:
                return stop.value
            # Queue exhausted before the event fired.  Deregister our
            # callback: the event may legitimately trigger later (user
            # code firing it by hand, a fresh run), and a stale
            # _stop_on_event would raise StopSimulation into whatever
            # drain happens to be active then.
            callbacks = until.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._stop_on_event)
                except ValueError:
                    pass
            raise SimulationError(
                "run(until=event) exhausted the queue before the event fired"
            )
        stop_at = float(until)
        if stop_at < sched._now:
            raise ValueError(
                f"cannot run until {stop_at!r}, already at {sched._now!r}"
            )
        sched.drain(stop_at)
        if stop_at != _INFINITY:
            sched._now = max(sched._now, stop_at)
        return None

    @staticmethod
    def _stop_on_event(event: Event) -> None:
        if not event.ok:
            event.defuse()
            raise event.value
        raise StopSimulation(event.value)
