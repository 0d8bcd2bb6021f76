"""Deterministic discrete-event simulation kernel.

The paper measured SIMBA on real networks with wall-clock time; we reproduce
its timeliness results on a deterministic, seeded discrete-event kernel so
that every latency figure and every fault-recovery trace is exactly
repeatable.  The kernel follows the classic generator-based process model:
a *process* is a Python generator that yields :class:`~repro.sim.events.Event`
objects and is resumed when they trigger.

Public surface::

    env = Environment()
    proc = env.process(my_generator(env))
    env.run(until=3600.0)

plus :class:`Store` for mailboxes/queues, :mod:`~repro.sim.rng` for seeded
randomness, :mod:`~repro.sim.clock` for time arithmetic, and
:mod:`~repro.sim.failures` for fault injection.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.errors": ("Interrupt",),
    ".clock": (
        "DAY",
        "HOUR",
        "MINUTE",
        "SECOND",
        "WEEK",
        "format_time",
        "time_of_day",
    ),
    ".events": ("AllOf", "AnyOf", "Event", "Timeout"),
    ".kernel": ("Environment",),
    ".pool": ("EventPool",),
    ".process": ("Process",),
    ".rng": ("RngRegistry",),
    ".scheduler": (
        "DEFAULT_SCHEDULER",
        "SCHEDULER_ENV_VAR",
        "HeapScheduler",
        "Scheduler",
        "make_scheduler",
    ),
    ".stores": ("Store",),
    ".wheel": ("WheelScheduler",),
})
