"""Deterministic chaos-testing subsystem for the SIMBA reproduction.

The paper's dependability claim (§5) rests on MyAlertBuddy surviving one
month of *naturally occurring* failures.  :mod:`repro.sim.failures` replays
that taxonomy, but only on hand-written schedules — a single trace.  This
package closes the gap with property-based chaos testing: dependability is
checked against *arbitrary* adversarial fault interleavings, not one log.

Four pieces compose:

- :class:`FaultScheduleGenerator` samples seeded random
  :class:`~repro.sim.failures.ScheduledFault` sequences over the full
  :class:`~repro.sim.failures.FaultKind` taxonomy — compound faults,
  bursts, faults injected during recovery — parameterized by
  :class:`ChaosIntensity`.
- :func:`run_chaos` replays one schedule against a live
  :class:`~repro.core.farm.BuddyFarm` (every tenant under its own MDC
  watchdog) while a workload emits alerts, then lets the system quiesce.
- :class:`DeliveryOracle` asserts end-to-end invariants after every run:
  every accepted alert is delivered exactly once or explicitly
  dead-lettered, no duplicate ACKs, journal replay is idempotent.
- :func:`shrink` delta-debugs a failing schedule down to a minimal
  reproducer, serializable (seed + schedule JSON) for regression pinning
  via :func:`dump_reproducer` / :func:`replay_reproducer`.

:func:`chaos_sweep` ties them together: N seeded trials, oracle-checked,
failures shrunk — bit-for-bit reproducible for a fixed seed.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bugs": (
        "AbandonAmnesiaRetryStage",
        "SilentDropRetryStage",
        "drop_retry_stages",
        "silent_drop_stages",
    ),
    ".generator": (
        "ADVERSARY_FAULT_KINDS",
        "ChaosIntensity",
        "FaultScheduleGenerator",
        "StormConfig",
        "StormEvent",
        "StormTrafficGenerator",
    ),
    ".harness": (
        "ChaosReport",
        "ChaosRunConfig",
        "adversary_model_for",
        "run_chaos",
    ),
    ".oracle": (
        "ADMISSION_TERMINAL_KINDS",
        "DeliveryOracle",
        "OracleReport",
        "Violation",
        "check_shard_count_invariance",
    ),
    ".parallel": ("fanout",),
    ".schedule": (
        "Reproducer",
        "dump_reproducer",
        "fault_from_dict",
        "fault_to_dict",
        "load_reproducer",
        "replay_reproducer",
    ),
    ".shrink": ("ShrinkResult", "shrink"),
    ".sweep": ("ChaosSweepResult", "ChaosTrial", "chaos_sweep"),
    ".trace_oracle": ("check_trace",),
})
