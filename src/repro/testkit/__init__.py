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

from repro.testkit.bugs import (
    AbandonAmnesiaRetryStage,
    SilentDropRetryStage,
    drop_retry_stages,
    silent_drop_stages,
)
from repro.testkit.generator import (
    ADVERSARY_FAULT_KINDS,
    ChaosIntensity,
    FaultScheduleGenerator,
    StormConfig,
    StormEvent,
    StormTrafficGenerator,
)
from repro.testkit.harness import (
    ChaosReport,
    ChaosRunConfig,
    adversary_model_for,
    run_chaos,
)
from repro.testkit.oracle import (
    ADMISSION_TERMINAL_KINDS,
    DeliveryOracle,
    OracleReport,
    Violation,
    check_shard_count_invariance,
)
from repro.testkit.parallel import SweepPool, fanout, sweep_pool
from repro.testkit.schedule import (
    Reproducer,
    dump_reproducer,
    fault_from_dict,
    fault_to_dict,
    load_reproducer,
    replay_reproducer,
)
from repro.testkit.shrink import ShrinkResult, shrink
from repro.testkit.sweep import ChaosSweepResult, ChaosTrial, chaos_sweep
from repro.testkit.trace_oracle import check_trace

__all__ = [
    "ADMISSION_TERMINAL_KINDS",
    "ADVERSARY_FAULT_KINDS",
    "AbandonAmnesiaRetryStage",
    "adversary_model_for",
    "ChaosIntensity",
    "ChaosReport",
    "ChaosRunConfig",
    "ChaosSweepResult",
    "ChaosTrial",
    "DeliveryOracle",
    "FaultScheduleGenerator",
    "OracleReport",
    "Reproducer",
    "ShrinkResult",
    "SilentDropRetryStage",
    "StormConfig",
    "StormEvent",
    "StormTrafficGenerator",
    "SweepPool",
    "Violation",
    "chaos_sweep",
    "check_shard_count_invariance",
    "check_trace",
    "fanout",
    "sweep_pool",
    "drop_retry_stages",
    "dump_reproducer",
    "fault_from_dict",
    "fault_to_dict",
    "load_reproducer",
    "replay_reproducer",
    "run_chaos",
    "shrink",
    "silent_drop_stages",
]
