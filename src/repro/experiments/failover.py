"""Experiment E11: warm-standby failover vs the paper's MDC-only stack.

The §4.2.1 availability story is *same-host* recovery: the MDC relaunches a
crashed MyAlertBuddy, and a power loss therefore stalls delivery for the
whole outage plus the reboot.  The warm-standby pair
(:mod:`repro.core.replication`) exists to close exactly that window, and
this experiment quantifies it: one fixed schedule of primary-host power
losses, injected mid-delivery, replayed bit-identically against three
stacks —

- ``solo`` — a plain launched farm, no watchdog.  The crash is fatal;
  every alert after it is lost.  (The paper's motivation row.)
- ``mdc`` — tenants under their MDC watchdogs (the paper's §4.2.1 stack).
  Nothing is lost, but delivery stalls for outage + reboot.
- ``replicated`` — warm-standby pairs with log shipping, lease failover
  and epoch fencing.  The standby takes over within the lease timeout.

Per variant we measure offered/delivered/lost alerts, alerts routed more
than once (terminal ``routed`` trips — the duplicate metric fencing is
accountable for), failover promotions, and the per-alert delivery-latency
distribution.  The p95 latency is the headline: for an alert unlucky
enough to arrive during the outage it *is* the unavailability window.

:func:`run_failover_comparison` returns a :class:`FailoverResult`;
:func:`repro.metrics.failover_report.failover_report` renders the table
CI's ``experiment-smoke`` job publishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from repro.metrics.stats import Summary, summarize
from repro.sim.clock import MINUTE
from repro.sim.failures import FaultKind, ScheduledFault
from repro.testkit.harness import (
    DeliveryRig,
    VariantLookup,
    fault_window_end,
)
from repro.testkit.parallel import fanout
from repro.workloads.faultload import TARGET_HOST

#: The three stacks compared, in presentation order.
VARIANTS = ("solo", "mdc", "replicated")


@dataclass
class FailoverVariant:
    """One stack's behaviour under the shared crash schedule."""

    name: str
    offered: int
    delivered: int
    #: Offered alerts that neither reached the user nor were explicitly
    #: dead-lettered — silent loss.
    lost: int
    #: Alerts with more than one terminal ``routed`` pipeline trip.
    duplicate_routes: int
    #: Failover promotions (replicated variant only).
    promotions: int
    #: Per-alert delivery latency (emit → first receipt), offered alerts.
    latency: Summary
    #: Oracle violations (informational for ``solo``, which loses alerts
    #: by construction).
    violations: list[str] = field(default_factory=list)


@dataclass
class FailoverResult(VariantLookup):
    """All three variants under one crash schedule."""

    seed: int
    schedule: list[ScheduledFault]
    variants: list[FailoverVariant] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """The tentpole claim: the replicated pair loses nothing, routes
        nothing twice, satisfies the oracle (fencing invariants included),
        and its p95 per-alert unavailability beats MDC-only."""
        replicated = self.variant("replicated")
        mdc = self.variant("mdc")
        return (
            replicated.lost == 0
            and replicated.duplicate_routes == 0
            and not replicated.violations
            and replicated.latency.p95 < mdc.latency.p95
        )


def crash_schedule(
    seed: int,
    n_crashes: int = 2,
    start: float = 5 * MINUTE,
    window: float = 40 * MINUTE,
    outage: tuple[float, float] = (3 * MINUTE, 8 * MINUTE),
) -> list[ScheduledFault]:
    """Primary-host power losses spread over the workload window.

    Crash times land mid-window (never in the tail) so each outage hits
    alerts in flight, and outages are spaced so the host is back up (and
    the pair reconciled) before the next one.
    """
    rng = np.random.default_rng(seed)
    faults = []
    slot = window / n_crashes
    for index in range(n_crashes):
        at = start + index * slot + float(rng.uniform(0.1, 0.4)) * slot
        faults.append(
            ScheduledFault(
                at=at,
                kind=FaultKind.POWER_OUTAGE,
                target=TARGET_HOST,
                duration=float(rng.uniform(*outage)),
            )
        )
    return faults


def _run_variant(
    variant: str,
    seed: int,
    schedule: list[ScheduledFault],
    n_users: int,
    alert_period: float,
    window_end: float,
    settle: float,
    mdc_check_interval: float,
) -> FailoverVariant:
    rig = DeliveryRig(seed, n_users)
    if variant == "replicated":
        rig.farm.enable_replication()
    rig.start(
        watchdog_interval=None if variant == "solo" else mdc_check_interval
    )
    rig.round_robin(alert_period, until=window_end)
    rig.inject(schedule)
    report = rig.quiesce(window_end + settle)
    fates = list(rig.fates())
    latencies = [f.receipt.latency for f in fates if f.delivered]
    return FailoverVariant(
        name=variant,
        offered=len(fates),
        delivered=len(latencies),
        lost=sum(f.lost for f in fates),
        duplicate_routes=sum(f.routed > 1 for f in fates),
        promotions=sum(rig.promotions().values()),
        latency=summarize(latencies),
        violations=[str(v) for v in report.violations],
    )


def run_failover_comparison(
    seed: int = 0,
    n_users: int = 2,
    n_crashes: int = 2,
    alert_period: float = 20.0,
    window: float = 40 * MINUTE,
    settle: float = 25 * MINUTE,
    mdc_check_interval: float = 60.0,
    schedule: Optional[list[ScheduledFault]] = None,
    variants: tuple[str, ...] = VARIANTS,
    jobs: Optional[int] = None,
) -> FailoverResult:
    """Replay one crash schedule against each stack in ``variants``.

    The default runs all three; acceptance sweeps that only need the
    mdc-vs-replicated verdict pass ``("mdc", "replicated")`` and skip the
    (informational, alert-losing) solo run.

    Each variant is an independent world replaying the same schedule, so
    ``jobs > 1`` runs them in parallel worker processes; results come back
    in ``variants`` order either way.
    """
    if schedule is None:
        schedule = crash_schedule(seed, n_crashes=n_crashes, window=window)
    return FailoverResult(
        seed=seed,
        schedule=list(schedule),
        variants=fanout(
            partial(
                _run_variant,
                seed=seed,
                schedule=schedule,
                n_users=n_users,
                alert_period=alert_period,
                window_end=fault_window_end(schedule, 5 * MINUTE, window),
                settle=settle,
                mdc_check_interval=mdc_check_interval,
            ),
            variants,
            jobs=jobs,
        ),
    )
