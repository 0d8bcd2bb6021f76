"""Experiment E12: storm hardening on vs off on identical storm traffic.

The paper's portal carried ~778 k alerts/day for ~225 k users (§1) —
traffic that arrives in correlated bursts (market open, breaking news),
not a polite Poisson trickle.  PR 7's admission layer
(:mod:`repro.core.admission`) exists for exactly that shape, and this
experiment quantifies what it buys: one deterministic alert storm
(:class:`~repro.testkit.generator.StormTrafficGenerator` — many sources
bursting at once, a fraction of arrivals re-submitted as duplicate
copies) plus one mid-burst IM outage, replayed bit-identically against
two farms —

- ``permissive`` — admission wired but every knob off
  (:meth:`~repro.core.admission.AdmissionConfig.permissive`).  The
  pre-hardening behaviour: every arrival is processed, duplicates end
  as ``duplicate_incoming`` at the log's delivery-status check.
- ``hardened`` — :meth:`~repro.core.admission.AdmissionConfig.hardened`:
  token buckets at three scopes, dedup of settled alerts, retry
  budgets with backoff into the dead-letter queue, and storm-mode
  shedding of routine traffic.

Per variant we measure offered/delivered counts, duplicate copies that
reached the user's screen (the zero-duplicates-past-dedup claim),
deadline misses (first receipt later than ``deadline`` after emission),
the admission counters (shed / coalesced / rate-limited / dead-lettered /
dedup-suppressed), silently unaccounted alerts, and the delivery-latency
distribution.  Both runs are oracle-audited, including the PR 7
admission invariants (rate-limit fairness, every shed journalled, no
duplicate past dedup).

:func:`run_storm_comparison` returns a :class:`StormResult`;
:func:`repro.metrics.admission_report.admission_report` renders the
table CI's ``experiment-smoke`` job publishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.core.admission import AdmissionConfig
from repro.metrics.stats import Summary, summarize
from repro.sim.clock import MINUTE
from repro.sim.failures import FaultKind, ScheduledFault
from repro.testkit.generator import StormConfig, StormTrafficGenerator
from repro.testkit.harness import (
    DeliveryRig,
    VariantLookup,
    fault_window_end,
    storm_source_names,
)
from repro.testkit.parallel import fanout
from repro.workloads.faultload import TARGET_IM_SERVICE

#: The two stacks compared, in presentation order.
VARIANTS = ("permissive", "hardened")

#: The E12 storm shape: a low base trickle punctuated by bursts intense
#: enough (vs the 3-tenant default farm) to trip the hardened config's
#: per-tenant storm detector and drain the recipient token buckets.
E12_STORM = StormConfig(
    n_sources=4,
    base_rate=0.02,
    burst_rate=4.0,
    n_bursts=2,
    burst_duration=90.0,
    duplicate_probability=0.2,
)


@dataclass
class StormVariant:
    """One admission config's behaviour under the shared storm."""

    name: str
    offered: int
    delivered: int
    #: Duplicate copies that reached the user's screen — the number the
    #: dedup layer must hold at zero.
    user_duplicates: int
    #: Delivered alerts whose first receipt arrived later than
    #: ``deadline`` seconds after emission.
    deadline_misses: int
    #: Admission counters (hardened variant; all zero when permissive).
    shed: int
    coalesced: int
    rate_limited: int
    dead_letters: int
    dedup_suppressed: int
    #: Offered alerts that neither reached the user nor carry an explicit
    #: terminal accounting (dead-letter or admission kind) — silent loss.
    unaccounted: int
    #: Per-alert delivery latency (emit → first receipt), offered alerts.
    latency: Summary
    violations: list[str] = field(default_factory=list)


@dataclass
class StormResult(VariantLookup):
    """Both variants under one (storm, fault schedule) pair."""

    seed: int
    storm: StormConfig
    schedule: list[ScheduledFault]
    deadline: float
    variants: list[StormVariant] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """The tentpole claim: under the identical storm the hardened farm
        lets zero duplicates past dedup, accounts every non-delivered
        alert as shed / rate-limited / dead-lettered, and stays
        oracle-green (admission invariants included)."""
        hardened = self.variant("hardened")
        return (
            hardened.user_duplicates == 0
            and hardened.unaccounted == 0
            and not hardened.violations
        )


def storm_schedule(
    seed: int,
    storm: StormConfig,
    users: list[str],
    duration: float,
    start: float,
) -> list[ScheduledFault]:
    """One IM-service outage across the first burst window.

    The outage forces email fallbacks and retry chains right when the
    burst is draining the token buckets — the compound pressure the
    retry-budget and shedding paths exist for.  Burst windows are drawn
    from the same seeded generator the workload uses, so the outage
    always lands on the real burst.
    """
    windows = StormTrafficGenerator(
        seed, users, storm, duration=duration, start=start
    ).burst_windows()
    first = min(windows, key=lambda w: w.start)
    return [
        ScheduledFault(
            at=first.start,
            kind=FaultKind.IM_SERVICE_OUTAGE,
            target=TARGET_IM_SERVICE,
            duration=first.duration + MINUTE,
        )
    ]


def _run_variant(
    variant: str,
    seed: int,
    storm: StormConfig,
    schedule: list[ScheduledFault],
    n_users: int,
    duration: float,
    start: float,
    settle: float,
    deadline: float,
) -> StormVariant:
    admission = (
        AdmissionConfig.hardened(seed=seed)
        if variant == "hardened"
        else AdmissionConfig.permissive(seed=seed)
    )
    rig = DeliveryRig(seed, n_users, sources=storm_source_names(storm))
    for tenant in rig.tenants:
        tenant.deployment.config.admission = admission
    rig.start()
    rig.storm(storm, duration=duration, start=start)
    rig.inject(schedule)
    report = rig.quiesce(fault_window_end(schedule, start, duration) + settle)
    fates = list(rig.fates())
    latencies = [f.receipt.latency for f in fates if f.delivered]
    rollup = rig.farm.admission_summary() or {}
    return StormVariant(
        name=variant,
        offered=len(fates),
        delivered=len(latencies),
        user_duplicates=sum(f.user_duplicates for f in fates),
        deadline_misses=sum(latency > deadline for latency in latencies),
        shed=rollup.get("shed", 0),
        coalesced=rollup.get("coalesced", 0),
        rate_limited=rollup.get("rate_limited", 0),
        dead_letters=rollup.get("dead_letters", 0),
        dedup_suppressed=rollup.get("dedup_suppressed", 0),
        unaccounted=sum(f.lost for f in fates),
        latency=summarize(latencies),
        violations=[str(v) for v in report.violations],
    )


def run_storm_comparison(
    seed: int = 0,
    n_users: int = 3,
    storm: Optional[StormConfig] = None,
    duration: float = 30 * MINUTE,
    start: float = 5 * MINUTE,
    settle: float = 30 * MINUTE,
    deadline: float = 5 * MINUTE,
    schedule: Optional[list[ScheduledFault]] = None,
    variants: tuple = VARIANTS,
    jobs: Optional[int] = None,
) -> StormResult:
    """Replay one storm against each admission config in ``variants``.

    Traffic is identical by construction: both variants regenerate the
    same event list from the same ``(seed, storm)`` pair.  Each variant
    is an independent world, so ``jobs > 1`` runs them in parallel
    worker processes; results come back in ``variants`` order either
    way.
    """
    if storm is None:
        storm = E12_STORM
    users = [f"user{i}" for i in range(n_users)]
    if schedule is None:
        schedule = storm_schedule(seed, storm, users, duration, start)
    return StormResult(
        seed=seed,
        storm=storm,
        schedule=list(schedule),
        deadline=deadline,
        variants=fanout(
            partial(
                _run_variant,
                seed=seed,
                storm=storm,
                schedule=schedule,
                n_users=n_users,
                duration=duration,
                start=start,
                settle=settle,
                deadline=deadline,
            ),
            variants,
            jobs=jobs,
        ),
    )
