"""Experiment E14: naive vs stabilizing transport on one adversary schedule.

The SIMBA architecture's dependability story (§4–5) assumes the pipes
between replicas behave; Dolev, Dubois, Potop-Butucaru & Tixeuil's
stabilizing exactly-once results say what it actually takes when they
don't — non-FIFO reordering, retransmit amplification, in-flight
corruption.  This experiment quantifies that gap on the replication ship
links: one seeded fault schedule whose adversary pulses (reorder /
duplicate / corrupt windows) target every pair's link, replayed
bit-identically against two farms —

- ``naive`` — the pre-PR transport: frames are applied as they arrive,
  every duplicate copy re-applied, every corrupt frame accepted.  The
  damage is *counted* (:class:`~repro.core.stabilizing.NaiveReceiver`),
  so the baseline is measurable, not hypothetical.
- ``stabilizing`` — :class:`~repro.core.stabilizing.StabilizingSender` /
  ``StabilizingReceiver``: CRC32 verification with a bounded corrupt-NACK
  resend loop, and per-peer monotone-watermark dedup.

Per variant we report delivered counts, the transport audit (corrupt
accepts, duplicate applies, and the rejected/dropped mirror image),
resend volume, the convergence point (when the unshipped queues last
drained, relative to the fault window), and the oracle's verdict — the
three transport invariants (``no_corrupt_accepted``,
``stabilized_exactly_once``, ``convergence_bounded``) turn the ablation
into a pass/fail statement.

Both variants are independent worlds over the same schedule, so
``jobs=2`` runs them in parallel worker processes with byte-identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.core.stabilizing import TRANSPORT_KINDS
from repro.sim.clock import HOUR
from repro.sim.failures import ScheduledFault
from repro.testkit.generator import (
    ADVERSARY_FAULT_KINDS,
    ChaosIntensity,
    FaultScheduleGenerator,
)
from repro.testkit.harness import ChaosRunConfig, VariantLookup, run_chaos
from repro.testkit.oracle import INVARIANTS
from repro.testkit.parallel import fanout
from repro.workloads.faultload import TARGET_REPLICATION_LINK

#: The two transports compared, baseline first.
VARIANTS = tuple(reversed(TRANSPORT_KINDS))  # ("naive", "stabilizing")

#: Fault pressure matching the property tier's farm sweep.
E14_INTENSITY = ChaosIntensity(faults_per_hour=30.0)

TRANSPORT_INVARIANTS = tuple(
    row.name for row in INVARIANTS if row.scope == "pair side"
)


def adversarial_schedule(
    seed: int,
    users: list[str],
    duration: float = HOUR,
    intensity: Optional[ChaosIntensity] = None,
) -> list[ScheduledFault]:
    """A generator schedule whose adversary pulses target ship links only.

    The full benign fault mix is kept (crashes, outages, link downtime —
    the transport must hold up *during* failovers, not beside them);
    substrate-level adversary pulses are filtered out because they stress
    the user-facing IM/email path, which is outside the record transport's
    contract.
    """
    schedule = FaultScheduleGenerator(
        seed=seed,
        users=users,
        duration=duration,
        intensity=intensity if intensity is not None else E14_INTENSITY,
        replication=True,
        adversarial=True,
    ).generate()
    return [
        f
        for f in schedule
        if f.kind not in ADVERSARY_FAULT_KINDS
        or f.target.startswith(f"{TARGET_REPLICATION_LINK}:")
    ]


@dataclass
class AdversarialVariant:
    """One transport's behaviour under the shared adversary schedule."""

    name: str
    offered: int
    delivered: int
    #: Records framed and shipped across all pair sides.
    shipped: int
    #: Corrupt frames applied to a standby log (must be 0 stabilizing).
    corrupt_accepts: int
    #: Duplicate frames re-applied (must be 0 stabilizing).
    duplicate_applies: int
    #: The stabilizing mirror image: NACKed corrupt frames and dropped
    #: duplicate copies (both 0 for the naive baseline by construction).
    corrupt_rejected: int
    duplicate_dropped: int
    #: Corrupt-NACK resend rounds spent inside ship round trips.
    resends: int
    #: When the run's last fault cleared (``ChaosReport.fault_window_end``).
    fault_window_end: float
    #: Sim time the unshipped queues last drained.
    converged_at: float
    #: Drain lag past the fault window (0 = converged before it closed).
    convergence_lag: float
    violations: list[str] = field(default_factory=list)

    @property
    def transport_violations(self) -> list[str]:
        return [
            v
            for v in self.violations
            if any(v.startswith(inv) for inv in TRANSPORT_INVARIANTS)
        ]


@dataclass
class AdversarialResult(VariantLookup):
    """Both transports under one adversary schedule."""

    seed: int
    schedule: list[ScheduledFault]
    variants: list[AdversarialVariant] = field(default_factory=list)

    @property
    def fault_window_end(self) -> float:
        """Same schedule and config for every variant, so same window."""
        return self.variants[0].fault_window_end

    @property
    def ok(self) -> bool:
        """The E14 claim: on the identical schedule the stabilizing
        transport accepts zero corrupt frames and re-applies zero
        duplicates with no transport-invariant violations, while the
        naive baseline demonstrably does damage."""
        stabilizing = self.variant("stabilizing")
        naive = self.variant("naive")
        return (
            stabilizing.corrupt_accepts == 0
            and stabilizing.duplicate_applies == 0
            and not stabilizing.transport_violations
            and (naive.corrupt_accepts > 0 or naive.duplicate_applies > 0)
        )


def _run_variant(
    variant: str,
    seed: int,
    schedule: list[ScheduledFault],
    n_users: int,
    duration: float,
) -> AdversarialVariant:
    report = run_chaos(
        schedule,
        ChaosRunConfig(
            seed=seed,
            n_users=n_users,
            duration=duration,
            replication=True,
            transport=variant,
        ),
    )
    info = report.oracle.info
    converged_at = float(info.get("transport_converged_at", 0.0))
    return AdversarialVariant(
        name=variant,
        offered=sum(report.offered.values()),
        delivered=sum(report.delivered.values()),
        shipped=report.oracle.checked.get("transport_shipped", 0),
        corrupt_accepts=info.get("corrupt_accepted", 0),
        duplicate_applies=info.get("duplicate_applied", 0),
        corrupt_rejected=info.get("corrupt_rejected", 0),
        duplicate_dropped=info.get("duplicate_dropped", 0),
        resends=info.get("transport_resends", 0),
        fault_window_end=report.fault_window_end,
        converged_at=converged_at,
        convergence_lag=max(0.0, converged_at - report.fault_window_end),
        violations=[str(v) for v in report.oracle.violations],
    )


def run_adversarial_comparison(
    seed: int = 0,
    n_users: int = 2,
    duration: float = HOUR,
    schedule: Optional[list[ScheduledFault]] = None,
    variants: tuple = VARIANTS,
    jobs: Optional[int] = None,
) -> AdversarialResult:
    """Replay one adversary schedule against each transport in ``variants``.

    The schedule is identical by construction (both variants receive the
    same list), and each variant is an independent world — ``jobs > 1``
    runs them in parallel worker processes; results come back in
    ``variants`` order either way.
    """
    if schedule is None:
        users = [f"user{i}" for i in range(n_users)]
        schedule = adversarial_schedule(seed, users, duration=duration)
    return AdversarialResult(
        seed=seed,
        schedule=list(schedule),
        variants=fanout(
            partial(
                _run_variant,
                seed=seed,
                schedule=schedule,
                n_users=n_users,
                duration=duration,
            ),
            variants,
            jobs=jobs,
        ),
    )
