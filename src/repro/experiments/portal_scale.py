"""Experiment E7: the commercial-portal usage-log aggregates (§1).

"...on average around 225 thousands of people received around 778 thousands
of alerts every day from that site."

Two parts:

1. **Aggregate reproduction** — generate a full-scale synthetic week and
   report alerts/day and distinct users/day, which should land on the
   paper's numbers by construction (the generator is calibrated, the check
   is that the pipeline preserves them).
2. **Replay through real MABs** — scale the population down, deploy a
   :class:`~repro.core.farm.BuddyFarm` of actual MyAlertBuddies (hundreds
   of tenants on one kernel), replay a day of the log through the full
   source→MAB→user stack, and report delivery ratio and latency.  Each log
   record addresses one recipient, so emission uses the farm's O(1)
   tenant routing and the source's public single-recipient delivery —
   no broadcast over targets, no private APIs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.farm import FarmProfile
from repro.metrics.stats import Summary, summarize
from repro.sim.clock import DAY, MINUTE
from repro.workloads.portal_log import LogRecord, PortalLogGenerator
from repro.world import SimbaWorld


@dataclass
class PortalScaleResult:
    """Full-scale aggregates plus the scaled replay outcome."""

    days: int
    mean_alerts_per_day: float
    mean_users_per_day: float
    alerts_per_user: float
    replay_users: int
    replay_alerts: int
    replay_received: int
    replay_latency: Summary

    @property
    def replay_delivery_ratio(self) -> float:
        if self.replay_alerts == 0:
            return float("nan")
        return self.replay_received / self.replay_alerts


def run_portal_log(
    seed: int = 0,
    full_scale_days: int = 7,
    replay_users: int = 500,
    replay_alerts_target: int = 1750,
) -> PortalScaleResult:
    """Generate the full-scale log, then replay a scaled day through MABs."""
    world = SimbaWorld(seed=seed)
    generator = PortalLogGenerator(world.rngs.stream("portal-log"))

    totals = []
    for day in range(full_scale_days):
        records = generator.generate_day(day)
        totals.append(PortalLogGenerator.daily_summary(records))
    mean_alerts = sum(t["alerts"] for t in totals) / len(totals)
    mean_users = sum(t["distinct_users"] for t in totals) / len(totals)

    # ------------------------------------------------------------------
    # Scaled replay through a farm of real MyAlertBuddies.
    # ------------------------------------------------------------------
    scaled = PortalLogGenerator(
        world.rngs.stream("portal-replay"),
        n_users=replay_users,
        alerts_per_day=replay_alerts_target,
    )
    day_records: list[LogRecord] = scaled.generate_day(0)

    source = world.create_source("portal")
    farm = world.create_farm(
        profile=FarmProfile(
            categories=tuple(scaled.categories),
            accept_sources=("portal",),
            # Spread startup so hundreds of per-tenant maintenance timers
            # do not tick in lockstep at the top of every minute.
            launch_stagger=60.0,
        )
    )
    farm.add_users(replay_users)
    farm.launch_all()

    def replayer(env):
        for record in day_records:
            if record.at > env.now:
                yield env.timeout(record.at - env.now)
            tenant = farm.tenant_at(record.user_id)
            source.emit_to(
                tenant.book,
                record.category,
                f"{record.category} alert",
                f"log replay at {record.at:.0f}",
            )

    world.env.process(replayer(world.env), name="portal-replayer")
    world.run(until=DAY + 30 * MINUTE)

    receipts = farm.receipts(unique=True)
    return PortalScaleResult(
        days=full_scale_days,
        mean_alerts_per_day=mean_alerts,
        mean_users_per_day=mean_users,
        alerts_per_user=mean_alerts / mean_users if mean_users else 0.0,
        replay_users=replay_users,
        replay_alerts=len(day_records),
        replay_received=len(receipts),
        replay_latency=summarize([r.latency for r in receipts]),
    )
