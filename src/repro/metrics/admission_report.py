"""E12's columns and sentences: one row per admission config (permissive
/ hardened) under the identical storm and fault schedule, what shedding
bought on deadline misses and tail latency, and whether the hardened farm
held the zero-duplicates-past-dedup / everything-accounted / oracle-green
contract."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.reports import comparison_report

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.storm import StormResult


def admission_report(result: "StormResult") -> str:
    """Human-readable comparison table plus verdict lines."""
    hardened = result.variant("hardened")
    permissive = result.variant("permissive")
    return comparison_report(
        f"E12: storm hardening comparison (seed {result.seed}, "
        f"{result.storm.n_bursts} burst(s) x "
        f"{result.storm.burst_duration:.0f}s at "
        f"+{result.storm.burst_rate:g}/s, deadline {result.deadline:.0f}s)",
        ["admission", "offered", "delivered", "shed", "rate-lim",
         "dead-let", "dedup", "user dups", "ddl miss", "p95",
         "unaccounted", "violations"],
        [
            [v.name, v.offered, v.delivered, v.shed + v.coalesced,
             v.rate_limited, v.dead_letters, v.dedup_suppressed,
             v.user_duplicates, v.deadline_misses,
             f"{v.latency.p95:.1f} s", v.unaccounted, len(v.violations)]
            for v in result.variants
        ],
        notes=[
            f"{fault.kind.value} at t={fault.at:.0f}s "
            f"for {fault.duration:.0f}s"
            for fault in result.schedule
        ],
        headlines=[
            f"deadline misses: {permissive.deadline_misses} (permissive) -> "
            f"{hardened.deadline_misses} (hardened); "
            f"p95 latency {permissive.latency.p95:.1f} s -> "
            f"{hardened.latency.p95:.1f} s",
            f"hardened accounting: {hardened.shed + hardened.coalesced} "
            f"shed/coalesced, {hardened.rate_limited} rate-limited, "
            f"{hardened.dead_letters} dead-lettered, "
            f"{hardened.dedup_suppressed} duplicate copies suppressed",
        ],
        verdict=(
            result.ok,
            f"user duplicates={hardened.user_duplicates}, "
            f"unaccounted={hardened.unaccounted}, "
            f"violations={len(hardened.violations)}",
        ),
        violations=hardened.violations,
    )
