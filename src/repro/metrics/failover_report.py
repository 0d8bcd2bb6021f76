"""E11's columns and sentences: one row per stack (solo / MDC-only /
replicated pair) under the identical crash schedule, how much of the
MDC-only unavailability window the warm standby removed, and whether the
replicated pair held the zero-loss / zero-duplicate / oracle-green
contract."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.reports import comparison_report

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.failover import FailoverResult


def failover_report(result: "FailoverResult") -> str:
    """Human-readable comparison table plus verdict lines."""
    replicated = result.variant("replicated")
    mdc = result.variant("mdc")
    headlines = []
    if mdc.latency.p95 > 0:
        gain = (1.0 - replicated.latency.p95 / mdc.latency.p95) * 100.0
        headlines.append(
            f"p95 per-alert unavailability: {mdc.latency.p95:.1f} s "
            f"(MDC-only) -> {replicated.latency.p95:.1f} s (replicated), "
            f"{gain:.0f}% smaller"
        )
    return comparison_report(
        f"E11: failover comparison (seed {result.seed}, "
        f"{len(result.schedule)} primary-host crash(es))",
        ["stack", "offered", "delivered", "lost", "dup routes",
         "failovers", "p50", "p95", "max", "violations"],
        [
            [v.name, v.offered, v.delivered, v.lost, v.duplicate_routes,
             v.promotions, f"{v.latency.median:.1f} s",
             f"{v.latency.p95:.1f} s", f"{v.latency.maximum:.1f} s",
             len(v.violations)]
            for v in result.variants
        ],
        notes=[
            f"crash at t={fault.at:.0f}s for {fault.duration:.0f}s"
            for fault in result.schedule
        ],
        headlines=headlines,
        verdict=(
            result.ok,
            f"replicated lost={replicated.lost}, "
            f"dup routes={replicated.duplicate_routes}, "
            f"violations={len(replicated.violations)}",
        ),
        violations=replicated.violations,
    )
