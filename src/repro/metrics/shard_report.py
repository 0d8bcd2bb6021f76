"""Render the E13 sharded-throughput sweep as a report table."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.reports import comparison_report

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.sharded import ShardedComparisonResult


def shard_report(comparison: "ShardedComparisonResult") -> str:
    """One row per shard layout, then the invariance verdict.

    ``alerts/s`` is *wall-clock* aggregate delivery throughput (the number
    the single-core ceiling caps); ``speedup`` is relative to the first
    layout.  The fingerprint column shows a prefix of the merged journal
    digest — identical rows are the invariance guarantee made visible.
    """
    hot = [
        f"  shards={r.shards}: {r.placement_summary}"
        for r in comparison.results
        if "hot" in r.placement_summary
    ]
    return comparison_report(
        "E13: sharded farm-of-farms throughput (A4 beyond one core)",
        ["shards", "users", "tenants", "delivered", "wall", "alerts/s",
         "speedup", "fingerprint"],
        [
            [r.shards, f"{r.population:,}", f"{r.tenants:,}",
             f"{r.delivered:,}", f"{r.wall_seconds:.1f} s",
             f"{r.alerts_per_wall_second:,.0f}",
             f"{comparison.speedup(r):.2f}x", r.merged_fingerprint[:12]]
            for r in comparison.results
        ],
        headlines=[
            comparison.invariance.summary(),
            *(["hot-shard detector:", *hot] if hot
              else ["hot-shard detector: all layouts balanced"]),
        ],
    )
