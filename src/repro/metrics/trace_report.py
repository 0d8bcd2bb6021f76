"""E11-style latency attribution over a run's trace sink.

Per-alert journals answer *whether* an alert arrived; the trace answers
*where its latency went*.  This report buckets every traced alert's span
durations (:func:`repro.obs.attribute_spans`) — pipeline stage vs channel
wait vs channel transit vs failover stall — and prints one percentile row
per bucket, so a p95 regression is attributable to a layer in one glance.

Buckets overlap by construction (an IM ack's transit happens *during* the
sender's ack wait; an email transit outlives its fire-and-forget block),
so rows are shown side by side with their share of end-to-end time, never
summed into a partition.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from repro.metrics.reports import format_table
from repro.metrics.stats import summarize
from repro.obs.render import attribute_spans
from repro.obs.trace import LIFECYCLE_PREFIX

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import TraceSink


def trace_attribution(sink: "TraceSink") -> dict[str, list[float]]:
    """bucket → per-alert duration samples, across every alert trace.

    A trace contributes one sample per bucket it actually touched; alerts
    that never waited on an ack simply do not appear in the ack-wait
    bucket (per-bucket ``n`` varies, which is the point — the count column
    tells you how many alerts a bucket even applies to).
    """
    samples: dict[str, list[float]] = defaultdict(list)
    for trace_id in sink.trace_ids():
        if trace_id.startswith(LIFECYCLE_PREFIX):
            continue
        for bucket, duration in attribute_spans(sink.spans(trace_id)).items():
            samples[bucket].append(duration)
    return dict(samples)


def trace_report(sink: "TraceSink") -> str:
    """Percentile table: one row per attribution bucket, largest p95 first."""
    samples = trace_attribution(sink)
    if not samples:
        return "(no traces recorded)"
    e2e = summarize(samples.get("end_to_end", []))
    rows = []
    order = sorted(
        samples.items(),
        key=lambda item: (-summarize(item[1]).p95, item[0]),
    )
    for bucket, values in order:
        summary = summarize(values)
        share = (
            f"{summary.mean / e2e.mean * 100.0:.0f}%"
            if bucket != "end_to_end" and e2e.mean and e2e.mean > 0
            else "—"
        )
        rows.append(
            [
                bucket,
                summary.count,
                f"{summary.mean:.2f} s",
                f"{summary.median:.2f} s",
                f"{summary.p95:.2f} s",
                f"{summary.maximum:.2f} s",
                share,
            ]
        )
    n_traces = sum(
        1 for t in sink.trace_ids() if not t.startswith(LIFECYCLE_PREFIX)
    )
    heading = (
        f"trace attribution ({n_traces} alert trace(s), "
        f"{sink.span_count()} spans)"
    )
    return format_table(
        ["bucket", "n", "mean", "p50", "p95", "max", "share of e2e"],
        rows,
        title=heading,
    )
