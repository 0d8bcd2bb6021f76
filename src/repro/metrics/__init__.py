"""Measurement helpers: latency summaries, collectors, report tables."""

from repro.metrics.admission_report import admission_report
from repro.metrics.adversarial_report import adversarial_report
from repro.metrics.collector import LatencyCollector
from repro.metrics.failover_report import failover_report
from repro.metrics.invariant_report import sweep_report
from repro.metrics.recovery_report import recovery_report
from repro.metrics.reports import format_table
from repro.metrics.shard_report import shard_report
from repro.metrics.stats import Summary, summarize
from repro.metrics.timeline import TraceEvent, render_trace, trace_alert
from repro.metrics.trace_report import trace_attribution, trace_report

__all__ = [
    "LatencyCollector",
    "Summary",
    "TraceEvent",
    "admission_report",
    "adversarial_report",
    "failover_report",
    "format_table",
    "recovery_report",
    "render_trace",
    "shard_report",
    "summarize",
    "sweep_report",
    "trace_alert",
    "trace_attribution",
    "trace_report",
]
