"""Measurement helpers: latency summaries, collectors, report tables."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".admission_report": ("admission_report",),
    ".adversarial_report": ("adversarial_report",),
    ".collector": ("LatencyCollector",),
    ".failover_report": ("failover_report",),
    ".invariant_report": ("sweep_report",),
    ".recovery_report": ("recovery_report",),
    ".reports": ("format_table",),
    ".shard_report": ("shard_report",),
    ".stats": ("Summary", "summarize"),
    ".timeline": ("TraceEvent", "render_trace", "trace_alert"),
    ".trace_report": ("trace_attribution", "trace_report"),
})
