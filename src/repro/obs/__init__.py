"""Structured per-alert tracing (zero-overhead-when-off observability).

Install a :class:`TraceSink` on an environment and every instrumented
layer — sources, channels, endpoints, pipeline stages, delivery blocks,
watchdogs, replication — emits :class:`Span` records keyed by alert id.
See :mod:`repro.obs.trace` for the design rules (pure observation,
deterministic ordering, bounded memory).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".render": ("attribute_spans", "render_attribution", "render_span_tree"),
    ".trace": ("LIFECYCLE_PREFIX", "Span", "TraceSink", "lifecycle_trace"),
})
