"""Per-alert causal tracing: spans, trace contexts, the farm's TraceSink.

SIMBA's dependability claim is end-to-end, but journals and oracle verdicts
only observe *endpoints*.  This module records the causal path an alert
actually took — source send → channel transit → receive/ack → pipeline
stages → delivery-mode blocks → ack waits → retries → failover handoffs —
as a tree of :class:`Span` objects keyed by the alert id (which already
rides every hop as ``Message.correlation``).

Design rules, in order of importance:

- **Zero overhead when off.**  Tracing is enabled by installing a
  :class:`TraceSink` on an :class:`~repro.sim.kernel.Environment`
  (``sink.install(env)``).  Every instrumentation site does one slot load
  (``tr = env.tracer``) and skips everything else when it is None — no
  allocation, no string formatting, no branches beyond the None check.
- **Pure observation.**  The sink never draws randomness, never schedules
  events and never yields: a traced run's event sequence — and therefore
  its journals, ack tables and fingerprints — is byte-identical to the
  untraced run.
- **Deterministic ordering.**  Span ids come from a per-sink counter and
  spans are stored in begin order; for a fixed seed the sink's content is
  bit-for-bit reproducible (the trace-golden test pins this).
- **Bounded memory.**  At most ``max_traces`` traces and
  ``max_spans_per_trace`` spans per trace are retained; the oldest trace
  is evicted first and evictions are counted, never silent.

Spans carry explicit parent ids, threaded through the call graph
(``IncomingAlert.trace_parent``, ``Message.trace_parent``, keyword
arguments) rather than inferred from an ambient stack — interleaved
processes in a discrete-event kernel make implicit context fragile.
Lifecycle events without an alert (MDC restarts, failover promotions) land
on per-entity ``lifecycle:<name>`` traces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

#: Trace-id prefix for spans not tied to one alert (restarts, promotions).
LIFECYCLE_PREFIX = "lifecycle:"


def lifecycle_trace(name: str) -> str:
    """Trace id for an entity's lifecycle events (``lifecycle:<name>``)."""
    return f"{LIFECYCLE_PREFIX}{name}"


@dataclass
class Span:
    """One timed operation in an alert's causal tree.

    ``end``/``outcome`` stay None while the span is open; a span left open
    after a run quiesced means the operation was cut down mid-flight (e.g.
    a crash killed the process) — informative, not an error.
    """

    span_id: int
    trace_id: str
    name: str
    start: float
    parent_id: Optional[int] = None
    end: Optional[float] = None
    outcome: Optional[str] = None
    annotations: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Elapsed sim-time; 0.0 while still open."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def closed(self) -> bool:
        return self.end is not None

    def to_row(self, trace_id: Optional[str] = None) -> dict[str, Any]:
        """Plain-JSON form (floats via ``repr`` for byte-stable goldens)."""
        row: dict[str, Any] = {
            "span_id": self.span_id,
            "trace_id": trace_id if trace_id is not None else self.trace_id,
            "name": self.name,
            "start": repr(self.start),
        }
        if self.parent_id is not None:
            row["parent_id"] = self.parent_id
        if self.end is not None:
            row["end"] = repr(self.end)
        if self.outcome is not None:
            row["outcome"] = self.outcome
        if self.annotations:
            row["annotations"] = {
                key: repr(value) if isinstance(value, float) else value
                for key, value in sorted(self.annotations.items())
            }
        return row


class TraceSink:
    """Collects spans for one environment; bounded, deterministic, picklable.

    The sink travels inside :class:`~repro.testkit.harness.ChaosReport`
    through the sweep's process pool, so it must never hold the environment
    (``__getstate__`` drops it — a sink read back from a worker is a pure
    record, not an active tracer).
    """

    def __init__(
        self,
        max_traces: int = 4096,
        max_spans_per_trace: int = 512,
    ):
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self.env: Optional["Environment"] = None
        self._next_id = 1
        #: trace id → spans in begin order (dict preserves first-seen order).
        self._traces: dict[str, list[Span]] = {}
        self.dropped_traces = 0
        self.dropped_spans = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self, env: "Environment") -> "TraceSink":
        """Attach to ``env``; instrumentation sites start emitting."""
        self.env = env
        env.tracer = self
        return self

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["env"] = None  # never pickle the live kernel
        return state

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _store(self, trace_id: str, span: Span) -> Span:
        spans = self._traces.get(trace_id)
        if spans is None:
            while len(self._traces) >= self.max_traces:
                oldest = next(iter(self._traces))
                self.dropped_spans += len(self._traces.pop(oldest))
                self.dropped_traces += 1
            spans = self._traces[trace_id] = []
        if len(spans) >= self.max_spans_per_trace:
            self.dropped_spans += 1
            return span  # still returned so callers can end() it harmlessly
        spans.append(span)
        return span

    def begin(
        self,
        trace_id: str,
        name: str,
        parent: Optional[int] = None,
        start: Optional[float] = None,
        **annotations: Any,
    ) -> Span:
        """Open a span; ``start`` defaults to now (pass one for retroactive
        spans, e.g. channel transit measured at delivery time)."""
        span = Span(
            span_id=self._next_id,
            trace_id=trace_id,
            name=name,
            start=self.env.now if start is None else start,
            parent_id=parent,
            annotations=dict(annotations) if annotations else {},
        )
        self._next_id += 1
        return self._store(trace_id, span)

    def end(
        self, span: Span, outcome: str = "ok", **annotations: Any
    ) -> Span:
        """Close a span with its outcome (idempotent-safe: last close wins)."""
        span.end = self.env.now
        span.outcome = outcome
        if annotations:
            span.annotations.update(annotations)
        return span

    def event(
        self,
        trace_id: str,
        name: str,
        parent: Optional[int] = None,
        outcome: str = "ok",
        **annotations: Any,
    ) -> Span:
        """A zero-duration span (restart, promotion, fencing discovery)."""
        span = self.begin(trace_id, name, parent=parent, **annotations)
        span.end = span.start
        span.outcome = outcome
        return span

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def trace_ids(self) -> list[str]:
        """Trace ids in first-appearance order."""
        return list(self._traces)

    def spans(self, trace_id: str) -> list[Span]:
        """One trace's spans in begin order (empty list if unknown)."""
        return list(self._traces.get(trace_id, ()))

    def all_spans(self) -> Iterable[Span]:
        for spans in self._traces.values():
            yield from spans

    def span_count(self) -> int:
        return sum(len(spans) for spans in self._traces.values())

    def find_spans(self, name: str) -> list[Span]:
        """Every retained span with this name, in begin order."""
        return [s for s in self.all_spans() if s.name == name]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_payload(
        self, rename: Optional[Callable[[str], str]] = None
    ) -> dict[str, Any]:
        """Plain-JSON payload: traces in first-appearance order.

        ``rename`` maps trace ids for golden stability (alert ids come from
        a process-global counter, so goldens normalize them to
        first-appearance order; span ids are sink-local and already
        deterministic).
        """
        traces = []
        for trace_id, spans in self._traces.items():
            shown = rename(trace_id) if rename is not None else trace_id
            traces.append(
                {
                    "trace_id": shown,
                    "spans": [span.to_row(shown) for span in spans],
                }
            )
        return {
            "traces": traces,
            "dropped_traces": self.dropped_traces,
            "dropped_spans": self.dropped_spans,
        }

    def to_json(self, rename: Optional[Callable[[str], str]] = None) -> str:
        return json.dumps(self.to_payload(rename), indent=1)
