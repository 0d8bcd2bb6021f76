"""Unit tests for the tracing substrate: TraceSink, Span, render helpers.

These exercise the sink in isolation against a stub environment (all the
sink needs is ``.now`` and a ``tracer`` slot) — the end-to-end properties
(byte-identical journals, stable goldens, oracle integration) live in
``test_trace_golden.py`` / ``test_trace_oracle.py``.
"""

import pickle

import pytest

from repro.obs import (
    LIFECYCLE_PREFIX,
    Span,
    TraceSink,
    attribute_spans,
    lifecycle_trace,
    render_attribution,
    render_span_tree,
)


class FakeEnv:
    """Just enough environment for a sink: a clock and a tracer slot."""

    def __init__(self):
        self.now = 0.0
        self.tracer = None


def make_sink(**kwargs):
    env = FakeEnv()
    return TraceSink(**kwargs).install(env), env


class TestLifecycleTrace:
    def test_prefix(self):
        assert lifecycle_trace("mdc:user0") == "lifecycle:mdc:user0"
        assert lifecycle_trace("x").startswith(LIFECYCLE_PREFIX)


class TestSpan:
    def test_open_span_duration_zero(self):
        span = Span(span_id=1, trace_id="a", name="x", start=3.0)
        assert not span.closed
        assert span.duration == 0.0

    def test_closed_span_duration(self):
        span = Span(span_id=1, trace_id="a", name="x", start=3.0, end=5.5)
        assert span.closed
        assert span.duration == 2.5

    def test_to_row_omits_unset_fields(self):
        span = Span(span_id=7, trace_id="a", name="x", start=1.0)
        row = span.to_row()
        assert row == {
            "span_id": 7, "trace_id": "a", "name": "x", "start": "1.0",
        }

    def test_to_row_floats_via_repr_and_sorted_annotations(self):
        span = Span(
            span_id=1, trace_id="a", name="x", start=0.1, end=0.3,
            outcome="ok", annotations={"zeta": 0.2, "alpha": "v"},
        )
        row = span.to_row()
        assert row["start"] == repr(0.1)
        assert row["end"] == repr(0.3)
        assert list(row["annotations"]) == ["alpha", "zeta"]
        assert row["annotations"]["zeta"] == repr(0.2)

    def test_to_row_trace_id_override(self):
        span = Span(span_id=1, trace_id="alert-9", name="x", start=0.0)
        assert span.to_row("A1")["trace_id"] == "A1"


class TestTraceSinkRecording:
    def test_span_ids_are_sequential_from_one(self):
        sink, _ = make_sink()
        a = sink.begin("t", "first")
        b = sink.begin("t", "second")
        c = sink.event("u", "third")
        assert (a.span_id, b.span_id, c.span_id) == (1, 2, 3)

    def test_begin_uses_env_now_and_retroactive_start(self):
        sink, env = make_sink()
        env.now = 10.0
        live = sink.begin("t", "live")
        retro = sink.begin("t", "transit", start=4.0)
        assert live.start == 10.0
        assert retro.start == 4.0

    def test_end_records_now_outcome_and_annotations(self):
        sink, env = make_sink()
        span = sink.begin("t", "op", color="red")
        env.now = 2.0
        sink.end(span, "failed", reason="timeout")
        assert span.end == 2.0
        assert span.outcome == "failed"
        assert span.annotations == {"color": "red", "reason": "timeout"}

    def test_event_is_zero_duration(self):
        sink, env = make_sink()
        env.now = 7.0
        span = sink.event("t", "promoted", epoch=2)
        assert span.closed
        assert span.start == span.end == 7.0
        assert span.duration == 0.0
        assert span.outcome == "ok"

    def test_parent_threading(self):
        sink, _ = make_sink()
        root = sink.begin("t", "root")
        child = sink.begin("t", "child", parent=root.span_id)
        assert child.parent_id == root.span_id

    def test_reading_api(self):
        sink, _ = make_sink()
        sink.begin("b", "one")
        sink.begin("a", "two")
        sink.begin("b", "one")
        assert sink.trace_ids() == ["b", "a"]  # first-appearance order
        assert [s.name for s in sink.spans("b")] == ["one", "one"]
        assert sink.spans("missing") == []
        assert sink.span_count() == 3
        assert len(sink.find_spans("one")) == 2
        assert len(list(sink.all_spans())) == 3

    def test_spans_returns_a_copy(self):
        sink, _ = make_sink()
        sink.begin("t", "x")
        sink.spans("t").clear()
        assert sink.span_count() == 1


class TestTraceSinkBounds:
    def test_trace_eviction_is_oldest_first_and_counted(self):
        sink, _ = make_sink(max_traces=2)
        sink.begin("t1", "a")
        sink.begin("t1", "b")
        sink.begin("t2", "c")
        sink.begin("t3", "d")  # evicts t1 (2 spans)
        assert sink.trace_ids() == ["t2", "t3"]
        assert sink.dropped_traces == 1
        assert sink.dropped_spans == 2

    def test_span_cap_per_trace(self):
        sink, _ = make_sink(max_spans_per_trace=2)
        sink.begin("t", "a")
        sink.begin("t", "b")
        extra = sink.begin("t", "c")
        assert sink.span_count() == 2
        assert sink.dropped_spans == 1
        # The uncounted span is still returned so the call site can
        # end() it without a None check.
        sink.end(extra, "ok")
        assert sink.span_count() == 2

    def test_defaults_never_evict_in_small_runs(self):
        sink, _ = make_sink()
        for i in range(50):
            sink.begin(f"t{i}", "x")
        assert sink.dropped_traces == 0
        assert sink.dropped_spans == 0


class TestTraceSinkInstall:
    def test_install_sets_tracer_slot(self):
        env = FakeEnv()
        sink = TraceSink().install(env)
        assert env.tracer is sink
        assert sink.env is env

    def test_pickle_drops_env_keeps_spans(self):
        sink, env = make_sink()
        env.now = 1.5
        sink.end(sink.begin("t", "op"), "ok")
        clone = pickle.loads(pickle.dumps(sink))
        assert clone.env is None
        assert [s.name for s in clone.spans("t")] == ["op"]
        assert clone.spans("t")[0].end == 1.5


class TestTraceSinkExport:
    def _populated(self):
        sink, env = make_sink()
        root = sink.begin("alert-42", "source.deliver")
        env.now = 0.25
        sink.end(root, "delivered")
        sink.event(lifecycle_trace("mdc:user0"), "mdc.restart")
        return sink

    def test_to_payload_shape(self):
        payload = self._populated().to_payload()
        assert sorted(payload) == ["dropped_spans", "dropped_traces", "traces"]
        assert [t["trace_id"] for t in payload["traces"]] == [
            "alert-42", "lifecycle:mdc:user0",
        ]

    def test_to_payload_rename_applies_to_rows(self):
        def norm(tid):
            return "A1" if tid == "alert-42" else tid

        payload = self._populated().to_payload(rename=norm)
        first = payload["traces"][0]
        assert first["trace_id"] == "A1"
        assert all(row["trace_id"] == "A1" for row in first["spans"])

    def test_to_json_is_deterministic(self):
        assert self._populated().to_json() == self._populated().to_json()


class TestRenderSpanTree:
    def _spans(self):
        sink, env = make_sink()
        root = sink.begin("t", "root", mode="normal")
        child = sink.begin("t", "child", parent=root.span_id)
        env.now = 2.0
        sink.end(child, "done")
        sink.begin("t", "open-leaf", parent=child.span_id)
        sink.end(root, "ok")
        return sink.spans("t")

    def test_tree_indents_by_parenthood(self):
        text = render_span_tree(self._spans(), title="t")
        lines = text.splitlines()
        assert lines[0] == "trace t"
        assert lines[1].startswith("  root [ok]")
        assert lines[1].endswith("mode=normal")
        assert lines[2].startswith("    child [done]")
        assert lines[3].startswith("      open-leaf […]")
        assert "(open)" in lines[3]

    def test_orphan_parent_becomes_root(self):
        spans = [Span(span_id=5, trace_id="t", name="x", start=1.0,
                      parent_id=999, end=2.0, outcome="ok")]
        text = render_span_tree(spans)
        assert "  x [ok]" in text

    def test_empty(self):
        assert "(no spans)" in render_span_tree([])


class TestAttribution:
    def test_buckets(self):
        def closed(sid, name, start, end, parent=None, **ann):
            return Span(span_id=sid, trace_id="t", name=name, start=start,
                        end=end, parent_id=parent, outcome="ok",
                        annotations=ann)

        spans = [
            closed(1, "source.deliver", 0.0, 10.0),
            closed(2, "stage.route", 1.0, 7.0),
            closed(3, "deliver.user", 2.0, 6.0, parent=2),
            closed(4, "ack.wait", 2.0, 5.0),
            closed(5, "transit.IM", 2.0, 3.0),
            closed(6, "failover.handoff", 7.0, 9.0),
            Span(span_id=7, trace_id="t", name="stage.retry", start=9.0),
        ]
        buckets = attribute_spans(spans)
        assert buckets["end_to_end"] == 10.0
        # Route work minus the nested deliver.user wait: 6 - 4 = 2.
        assert buckets["stage:route"] == 2.0
        assert buckets["channel:ack_wait"] == 3.0
        assert buckets["channel:transit:IM"] == 1.0
        assert buckets["failover:handoff"] == 2.0
        assert "stage:retry" not in buckets  # open spans never count

    def test_end_to_end_falls_back_to_span_extent(self):
        spans = [Span(span_id=1, trace_id="t", name="stage.filter",
                      start=2.0, end=5.0, outcome="ok")]
        assert attribute_spans(spans)["end_to_end"] == 3.0

    def test_render_attribution_sorts_largest_first(self):
        text = render_attribution(
            {"end_to_end": 4.0, "stage:route": 1.0, "channel:ack_wait": 3.0}
        )
        lines = text.splitlines()
        assert lines[0] == "end_to_end: 4.00s"
        assert lines[1].startswith("  channel:ack_wait: 3.00s (75%)")
        assert lines[2].startswith("  stage:route: 1.00s (25%)")

    def test_render_attribution_empty(self):
        assert render_attribution({}) == "(no closed spans)"
