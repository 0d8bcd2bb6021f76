"""Trace-backed oracle tests: every invariant, fabricated and end-to-end.

The fabricated-sink tests pin each invariant's exact trigger (and its
legal near-misses).  The integration tests prove the chain the ISSUE asks
for: a planted pipeline bug trips a *trace* invariant independently of
the journal oracle, a healthy chaos run has a clean trace verdict with an
unchanged fingerprint, and the pinned failover reproducer yields a
complete span record (handoff, promotions, restarts) the oracle accepts.
"""

import pytest

from repro.obs import TraceSink, lifecycle_trace
from repro.sim.clock import MINUTE
from repro.sim.failures import FaultKind, ScheduledFault
from repro.testkit import ChaosRunConfig, check_trace, run_chaos
from repro.testkit.bugs import drop_retry_stages
from repro.testkit.schedule import replay_reproducer
from repro.testkit.trace_oracle import TERMINAL_TRIP_OUTCOMES
from repro.workloads.faultload import TARGET_EMAIL_SERVICE, TARGET_IM_SERVICE
from tests.test_chaos_regressions import CHAOS_DIR


class FakeEnv:
    def __init__(self):
        self.now = 0.0
        self.tracer = None


def make_sink(**kwargs):
    env = FakeEnv()
    return TraceSink(**kwargs).install(env), env


def invariants(violations):
    return sorted({v.invariant for v in violations})


# Span builders, one per trace invariant: each plants the smallest span
# record that breaches it — or its nearest legal twin.  Shared with the
# teeth enumeration in ``tests/test_oracle_invariants.py``.


def deliver_under_epochs(sink, env, epochs):
    for epoch in epochs:
        span = sink.begin("alert-1", "deliver.user", user="u", epoch=epoch)
        env.now += 1.0
        sink.end(span, "delivered")


def deliver_with_blocks(sink, env, outcomes, start_index=0):
    deliver = sink.begin("alert-1", "deliver", mode="m")
    for offset, outcome in enumerate(outcomes):
        block = sink.begin(
            "alert-1", "block",
            parent=deliver.span_id, index=start_index + offset,
        )
        env.now += 1.0
        sink.end(block, outcome)
    sink.end(deliver, "delivered")


def old_epoch_trip_after_promotion(sink, env, delay):
    """Epoch 2 promoted at t=10; an epoch-1 trip starts ``delay`` later."""
    env.now = 10.0
    sink.event(
        lifecycle_trace("pair:u"), "failover.promote",
        epoch=2, side="standby", user="u",
    )
    env.now = 10.0 + delay
    span = sink.begin("alert-1", "trip", user="u", epoch=1, attempt=0)
    env.now += 1.0
    sink.end(span, "routed")


def closed_trip(sink, env, outcome):
    span = sink.begin("alert-1", "trip", user="u", attempt=0)
    env.now = 1.0
    sink.end(span, outcome)


def span_under_parent(sink, env, parent):
    span = sink.begin("alert-1", "receive", parent=parent)
    sink.end(span, "enqueued")


class TestFabricatedInvariants:
    def test_clean_sink_checks_out(self):
        sink, env = make_sink()
        span = sink.begin("alert-1", "trip", user="u", epoch=1)
        env.now = 2.0
        sink.end(span, "routed")
        checked, violations = check_trace(sink)
        assert violations == []
        assert checked == {"trace_traces": 1, "trace_spans": 1}

    def test_duplicate_terminal_delivery(self):
        sink, env = make_sink()
        deliver_under_epochs(sink, env, (1, 1))
        _, violations = check_trace(sink)
        assert invariants(violations) == ["trace_terminal_delivery"]

    def test_cross_epoch_redelivery_is_not_this_invariant(self):
        """Same alert delivered under two epochs is the partition shape
        the *journal* oracle judges; the trace invariant keys on epoch."""
        sink, env = make_sink()
        deliver_under_epochs(sink, env, (1, 2))
        _, violations = check_trace(sink)
        assert violations == []

    def test_fallback_after_success(self):
        sink, env = make_sink()
        deliver_with_blocks(sink, env, ["success", "success"])
        _, violations = check_trace(sink)
        assert invariants(violations) == ["trace_fallback_ordering"]

    def test_fallback_without_predecessor(self):
        sink, env = make_sink()
        deliver_with_blocks(sink, env, ["success"], start_index=1)
        _, violations = check_trace(sink)
        assert invariants(violations) == ["trace_fallback_ordering"]

    def test_ordered_fallback_is_legal(self):
        sink, env = make_sink()
        deliver_with_blocks(sink, env, ["failed", "success"])
        _, violations = check_trace(sink)
        assert violations == []

    def test_fallback_check_skipped_when_sink_evicted(self):
        """A dropped predecessor block is bounded memory, not a bug —
        the completeness-dependent checks must stand down."""
        sink, env = make_sink(max_spans_per_trace=2)
        deliver = sink.begin("alert-1", "deliver", mode="m")
        first = sink.begin("alert-1", "block", parent=deliver.span_id, index=0)
        sink.end(first, "failed")
        second = sink.begin(  # over the cap: dropped, looks missing
            "alert-1", "block", parent=deliver.span_id, index=1
        )
        sink.end(second, "success")
        sink.end(deliver, "delivered")
        assert sink.dropped_spans == 1
        _, violations = check_trace(sink)
        assert violations == []

    def test_fenced_epoch_trip_after_promotion(self):
        sink, env = make_sink()
        old_epoch_trip_after_promotion(sink, env, delay=1.0)
        _, violations = check_trace(sink)
        assert invariants(violations) == ["trace_fenced_epoch"]

    def test_fenced_epoch_same_instant_is_legal(self):
        sink, env = make_sink()
        old_epoch_trip_after_promotion(sink, env, delay=0.0)
        _, violations = check_trace(sink)
        assert violations == []

    def test_trip_closed_without_terminal_outcome(self):
        sink, env = make_sink()
        closed_trip(sink, env, "unfinished")
        _, violations = check_trace(sink)
        assert invariants(violations) == ["trace_terminal"]

    def test_open_trip_is_legal(self):
        """A crash cuts processes mid-yield; their spans never end."""
        sink, _ = make_sink()
        sink.begin("alert-1", "trip", user="u", attempt=0)
        _, violations = check_trace(sink)
        assert violations == []

    @pytest.mark.parametrize("outcome", sorted(TERMINAL_TRIP_OUTCOMES))
    def test_every_terminal_outcome_is_legal(self, outcome):
        sink, env = make_sink()
        closed_trip(sink, env, outcome)
        _, violations = check_trace(sink)
        assert violations == []

    def test_structural_unknown_parent(self):
        sink, env = make_sink()
        span_under_parent(sink, env, parent=999)
        _, violations = check_trace(sink)
        assert invariants(violations) == ["trace_structural"]

    def test_structural_end_before_start(self):
        sink, env = make_sink()
        env.now = 5.0
        span = sink.begin("alert-1", "receive")
        env.now = 3.0
        sink.end(span, "enqueued")
        _, violations = check_trace(sink)
        assert invariants(violations) == ["trace_structural"]

    def test_lifecycle_traces_are_exempt(self):
        """Lifecycle spans (restarts, promotions) are not alert paths;
        no alert invariant may fire on them."""
        sink, env = make_sink()
        span = sink.begin(lifecycle_trace("mdc:u"), "trip", user="u")
        env.now = 1.0
        sink.end(span, "weird")
        _, violations = check_trace(sink)
        assert violations == []


#: Both channels down at once (same shape as test_chaos_oracle.py): alerts
#: emitted in the gap exhaust the §4.2 fallback chain.
TOTAL_OUTAGE = [
    ScheduledFault(at=602.0, kind=FaultKind.IM_SERVICE_OUTAGE,
                   target=TARGET_IM_SERVICE, duration=600.0),
    ScheduledFault(at=602.0, kind=FaultKind.EMAIL_OUTAGE,
                   target=TARGET_EMAIL_SERVICE, duration=900.0),
]

CONFIG = ChaosRunConfig(seed=5, n_users=2, duration=20 * MINUTE,
                        settle=15 * MINUTE)


class TestTraceOracleEndToEnd:
    def test_healthy_run_clean_trace_verdict(self):
        traced = run_chaos(TOTAL_OUTAGE, CONFIG, trace=True)
        untraced = run_chaos(TOTAL_OUTAGE, CONFIG)
        assert traced.ok, traced.oracle.summary()
        assert traced.oracle.trace_violations == []
        assert "trace_traces" in traced.oracle.checked
        assert traced.oracle.checked["trace_spans"] > 0
        assert traced.trace is not None
        assert untraced.trace is None

    def test_planted_bug_trips_a_trace_invariant(self):
        """Dropping the retry stage lets trips run off the end of the
        stage list — the trace oracle sees the non-terminal trip even
        though no journal entry is missing for *this* check."""
        report = run_chaos(
            TOTAL_OUTAGE, CONFIG, stage_factory=drop_retry_stages, trace=True
        )
        assert not report.ok
        assert "trace_terminal" in invariants(report.oracle.trace_violations)

    def test_oracle_report_folds_trace_violations_into_verdict(self):
        report = run_chaos(
            TOTAL_OUTAGE, CONFIG, stage_factory=drop_retry_stages, trace=True
        )
        assert not report.oracle.ok
        assert "violation" in report.oracle.summary()

    def test_pinned_failover_reproducer_has_complete_span_record(self):
        """ISSUE acceptance: the pinned reproducer's trace contains the
        full causal path — fallback blocks, a failover handoff, the
        promotions and MDC restarts around it — and the trace oracle
        accepts it."""
        report = replay_reproducer(
            CHAOS_DIR.parent / "trace" / "handoff_failover.json", trace=True
        )
        assert report.ok, report.oracle.summary()
        assert report.oracle.trace_violations == []
        sink = report.trace
        assert sink.find_spans("failover.handoff"), "no handoff span"
        assert sink.find_spans("failover.promote"), "no promotion events"
        assert sink.find_spans("mdc.restart"), "no MDC restart events"
        fallbacks = [
            s for s in sink.find_spans("block")
            if s.annotations.get("index", 0) > 0
        ]
        assert fallbacks, "no fallback block in the pinned reproducer"
