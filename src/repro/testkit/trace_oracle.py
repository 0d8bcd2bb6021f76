"""Trace-backed invariants: what the causal span tree must always satisfy.

The journal-side rows of :data:`repro.testkit.oracle.INVARIANTS` audit
*endpoints* — what each tenant's journal, log and ack table say happened.
The ``"trace"``-scope rows defined here audit the *path*: the
:class:`~repro.obs.TraceSink` recorded who caused what, so a class of bugs
invisible to endpoint state (a fallback block firing before its predecessor
failed, a fenced side starting a trip after losing the epoch, a stage list
that silently drops alerts) becomes a structural property of the span tree.

Their evidence is one alert's :class:`Trace`; each is conservative enough
to hold by construction on a healthy run — the seed-sensitivity smoke test
asserts the trace verdict and the journal verdict *agree* across seeds.
Lifecycle traces (restarts, promotions) are not alert paths and are exempt.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.obs.trace import LIFECYCLE_PREFIX, Span
from repro.testkit.oracle import OUTCOME_KINDS, Violation, findings

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import TraceSink

#: ``trip`` outcomes that legitimately end a trip: every kind the audit
#: classifies (``retry_scheduled`` ends *this* trip; a later one carries on).
TERMINAL_TRIP_OUTCOMES = frozenset(OUTCOME_KINDS)


class Trace(NamedTuple):
    """One alert's spans, plus the run-wide facts its checks consult."""

    spans: list[Span]
    #: user → [(epoch, promoted_at)] from the lifecycle traces.
    promotions: dict[str, list[tuple[int, float]]]
    #: False once the sink evicted anything: completeness-dependent checks
    #: stand down (a dropped predecessor block is bounded memory, not a
    #: bug, but it looks exactly like out-of-order fallback).
    complete: bool


def check_trace(sink: "TraceSink") -> tuple[dict[str, int], list[Violation]]:
    """Audit every trace invariant; returns (checked counters, violations)."""
    checked: dict[str, int] = {
        "trace_traces": len(sink.trace_ids()),
        "trace_spans": sink.span_count(),
    }
    promotions: dict[str, list[tuple[int, float]]] = {}
    for span in sink.find_spans("failover.promote"):
        user = span.annotations.get("user")
        epoch = span.annotations.get("epoch")
        if user is not None and epoch is not None:
            promotions.setdefault(user, []).append((epoch, span.start))
    complete = not (sink.dropped_traces or sink.dropped_spans)

    violations: list[Violation] = []
    for trace_id in sink.trace_ids():
        if trace_id.startswith(LIFECYCLE_PREFIX):
            continue
        trace = Trace(sink.spans(trace_id), promotions, complete)
        violations.extend(
            Violation(name, detail, user=user, alert_id=trace_id)
            for name, detail, user in findings({"trace": [(trace,)]})
        )
    return checked, violations


# ----------------------------------------------------------------------
# The invariants.  Each yields ``(detail, user)`` per breach.
# ----------------------------------------------------------------------


def terminal_delivery(trace: Trace):
    """At most one successful ``deliver.user`` span per (alert, user,
    epoch).  Cross-epoch repeats are the replication partition shape and
    are judged by the journal side's ``no_fenced_reroute``, not here."""
    delivered: dict[tuple[str, object], int] = {}
    for span in trace.spans:
        if span.name == "deliver.user" and span.outcome == "delivered":
            key = (
                span.annotations.get("user", "?"),
                span.annotations.get("epoch"),
            )
            delivered[key] = delivered.get(key, 0) + 1
    for (user, epoch), count in delivered.items():
        if count > 1:
            where = f" under epoch {epoch}" if epoch is not None else ""
            yield (
                f"{count} successful deliver.user spans{where} (one "
                "terminal delivery per alert per user per epoch)",
                user,
            )


def fenced_epoch(trace: Trace):
    """No ``trip`` span annotated with epoch *E* starts strictly after a
    ``failover.promote`` event for the same user with a later epoch.
    Mirrors ``at_most_one_active_epoch`` (same-instant actions are legal:
    the promotion and the last old-epoch action may share a timestamp)."""
    for span in trace.spans:
        epoch = span.annotations.get("epoch")
        user = span.annotations.get("user")
        if span.name != "trip" or epoch is None or user is None:
            continue
        for later_epoch, promoted_at in trace.promotions.get(user, ()):
            if later_epoch > epoch and span.start > promoted_at:
                yield (
                    f"trip under epoch {epoch} started at "
                    f"t={span.start:.1f}, after epoch {later_epoch} was "
                    f"promoted at t={promoted_at:.1f}",
                    user,
                )


def trip_terminal(trace: Trace):
    """A *closed* ``trip`` span carries an outcome the kind table
    classifies, never ``"unfinished"``: a trip that ran off the end of the
    stage list dropped its alert.  Spans left *open* are legal — a crash
    cuts processes mid-yield and their spans simply never end."""
    for span in trace.spans:
        if span.name != "trip" or not span.closed:
            continue
        if span.outcome not in TERMINAL_TRIP_OUTCOMES:
            yield (
                f"trip closed with non-terminal outcome {span.outcome!r} "
                "(alert dropped by the stage list)",
                span.annotations.get("user"),
            )


def fallback_ordering(trace: Trace):
    """Within one delivery-mode execution (one ``deliver`` span), block
    *i* > 0 may start only if block *i − 1* ran and did not succeed.
    Fallback is ordered error handling; out-of-order blocks mean the
    engine broke its §3.2 contract.  Needs a complete trace."""
    if not trace.complete:
        return
    blocks_by_deliver: dict[int, dict[int, Span]] = {}
    for span in trace.spans:
        index = span.annotations.get("index")
        if span.name != "block" or span.parent_id is None or index is None:
            continue
        blocks_by_deliver.setdefault(span.parent_id, {})[index] = span
    for blocks in blocks_by_deliver.values():
        for index in sorted(blocks):
            if index == 0:
                continue
            prev = blocks.get(index - 1)
            if prev is None:
                yield f"block {index} ran without block {index - 1}", None
            elif prev.outcome == "success":
                yield (
                    f"block {index} ran although block {index - 1} "
                    "succeeded (fallback after success)",
                    None,
                )


def structural(trace: Trace):
    """Every span's parent exists in its trace and no closed span ends
    before it starts.  Needs a complete trace (a dropped parent is bounded
    memory, not a bug)."""
    if not trace.complete:
        return
    ids = {span.span_id for span in trace.spans}
    for span in trace.spans:
        if span.parent_id is not None and span.parent_id not in ids:
            yield (
                f"span {span.span_id} ({span.name}) parents under unknown "
                f"span {span.parent_id}",
                None,
            )
        if span.closed and span.end < span.start:
            yield (
                f"span {span.span_id} ({span.name}) ends before it starts "
                f"({span.end} < {span.start})",
                None,
            )
