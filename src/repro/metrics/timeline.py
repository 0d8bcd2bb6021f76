"""Per-alert journey tracing: where did my alert go, and when?

Stitches together everything the stack already records about one alert —
source emission and per-block delivery outcomes, MAB's pessimistic-log
entry and journal events, and the user's device receipts — into one
time-ordered trace.  Invaluable when debugging a deployment ("why did this
ride email instead of IM?").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.router import BlockStatus
from repro.sim.clock import format_time

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.alert import Alert
    from repro.core.router import DeliveryRun
    from repro.core.user_endpoint import UserEndpoint
    from repro.world import BuddyDeployment


@dataclass(frozen=True)
class TraceEvent:
    """One hop in an alert's journey."""

    at: float
    actor: str
    description: str

    def render(self) -> str:
        return f"{format_time(self.at)}  [{self.actor:<8s}] {self.description}"


def trace_alert(
    alert_id: str,
    alert: Optional["Alert"] = None,
    deployment: Optional["BuddyDeployment"] = None,
    user: Optional["UserEndpoint"] = None,
    runs: Iterable["DeliveryRun"] = (),
) -> list[TraceEvent]:
    """Collect every known event about ``alert_id``, time-ordered.

    Pass whichever parties you have; missing ones are simply skipped.

    - ``alert``: the :class:`~repro.core.alert.Alert` the source's
      ``emit``/``emit_to`` returned, for the emission line.  The source
      keeps neither its alerts nor their outcomes, so the block lines
      need ``runs``.
    - ``runs``: the delivery runs the source's ``emit``/``deliver``
      returned, as returned.  For each ended run of this alert to a MAB,
      one line per block, stamped when that block started (the delivery's
      start plus the elapsed time of the blocks before it), then the
      verdict.
    - ``deployment``: the MAB's pessimistic-log entry and its journal
      lines.  The MAB's delivery engine keeps no per-block history; the
      per-block detail of MAB -> user delivery is what a :mod:`repro.obs`
      trace of the run records.
    - ``user``: one line per device receipt, duplicates included.
    """
    events: list[TraceEvent] = []

    if alert is not None and alert.alert_id == alert_id:
        events.append(
            TraceEvent(
                alert.created_at, "source",
                f"emitted {alert.keyword!r}: {alert.subject!r}",
            )
        )
    for run in runs:
        if run.correlation != alert_id or not run.triggered:
            continue
        outcome = run.value
        # Blocks run back to back with no yield between them, so block i
        # starts where the blocks before it ended.
        at = outcome.started_at
        for block in outcome.blocks:
            events.append(TraceEvent(at, "source", _describe_block(block)))
            at += block.elapsed
        verdict = (
            f"delivered via block {outcome.delivered_via}"
            if outcome.delivered else "delivery FAILED on all blocks"
        )
        events.append(
            TraceEvent(outcome.finished_at, "source",
                       f"{verdict} ({outcome.messages_sent} messages)")
        )

    if deployment is not None:
        entry = deployment.log.entry_for_alert(alert_id)
        if entry is not None:
            events.append(
                TraceEvent(entry.received_at, "mab-log",
                           "logged before ack (pessimistic logging)")
            )
            if entry.processed and entry.processed_at is not None:
                events.append(
                    TraceEvent(entry.processed_at, "mab-log",
                               "marked Processed")
                )
        for journal_event in deployment.journal.events:
            if journal_event.alert_id == alert_id:
                events.append(
                    TraceEvent(
                        journal_event.at, "mab",
                        f"{journal_event.kind}"
                        + (f": {journal_event.detail}"
                           if journal_event.detail else ""),
                    )
                )

    if user is not None:
        for receipt in user.receipts_for(alert_id):
            tag = "DUPLICATE discarded" if receipt.duplicate else "received"
            events.append(
                TraceEvent(
                    receipt.at, "user",
                    f"{tag} on {receipt.channel.value} "
                    f"({receipt.latency:.2f}s after creation)",
                )
            )

    return sorted(events, key=lambda e: e.at)


def _describe_block(block) -> str:
    if block.status is BlockStatus.SUCCESS:
        detail = (
            f"acked by {block.acked_by}" if block.acked_by
            else f"submitted to {', '.join(block.submitted)}"
        )
        return f"block {block.index} SUCCESS ({detail}, {block.elapsed:.2f}s)"
    parts = [f"block {block.index} {block.status.value}"]
    if block.skipped_disabled:
        parts.append(f"disabled: {', '.join(block.skipped_disabled)}")
    if block.errors:
        parts.append(
            "errors: " + "; ".join(f"{k}: {v}" for k, v in block.errors.items())
        )
    return " — ".join(parts)


def render_trace(events: list[TraceEvent]) -> str:
    """Format a trace as one line per hop."""
    if not events:
        return "(no events recorded for this alert)"
    return "\n".join(event.render() for event in events)
