"""Deliberately broken pipeline stages — the oracle's sparring partners.

A delivery oracle that has never caught a real bug is a rubber stamp.
These stage factories plant specific §4.2.1 regressions so the testkit's
own tests (and anyone tuning intensities) can verify the whole chain:
generator finds the triggering interleaving → oracle flags it → shrinker
reduces it to a minimal pinned reproducer.

Each bug is *latent*: on a fault-free run the broken pipeline behaves
identically to the real one, so only the right fault interleaving (e.g.
IM and email both down at routing time) exposes it — exactly the class of
bug random schedule search exists to find.
"""

from __future__ import annotations

from repro.core.pessimistic_log import DeliveryStatus
from repro.core.pipeline import (
    AggregateStage,
    ClassifyStage,
    FilterStage,
    PipelineContext,
    PipelineStage,
    RetryStage,
    RouteStage,
)


class SilentDropRetryStage(PipelineStage):
    """Regression: total delivery failure is treated as success.

    Identical to :class:`~repro.core.pipeline.RetryStage` while every
    block succeeds; when all of them fail it still journals ``routed``,
    marks the log entry processed and never re-queues — the alert is
    silently gone.  Trips the ``delivered_or_dead_letter`` invariant.
    """

    name = "retry"

    def run(self, ctx: PipelineContext):
        status = ctx.log.status.setdefault(ctx.alert.alert_id, DeliveryStatus())
        status.state = "routed"
        if ctx.entry is not None:
            ctx.log.mark_processed(ctx.entry.entry_id)
        ctx.finished = True
        ctx.outcome_kind = "routed"
        ctx.journal.record(
            ctx.env.now, "routed", "silent-drop bug", alert_id=ctx.alert.alert_id
        )
        return
        yield  # pragma: no cover - synchronous stage


class AbandonAmnesiaRetryStage(RetryStage):
    """Regression: giving up without saying so.

    Retries exactly like the real stage, but when attempts are exhausted
    it forgets to journal ``delivery_abandoned`` — the outcome claims
    ``routed``.  The user never got the alert and no dead-letter exists:
    the ``delivered_or_dead_letter`` invariant fires only on schedules
    whose outage outlasts the whole retry chain.
    """

    name = "retry"

    def run(self, ctx: PipelineContext):
        exhausted = (
            ctx.failed_users
            and ctx.incoming.attempts + 1 >= ctx.config.delivery_max_attempts
        )
        if not exhausted:
            yield from super().run(ctx)
            return
        status = ctx.log.status.setdefault(ctx.alert.alert_id, DeliveryStatus())
        status.state = "routed"
        if ctx.entry is not None:
            ctx.log.mark_processed(ctx.entry.entry_id)
        ctx.finished = True
        ctx.outcome_kind = "routed"


def silent_drop_stages() -> list[PipelineStage]:
    """§4.2 stages with :class:`SilentDropRetryStage` in the retry slot."""
    return [
        ClassifyStage(),
        AggregateStage(),
        FilterStage(),
        RouteStage(),
        SilentDropRetryStage(),
    ]


def drop_retry_stages() -> list[PipelineStage]:
    """The ISSUE's canonical injected bug: no retry stage at all.

    Routing still happens, but the trip ends unfinished — no terminal
    outcome, the log entry never marked processed.  The oracle flags it
    instantly (``pipeline_terminal`` + ``log_quiescent``), faults or not.
    """
    return [ClassifyStage(), AggregateStage(), FilterStage(), RouteStage()]
